"""Class-weighted cross-entropy over active sequence positions."""

import numpy as np

from ..errors import ContractError

LOG_CLAMP = 1e-12


def weighted_cross_entropy(y_true, y_pred, class_weights, mask):
    """Summed class-weighted negative log likelihood and its logit gradient.

    y_true: (m, 2) one-hot rows; y_pred: (m, 2) row-stochastic predictions;
    class_weights: (2,) per-class weights indexed like the columns;
    mask: (m,) truthy flags of the rows the loss covers; False rows
    contribute nothing.

    Returns (loss, d_logits) where d_logits is the exact gradient of the
    summed loss w.r.t. the pre-softmax logits: cw[y] * (y_pred - y_true)
    at active rows and zero elsewhere. Predicted probabilities are clamped
    to LOG_CLAMP before the log so saturated rows stay finite.
    """
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    cw = np.asarray(class_weights, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 2:
        raise ContractError(
            f"label/prediction shape mismatch: {y_true.shape} vs {y_pred.shape}"
        )
    m = y_true.shape[0]
    active = np.asarray(mask).astype(bool)
    if active.shape != (m,):
        raise ContractError(f"mask shape {active.shape} does not match m={m}")
    row_w = (y_true * cw).sum(axis=1) * active  # cw of the true class, masked
    picked = (y_true * y_pred).sum(axis=1)
    loss = -(row_w * np.log(np.maximum(picked, LOG_CLAMP))).sum()
    d_logits = row_w[:, None] * (y_pred - y_true)
    return loss, d_logits
