"""Class-weighted cross-entropy over active sequence positions."""

import numpy as np

from ..errors import ContractError

LOG_CLAMP = 1e-12


def weighted_cross_entropy(labels, y_pred, class_weights, mask):
    """Summed class-weighted negative log likelihood and its logit gradient.

    labels: (m,) class ids, the column of each row's true class;
    y_pred: (m, 2) row-stochastic predictions; class_weights: (2,)
    per-class weights indexed like the columns; mask: (m,) truthy flags
    of the rows the loss covers; False rows contribute nothing.

    Returns (loss, d_logits) where d_logits is the exact gradient of the
    summed loss w.r.t. the pre-softmax logits: cw[y] * (y_pred - onehot(y))
    at active rows and zero elsewhere. Predicted probabilities are clamped
    to LOG_CLAMP before the log so saturated rows stay finite.
    """
    labels = np.asarray(labels)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    cw = np.asarray(class_weights, dtype=np.float64)
    if y_pred.ndim != 2 or labels.shape != y_pred.shape[:1]:
        raise ContractError(
            f"label/prediction shape mismatch: {labels.shape} vs {y_pred.shape}"
        )
    m = len(labels)
    active = np.asarray(mask).astype(bool)
    if active.shape != (m,):
        raise ContractError(f"mask shape {active.shape} does not match m={m}")
    rows = np.arange(m)
    row_w = cw[labels] * active  # cw of the true class, masked
    picked = y_pred[rows, labels]
    loss = -(row_w * np.log(np.maximum(picked, LOG_CLAMP))).sum()
    d_logits = y_pred.copy()
    d_logits[rows, labels] -= 1.0
    d_logits *= row_w[:, None]
    return loss, d_logits
