"""Stateless numeric kernels: activations, convolution, pooling, dropout."""

import numpy as np

from ..errors import ContractError, NumericError


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def relu(z):
    return np.maximum(z, 0.0)


def row_matmul(a, w):
    """a @ w over the last axis of a, whatever its leading shape, as one
    2-D GEMM (numpy's matmul would run one GEMM per leading index)."""
    return (a.reshape(-1, a.shape[-1]) @ w).reshape(a.shape[:-1] + (w.shape[1],))


def row_outer_sum(a, b):
    """Sum over all rows of the outer products a_r b_r^T, i.e. a^T b with
    the leading axes of a and b flattened: the weight gradient of a
    row_matmul."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def row_sum(a):
    """Sum over every axis but the last."""
    return a.reshape(-1, a.shape[-1]).sum(axis=0)


def softmax(z):
    """Row-stochastic softmax with max-subtraction for overflow safety.

    Accepts a single vector (K,) or a matrix (m, K) of row logits; a
    non-finite logit (a diverged network) raises NumericError.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise NumericError("softmax input must be finite")
    if z.shape[-1] < 2:
        raise ContractError("softmax needs at least 2 classes")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _conv_pad(h_c):
    return h_c // 2


def conv_windows(x, h_c):
    """Stack of flattened length-h_c windows along the time axis.

    x is (m, d), or a time-major block (T, B, d) whose rows are windowed
    independently. After zero padding, output row j is rows
    j-p .. j-p+h_c-1 of x (p = h_c//2), flattened in row-major order, so
    that the window for output j is centred on row j (odd h_c) or ends
    one row past centre (even h_c, surplus dropped).
    """
    m, d = x.shape[0], x.shape[-1]
    p = _conv_pad(h_c)
    padded = np.zeros((m + 2 * p,) + x.shape[1:], dtype=np.float64)
    padded[p : p + m] = x
    windows = np.empty(x.shape[:-1] + (h_c * d,), dtype=np.float64)
    for k in range(h_c):
        windows[..., k * d : (k + 1) * d] = padded[k : k + m]
    return windows


def conv1d_backward(d_out_pre, x, filters, input_grad):
    """Gradients of the convolution given d(loss)/d(pre-activation).

    x and d_out_pre share conv_windows' layout. The work goes one window
    offset at a time, so no stack of windows is built. Returns
    (d_filters, d_bias, d_x). Without input_grad, for an input whose
    gradient nothing reads (a dense-input net's features), d_x is None
    and none of its GEMMs run.
    """
    m, d = x.shape[0], x.shape[-1]
    h_c = filters.shape[1] // d
    p = _conv_pad(h_c)
    padded = np.zeros((m + 2 * p,) + x.shape[1:], dtype=np.float64)
    padded[p : p + m] = x
    d_filters = np.empty_like(filters)
    d_padded = np.zeros_like(padded) if input_grad else None
    for k in range(h_c):
        cols = slice(k * d, (k + 1) * d)
        d_filters[:, cols] = row_outer_sum(d_out_pre, padded[k : k + m])
        if input_grad:
            d_padded[k : k + m] += row_matmul(d_out_pre, filters[:, cols])
    d_x = d_padded[p : p + m] if input_grad else None
    return d_filters, row_sum(d_out_pre), d_x


def maxpool1d_same(c, h_m, return_argmax=False):
    """Stride-1 max pooling over time with centred, edge-clipped windows.

    c is (m, n_f), or a time-major block (T, B, n_f) pooled along T. Output
    row j is the max of input rows j - h_m//2 .. j + ceil(h_m/2) - 1,
    clipped to [0, m); output keeps the input shape. A -inf row never
    wins a window that holds a finite value, and a NaN propagates. With
    return_argmax=True also returns the source row of each maximum
    (first occurrence on ties), needed for the backward pass.

    The max runs over the h_m shifted slices of the -inf-padded input,
    one np.maximum each; the argmax moves to slice k only where slice k
    is strictly greater, which keeps the first occurrence.
    """
    c = np.asarray(c, dtype=np.float64)
    if h_m < 1:
        raise ContractError("pool window must be >= 1")
    m = c.shape[0]
    lo_off = h_m // 2
    padded = np.full((m + h_m - 1,) + c.shape[1:], -np.inf)
    padded[lo_off : lo_off + m] = c
    out = padded[:m].copy()
    if not return_argmax:
        for k in range(1, h_m):
            np.maximum(out, padded[k : k + m], out=out)
        return out
    arg = np.zeros(c.shape, dtype=np.intp)
    wins = np.empty(c.shape, dtype=bool)
    for k in range(1, h_m):
        shifted = padded[k : k + m]
        np.greater(shifted, out, out=wins)
        np.copyto(arg, k, where=wins)
        np.maximum(out, shifted, out=out)
    start = (np.arange(m) - lo_off).reshape((m,) + (1,) * (c.ndim - 1))
    return out, start + arg


def maxpool1d_backward(d_out, argrow):
    """Route pooled gradients back to the argmax rows in one scatter-add.

    np.bincount sums each input row's contributions in output-row order,
    as a loop over the output rows would add them.
    """
    m = d_out.shape[0]
    per_row = d_out.size // m
    target = argrow.reshape(m, per_row) * per_row + np.arange(per_row)
    d_in = np.bincount(target.reshape(-1), weights=d_out.reshape(-1), minlength=d_out.size)
    return d_in.reshape(d_out.shape)


def dropout_apply(h, rate, rng):
    """Inverted dropout: zero entries with probability `rate`.

    Survivors are scaled by 1/(1-rate) so the expectation is unchanged.
    Returns (out, mask), out = h * mask; a rate of 0 draws nothing from
    rng and keeps every entry.
    """
    h = np.asarray(h, dtype=np.float64)
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        mask = np.ones_like(h)
    else:
        if rng is None:
            raise ContractError("dropout needs an rng")
        keep = rng.random(h.shape) >= rate
        mask = keep.astype(np.float64) / (1.0 - rate)
    return h * mask, mask


def glorot_init(rows, cols, rng):
    """Gaussian init with variance 2/(rows+cols)."""
    if rows < 1 or cols < 1:
        raise ContractError("glorot_init needs rows, cols >= 1")
    std = np.sqrt(2.0 / (rows + cols))
    return rng.normal(0.0, std, size=(rows, cols))
