"""Kernels that only the tests use.

A dense layer for one vector, a length-preserving convolution over one
(m, d) sequence and the word-then-tag embedding rows of one text, with
the identity and tanh activations besides the library's sigmoid and
relu; the max-pool over sliding windows; and the RMSProp update one
parameter array at a time. They are written plainly and serve as
reference oracles.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sentbound.errors import ContractError
from sentbound.numerics.kernels import conv_windows, relu, sigmoid

ACTIVATIONS = {
    "identity": lambda z: z,
    "sigmoid": sigmoid,
    "tanh": np.tanh,
    "relu": relu,
}


def activation_fn(name):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ContractError(f"unknown activation {name!r}") from None


def dense_forward(x, w, b, activation="identity"):
    """Fully connected layer for a single vector: activation(W^T x + b).

    x: (k,), w: (k, j), b: (j,).
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if w.ndim != 2 or x.shape != (w.shape[0],) or b.shape != (w.shape[1],):
        raise ContractError(
            f"dense_forward shape mismatch: x {x.shape}, w {w.shape}, b {b.shape}"
        )
    return activation_fn(activation)(x @ w + b)


def conv1d_same_forward(x, filters, bias, activation="relu"):
    """Length-preserving 1-D convolution over the rows of x.

    x: (m, d); filters: (n_f, h_c*d) with each row a flattened window
    filter; bias: (n_f,). Returns (m, n_f).
    """
    x = np.asarray(x, dtype=np.float64)
    filters = np.asarray(filters, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    m, d = x.shape
    n_f, wd = filters.shape
    if wd % d != 0:
        raise ContractError(f"filter width {wd} not a multiple of input dim {d}")
    h_c = wd // d
    if h_c < 1 or m < 1:
        raise ContractError("conv1d requires h_c >= 1 and m >= 1")
    pre = conv_windows(x, h_c) @ filters.T + bias
    return activation_fn(activation)(pre)


def build_lexical_input(text, word_table=None, tag_table=None):
    """Word-then-tag embedding concatenation, one row per token."""
    if word_table is None and tag_table is None:
        raise ContractError("need at least one embedding table")
    parts = []
    if word_table is not None:
        parts.append(word_table.vectors[word_table.encode(text.tokens)])
    if tag_table is not None:
        parts.append(tag_table.vectors[tag_table.encode(text.pos_tags)])
    return parts[0].copy() if len(parts) == 1 else np.concatenate(parts, axis=1)


def rmsprop_reference_step(params, grads, r, gamma, eta, epsilon):
    """One RMSProp update of each named array of params in place, from the
    same-named grads, with the accumulators r named alike."""
    for name, p in params.items():
        grad = grads[name]
        r[name] *= gamma
        r[name] += (1.0 - gamma) * grad * grad
        p -= eta * grad / (np.sqrt(r[name]) + epsilon)


def maxpool1d_same_reference(c, h_m):
    """maxpool1d_same's (out, argrow) by a max and an argmax over each
    row's sliding window of the -inf-padded input."""
    c = np.asarray(c, dtype=np.float64)
    m = c.shape[0]
    lo_off = h_m // 2
    padded = np.full((m + h_m - 1,) + c.shape[1:], -np.inf)
    padded[lo_off : lo_off + m] = c
    windows = sliding_window_view(padded, h_m, axis=0)  # (m, ..., h_m)
    start = (np.arange(m) - lo_off).reshape((m,) + (1,) * (c.ndim - 1))
    return windows.max(axis=-1), start + windows.argmax(axis=-1)
