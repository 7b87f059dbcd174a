"""Kernels that only the tests use.

A dense layer for one vector, a length-preserving convolution over one
(m, d) sequence and the word-then-tag embedding rows of one text, with
the identity and tanh activations besides the library's sigmoid and
relu; the max-pool over sliding windows; and the RMSProp update one
parameter array at a time. They are written plainly and serve as
reference oracles.

The rest are the library's earlier ways of doing what it now does in
fewer numpy calls, kept as oracles that the new code must match bit for
bit: the scatter-adds by np.add.at, dropout
drawn one sequence at a time, alpha tuning that fuses and counts
every text at every grid alpha, and an inference pass that reverses the
second LSTM direction's input by an index gather and runs each net's
output layer alone.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from sentbound.errors import ContractError
from sentbound.model import boundary_counts, fuse, prf_from_counts
from sentbound.numerics.kernels import (
    conv_windows,
    dropout_apply,
    relu,
    row_matmul,
    sigmoid,
    softmax,
)
from sentbound.numerics.lstm import direction_forward, prepare_weights
from sentbound.numerics.network import flat_vector
from sentbound.training import ALPHA_GRID

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


def maxpool1d_backward_reference(d_out, argrow):
    """maxpool1d_backward by np.add.at, which adds each row's
    contributions in output-row order."""
    m = d_out.shape[0]
    per_row = d_out.size // m
    d_in = np.zeros(d_out.shape, dtype=np.float64)
    target = argrow.reshape(m, per_row) * per_row + np.arange(per_row)
    np.add.at(d_in.reshape(-1), target.reshape(-1), d_out.reshape(-1))
    return d_in


def scatter_input_grads_reference(net, block, d_x, vector):
    """SequenceNet._scatter_input_grads by np.add.at into a scratch of the
    block's unique rows of each embedding table."""
    grads = net.views(vector)
    col = 0
    for name, ids, dim in (("emb_word", block.word_ids, net.word_dim),
                           ("emb_tag", block.tag_ids, net.tag_dim)):
        if name in grads:
            rows, where = np.unique(ids, return_inverse=True)
            sums = np.zeros((len(rows), dim))
            np.add.at(sums, where.reshape(ids.shape), d_x[..., col : col + dim])
            grads[name][rows] += sums
            col += dim


def per_sequence_dropout_reference(h, lengths, rate, rng):
    """Dropout on a (T, B, n) block drawn one sequence at a time over its
    live rows, in row order; (out, mask) are zero on padded steps."""
    dropped = np.zeros_like(h)
    mask = np.zeros_like(h)
    for b, length in enumerate(lengths):
        dropped[:length, b], mask[:length, b] = dropout_apply(h[:length, b], rate, rng)
    return dropped, mask


def tune_alpha_reference(lex_probs, pros_probs, gold_labels):
    """tune_alpha_from_probs by fusing and counting every text at every
    grid alpha."""
    best_alpha, best_f1 = None, -1.0
    for alpha in ALPHA_GRID:
        tp = fp = fn = 0
        for p_lex, p_pros, gold in zip(lex_probs, pros_probs, gold_labels):
            pred, _ = fuse(p_lex, p_pros, alpha)
            a, b, c = boundary_counts(gold, pred)
            tp, fp, fn = tp + a, fp + b, fn + c
        f1 = prf_from_counts(tp, fp, fn)[2]
        if f1 >= best_f1:
            best_alpha, best_f1 = alpha, f1
    return best_alpha


def gather_reversal_probs(net, params, block):
    """The (T, B, 2) inference probs of one net on a NetBatch block, its
    LSTM's second direction reading each row's live prefix reversed by an
    index gather, padded or not, and its output layer run alone."""
    x = net._assemble_input(params, block)
    steps, lengths = x.shape[0], block.lengths
    live = np.arange(steps)[:, None] < lengths
    h = net._input_layers(params, x, None if live.all() else ~live, None)
    if net.has_lstm:
        t = np.arange(steps)[:, None]
        rev = (np.where(live, lengths - 1 - t, t), np.arange(len(lengths)))
        prepared = prepare_weights(net.lstm_weights(flat_vector(params)))
        (y_f, y_b), _ = direction_forward(h, h[rev], prepared=prepared)
        h = y_f + y_b[rev]
    return softmax(row_matmul(h, params["out_w"]) + params["out_b"])
