"""Per-sequence LSTM oracles: one cell step, and the bidirectional layer.

They transcribe the gate equations one timestep at a time, with no
batching, fused gates, lockstep directions or padding, and serve as the
reference that the library's block passes are compared against. A
direction's weights here are per-gate blocks (wx_i .. wx_g, wh_i .. wh_g,
b_i .. b_g, wy, by); fuse_gates concatenates them into the fused dict
that the library reads.
"""

import numpy as np

from sentbound.numerics.kernels import sigmoid
from sentbound.numerics.lstm import GATES


def fuse_gates(weights):
    """The library's form of a per-gate weight dict: each of wx, wh and b
    as its four gate blocks concatenated in GATES order."""
    fused = {key: np.concatenate([weights[f"{key}_{g}"] for g in GATES])
             for key in ("wx", "wh", "b")}
    return {**fused, "wy": weights["wy"], "by": weights["by"]}


def lstm_cell_step(x_t, h_prev, c_prev, weights):
    """One LSTM step. Returns (h_t, c_t)."""
    i = sigmoid(weights["wx_i"] @ x_t + weights["wh_i"] @ h_prev + weights["b_i"])
    f = sigmoid(weights["wx_f"] @ x_t + weights["wh_f"] @ h_prev + weights["b_f"])
    o = sigmoid(weights["wx_o"] @ x_t + weights["wh_o"] @ h_prev + weights["b_o"])
    g = np.tanh(weights["wx_g"] @ x_t + weights["wh_g"] @ h_prev + weights["b_g"])
    c_t = f * c_prev + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t


def direction_outputs(x, weights):
    """One direction over one (m, d) sequence from a zero state: the
    projected outputs wy @ h_t + by, one row per step."""
    n = weights["wh_i"].shape[0]
    h, c = np.zeros(n), np.zeros(n)
    rows = []
    for x_t in x:
        h, c = lstm_cell_step(x_t, h, c, weights)
        rows.append(weights["wy"] @ h + weights["by"])
    return np.array(rows)


def bilstm_forward(x, fwd_weights, bwd_weights):
    """Bidirectional pass over one (m, d) sequence: forward over x,
    backward over reversed x.

    The backward direction's outputs are re-reversed and the two projected
    sequences are summed elementwise, preserving the m rows of x.
    """
    return direction_outputs(x, fwd_weights) + direction_outputs(x[::-1], bwd_weights)[::-1]
