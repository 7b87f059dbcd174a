"""Per-sequence LSTM oracles: one cell step, and the bidirectional layer.

They transcribe the gate equations one timestep at a time, with no
batching, fused gates or padding, and serve as the reference that the
library's batched passes are compared against.
"""

import numpy as np

from sentbound.numerics.kernels import sigmoid
from sentbound.numerics.lstm import direction_forward


def lstm_cell_step(x_t, h_prev, c_prev, weights):
    """One LSTM step. Returns (h_t, c_t)."""
    i = sigmoid(weights["wx_i"] @ x_t + weights["wh_i"] @ h_prev + weights["b_i"])
    f = sigmoid(weights["wx_f"] @ x_t + weights["wh_f"] @ h_prev + weights["b_f"])
    o = sigmoid(weights["wx_o"] @ x_t + weights["wh_o"] @ h_prev + weights["b_o"])
    g = np.tanh(weights["wx_g"] @ x_t + weights["wh_g"] @ h_prev + weights["b_g"])
    c_t = f * c_prev + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t


def bilstm_forward(x, fwd_weights, bwd_weights):
    """Bidirectional pass over one (m, d) sequence: forward over x,
    backward over reversed x.

    The backward direction's outputs are re-reversed and the two projected
    sequences are summed elementwise, preserving the m rows of x.
    """
    y_f, _ = direction_forward(x, fwd_weights)
    y_b, _ = direction_forward(x[::-1], bwd_weights)
    return y_f + y_b[::-1]
