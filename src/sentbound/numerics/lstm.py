"""Fused LSTM passes over time-major blocks of sequences, one direction.

A direction's weights live in a plain dict with per-gate matrices in the
conventional orientation (rows = units):

    wx_i, wx_f, wx_o, wx_g : (n_r, d_in)   input weights per gate
    wh_i, wh_f, wh_o, wh_g : (n_r, n_r)    recurrent weights per gate
    b_i,  b_f,  b_o,  b_g  : (n_r,)        gate biases
    wy                     : (n_r, n_r)    per-timestep output projection
    by                     : (n_r,)

The cell has no peephole connections; the candidate gate uses tanh and
the i/f/o gates use the logistic sigmoid.

Sequences travel as a time-major block x of shape (T, B, d): x[t, b] is
step t of row b, and every row starts from a zero state at step 0. A
row shorter than T is padded at its end, so its padded steps run after
its live prefix and never reach a live output; when the gradient on
every padded output is zero, BPTT gives the padded steps exactly zero
gradient too. A plain (m, d) array is one sequence (B = 1) and its
results keep the (m, ...) layout. SequenceNet builds the bidirectional
layer from two independently parameterised directions: the second runs
over each row's reversed live prefix, and the two projected output
sequences are summed.
"""

import numpy as np

from .kernels import row_matmul, row_outer_sum, row_sum

GATES = ("i", "f", "o", "g")


def fuse_gate_weights(weights):
    """Stack the four per-gate parameter blocks for one-GEMM-per-step math."""
    wx = np.concatenate([weights[f"wx_{g}"] for g in GATES], axis=0)
    wh = np.concatenate([weights[f"wh_{g}"] for g in GATES], axis=0)
    b = np.concatenate([weights[f"b_{g}"] for g in GATES])
    return wx, wh, b


def lstm_sequence_forward(x, wx, wh, b):
    """Run a fused-gate LSTM over a block (zero initial state).

    x: (T, B, d_in), or (m, d_in) for one sequence; wx: (4n, d_in);
    wh: (4n, n); b: (4n,). Returns (h_seq, cache) where h_seq is x's
    shape with n columns.
    """
    block = x if x.ndim == 3 else x[:, None, :]
    steps, rows, _ = block.shape
    n = wh.shape[1]
    # Pre-activations of every step at once; the loop adds the recurrent
    # term and turns each step's slice into gate activations in place, so
    # the cache holds one (T, B, 4n) gate array. The i, f, o columns carry
    # -z (negated weights give exactly the negated sums), so their sigmoid
    # 1 / (1 + exp(-z)), as in kernels.sigmoid, needs no negation step.
    sign = np.ones(4 * n)
    sign[: 3 * n] = -1.0
    gates = row_matmul(block, wx.T * sign) + b * sign
    wh_t = wh.T * sign
    sig = gates[..., : 3 * n]
    i, f, o, g = (gates[..., k * n : (k + 1) * n] for k in range(4))
    cs = np.empty((steps, rows, n))
    tc = np.empty((steps, rows, n))
    hs = np.empty((steps, rows, n))
    c = np.zeros((rows, n))
    for t in range(steps):
        if t:
            z = gates[t]
            z += hs[t - 1] @ wh_t
        s = sig[t]
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        g_t = g[t]
        np.tanh(g_t, out=g_t)
        c_t = cs[t]
        np.multiply(f[t], c, out=c_t)
        c_t += i[t] * g_t
        tc_t = tc[t]
        np.tanh(c_t, out=tc_t)
        np.multiply(o[t], tc_t, out=hs[t])
        c = c_t
    cache = {"x": block, "gates": gates, "c": cs, "tanh_c": tc, "h": hs}
    return (hs if x.ndim == 3 else hs[:, 0]), cache


def lstm_sequence_backward(d_h_seq, cache, wx, wh):
    """Backpropagation through time for lstm_sequence_forward.

    d_h_seq: gradient w.r.t. every hidden output, shaped like h_seq.
    Returns (d_wx, d_wh, d_b, d_x) with d_x shaped like the forward's x.
    The cache's gate array is overwritten, so a cache serves one call.
    """
    x, gates, cs, tc, hs = (cache[k] for k in ("x", "gates", "c", "tanh_c", "h"))
    steps, rows, n = hs.shape
    d_h = d_h_seq.reshape(hs.shape)
    i, f, o, g = (gates[..., k * n : (k + 1) * n] for k in range(4))
    # Step-independent factors, for all steps at once. A step's dc scales
    # the i, f and g factors and its dh the o factor into dz, and dh
    # feeds dc through o * (1 - tanh(c)^2).
    forget = f.copy()
    o_dtanh = o * (1.0 - tc * tc)
    g_factor = i * (1.0 - g * g)
    sig = gates[..., : 3 * n]
    sig *= 1.0 - sig
    i *= g
    g[...] = g_factor
    f[1:] *= cs[:-1]
    f[0] = 0.0  # zero initial cell state
    o *= tc
    per_gate = gates.reshape(steps, rows, 4, n)
    dh = np.zeros((rows, n))
    dc = np.zeros((rows, n))
    for t in range(steps - 1, -1, -1):
        dh += d_h[t]
        dc += dh * o_dtanh[t]
        k = per_gate[t]
        k[:, :2] *= dc[:, None]
        k[:, 2] *= dh
        k[:, 3] *= dc
        dh = gates[t] @ wh
        dc *= forget[t]
    d_wx = row_outer_sum(gates, x)
    d_wh = row_outer_sum(gates[1:], hs[:-1])
    d_b = row_sum(gates)
    d_x = row_matmul(gates, wx).reshape(d_h_seq.shape[:-1] + (wx.shape[1],))
    return d_wx, d_wh, d_b, d_x


def direction_forward(x, weights):
    """One direction of the bidirectional layer: LSTM plus output projection.

    x is a time-major (T, B, d) block or one (m, d) sequence. Returns
    (y_seq, cache); y_t = wy @ h_t + by (identity activation).
    """
    wx, wh, b = fuse_gate_weights(weights)
    h_seq, cache = lstm_sequence_forward(x, wx, wh, b)
    y_seq = row_matmul(h_seq, weights["wy"].T) + weights["by"]
    cache["fused"] = (wx, wh)
    return y_seq, cache


def direction_backward(d_y_seq, cache, weights):
    """Gradients for direction_forward; consumes the cache.

    Returns (grads, d_x) with grads keyed like the weights dict.
    """
    h_seq = cache["h"]
    n = h_seq.shape[-1]
    d_wy = row_outer_sum(d_y_seq, h_seq)
    d_by = row_sum(d_y_seq)
    d_h_seq = row_matmul(d_y_seq, weights["wy"])
    wx, wh = cache["fused"]
    d_wx, d_wh, d_b, d_x = lstm_sequence_backward(d_h_seq, cache, wx, wh)
    grads = {"wy": d_wy, "by": d_by}
    for k, gate in enumerate(GATES):
        grads[f"wx_{gate}"] = d_wx[k * n : (k + 1) * n]
        grads[f"wh_{gate}"] = d_wh[k * n : (k + 1) * n]
        grads[f"b_{gate}"] = d_b[k * n : (k + 1) * n]
    return grads, d_x
