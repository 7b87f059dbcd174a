"""Per-sequence LSTM oracles: one cell step, and the bidirectional layer.

They transcribe the gate equations one timestep at a time, with no
batching, fused gates, lockstep directions or padding, and serve as the
reference that the library's block passes are compared against. A
direction's weights here are per-gate blocks (wx_i .. wx_g, wh_i .. wh_g,
b_i .. b_g, wy, by); fuse_gates concatenates them into the fused dict
that the library reads.

step_loop_forward and step_loop_backward are the library's lockstep
passes as they were before their step loops walked views built once per
pass: each step slices its gate views and BPTT allocates its products.
They make the same operations in the same order, so the library's passes
must equal them bit for bit.
"""

from itertools import repeat

import numpy as np

from sentbound.numerics.kernels import row_matmul, row_outer_sum, row_sum, sigmoid
from sentbound.numerics.lstm import GATES, _bptt_factors, projection_chunks


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


def step_loop_forward(*xs, prepared, keep_cache=False):
    """lstm.direction_forward with per-step slicing (module docstring)."""
    wx_t, b, wh_t, wy_t, by, weights = prepared
    steps, rows = xs[0].shape[:2]
    dirs = len(xs)
    n = wh_t.shape[1]
    if keep_cache:
        chunks = [(0, steps)]
    else:
        chunks = projection_chunks(steps, rows, 4 * dirs * rows * n * 8)
    gates = np.empty((max(stop - start for start, stop in chunks) + 1, 5, dirs, rows, n))
    gates[0, 4] = 0.0
    hs = np.empty((steps, dirs, rows, n))
    tanh_c = np.empty((steps if keep_cache else 1, dirs, rows, n))
    rec = np.empty((dirs, rows, 4 * n))
    rec_by_gate = rec.reshape(dirs, rows, 4, n).transpose(2, 0, 1, 3)
    products = np.empty((2, dirs, rows, n))
    h_prev = None
    with np.errstate(over="ignore"):
        for start, stop in chunks:
            if start:
                gates[0, 4] = c_t
            for d, (x, wx_t_d, b_d) in enumerate(zip(xs, wx_t, b)):
                z = row_matmul(x[start:stop], wx_t_d)
                z += b_d
                gates[: stop - start, :4, d] = (
                    z.reshape(stop - start, rows, 4, n).transpose(0, 2, 1, 3)
                )
            tanh_cs = tanh_c[start:stop] if keep_cache else repeat(tanh_c[0])
            for gate, c_t, tc_t, h_t in zip(gates, gates[1:, 4], tanh_cs, hs[start:stop]):
                if h_prev is not None:
                    np.matmul(h_prev, wh_t, out=rec)
                    gate[:4] += rec_by_gate
                s = gate[:3]
                np.exp(s, out=s)
                s += 1.0
                np.divide(1.0, s, out=s)
                np.tanh(gate[3], out=gate[3])
                np.multiply(gate[:2], gate[3:], out=products)
                np.add(products[1], products[0], out=c_t)
                np.tanh(c_t, out=tc_t)
                np.multiply(gate[2], tc_t, out=h_t)
                h_prev = h_t
    cache = {"x": list(xs), "gates": gates, "tanh_c": tanh_c, "h": hs,
             "weights": weights} if keep_cache else None
    ys = np.matmul(hs.transpose(1, 0, 2, 3).reshape(dirs, steps * rows, n), wy_t)
    ys += by
    return ys.reshape(dirs, steps, rows, n), cache


def step_loop_backward(d_y_fwd, d_y_bwd, cache):
    """lstm.direction_backward with per-step products (module docstring)."""
    weights, hs = cache.pop("weights"), cache.pop("h")
    d_ys = (d_y_fwd, d_y_bwd)
    grads = [
        {"wy": row_outer_sum(d_y, hs[:, d]), "by": row_sum(d_y)}
        for d, d_y in enumerate(d_ys)
    ]
    d_hs = (row_matmul(d_y, w["wy"]) for d_y, w in zip(d_ys, weights))
    gates = cache.pop("gates")
    wh = np.stack([w["wh"] for w in weights])
    forget, o_dtanh, d_h = _bptt_factors(gates, cache.pop("tanh_c"))
    gates = gates[:-1, :4]
    steps, _, dirs, rows, n = gates.shape
    for d, d_h_d in enumerate(d_hs):
        d_h[:, d] = d_h_d
    dh = np.zeros((dirs, rows, n))
    dc = np.zeros((dirs, rows, n))
    for t in range(steps - 1, -1, -1):
        dh += d_h[t]
        dc += dh * o_dtanh[t]
        dz = gates[t]
        dz[:2] *= dc
        dz[2] *= dh
        dz[3] *= dc
        dh = np.matmul(dz.transpose(1, 2, 0, 3).reshape(dirs, rows, 4 * n), wh)
        dc *= forget[t]
    dz = np.empty((steps, rows, 4 * n))
    d_xs = []
    for d, (x, w, grad) in enumerate(zip(cache.pop("x"), weights, grads)):
        dz.reshape(steps, rows, 4, n)[...] = gates[:, :, d].transpose(0, 2, 1, 3)
        h = hs[:, d]
        grad.update(
            wx=row_outer_sum(dz, x), wh=row_outer_sum(dz[1:], h[:-1]), b=row_sum(dz)
        )
        d_xs.append(row_matmul(dz, w["wx"]))
    return tuple(grads), tuple(d_xs)
