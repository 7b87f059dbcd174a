"""Fused LSTM passes over time-major blocks, both directions in lockstep.

A direction's weights live in a plain dict with the four gates fused in
GATES order (rows i, f, o, g of n_r each) and matrices in the
conventional orientation (rows = units):

    wx : (4 n_r, d_in)   input weights
    wh : (4 n_r, n_r)    recurrent weights
    b  : (4 n_r,)        gate biases
    wy : (n_r, n_r)      per-timestep output projection
    by : (n_r,)

SequenceNet hands these over as views of its parameter vector, whose
layout keeps each parameter's gate blocks adjacent, so nothing here
concatenates gate blocks.

The cell has no peephole connections; the candidate gate uses tanh and
the i/f/o gates use the logistic sigmoid.

Sequences travel as a time-major block x of shape (T, B, d): x[t, b] is
step t of row b, and every row starts from a zero state at step 0. A
row shorter than T is padded at its end, so its padded steps run after
its live prefix and never reach a live output; when the gradient on
every padded output is zero, BPTT gives the padded steps exactly zero
gradient too.

The D = 2 directions of the bidirectional layer are independently
parameterised LSTMs over two blocks of the same shape; SequenceNet
feeds the second one each row's reversed live prefix and sums the two
projected outputs. Their recurrences are independent, so one Python
time-step loop advances both: the gate pre-activations are held as
(T, 4, D, B, n), so a step's i/f/o slice (3, D, B, n) and g slice
(D, B, n) are contiguous, and each step runs one stacked (D, B, n) @
(D, n, 4n) matmul. Each direction's input projection, recurrent GEMM
and gradient epilogue keep the shapes of a lone direction, so a
direction's outputs and gradients do not depend on its partner.
direction_forward and direction_backward keep their names as the entry
points of that lockstep pair.

A pass reads the weights in a prepared form (prepare_weights):
transposed, sign-folded and stacked. The form is a pure function of the
weight dicts, so a caller whose weights do not change builds it once
and passes it to every pass. A pass keeps its backward state only
when asked: an inference pass holds the gate pre-activations and the h
history its outputs need, c and tanh(c) in one-step buffers, and
returns no cache.
"""

import numpy as np

from .kernels import row_matmul, row_outer_sum, row_sum

GATES = ("i", "f", "o", "g")


def prepare_weights(weights):
    """What a pass reads of the D directions' weight dicts: (wx_t, b, wh_t).

    wx_t holds each direction's input weights transposed, (d_in, 4n), b
    its bias, (4n,), and wh_t the D recurrent weights transposed and
    stacked, (D, n, 4n). The i, f and o columns of all three are negated:
    negated weights give exactly the negated sums, so those rows come out
    as -z and their sigmoid 1 / (1 + exp(-z)), as in kernels.sigmoid,
    needs no negation step.
    """
    n = weights[0]["wh"].shape[1]
    sign = np.ones(4 * n)
    sign[: 3 * n] = -1.0
    return (
        [w["wx"].T * sign for w in weights],
        [w["b"] * sign for w in weights],
        np.stack([w["wh"] for w in weights]).transpose(0, 2, 1) * sign,
    )


def lstm_sequence_forward(xs, prepared, keep_cache=False):
    """Run D fused-gate LSTMs in lockstep, each over its own block.

    xs: D blocks (T, B, d_in) of one shape; prepared: prepare_weights of
    the D directions. Every row starts from a zero state. Returns (h,
    cache), h of shape (T, D, B, n). The cache, which only
    lstm_sequence_backward reads, is kept only when keep_cache is set;
    otherwise it is None and c and tanh(c) live in one-step buffers.
    """
    wx_t, b, wh_t = prepared
    steps, rows = xs[0].shape[:2]
    dirs = len(xs)
    n = wh_t.shape[1]
    # The loop adds the recurrent term to each step's pre-activations and
    # turns them into gate activations in place, so the cache holds one
    # gate array.
    gates = np.empty((steps, 4, dirs, rows, n))
    for d, (x, wx_t_d, b_d) in enumerate(zip(xs, wx_t, b)):
        z = row_matmul(x, wx_t_d)
        z += b_d
        gates[:, :, d] = z.reshape(steps, rows, 4, n).transpose(0, 2, 1, 3)
        del z
    sig = gates[:, :3]
    i, f, o, g = (gates[:, k] for k in range(4))
    kept = steps if keep_cache else 1  # steps of c and tanh(c) held
    cs = np.empty((kept, dirs, rows, n))
    tc = np.empty((kept, dirs, rows, n))
    hs = np.empty((steps, dirs, rows, n))
    c = np.zeros((dirs, rows, n))
    # A pre-activation z below about -709 makes the sigmoid's exp(-z)
    # overflow to inf, and a huge recurrent sum overflows to +-inf; the
    # gates then saturate at exactly 0 or 1, so neither is a fault. NaN
    # (invalid) still warns, and softmax refuses it.
    with np.errstate(over="ignore"):
        for t in range(steps):
            if t:
                rec = np.matmul(hs[t - 1], wh_t)
                gates[t] += rec.reshape(dirs, rows, 4, n).transpose(2, 0, 1, 3)
            s = sig[t]
            np.exp(s, out=s)
            s += 1.0
            np.divide(1.0, s, out=s)
            g_t = g[t]
            np.tanh(g_t, out=g_t)
            c_t = cs[t % kept]
            np.multiply(f[t], c, out=c_t)
            c_t += i[t] * g_t
            tc_t = tc[t % kept]
            np.tanh(c_t, out=tc_t)
            np.multiply(o[t], tc_t, out=hs[t])
            c = c_t
    if not keep_cache:
        return hs, None
    return hs, {"x": list(xs), "gates": gates, "c": cs, "tanh_c": tc, "h": hs}


def _bptt_factors(gates, c, tanh_c):
    """Turn a forward cache's gate activations into BPTT's per-step factors.

    Works for all steps at once and in place, on the cache's buffers: a
    step's dc scales the i, f and g rows of gates and its dh the o rows,
    giving the gate gradients. Returns the forget gates, by which dc
    decays, o * (1 - tanh(c)^2) in c's buffer, by which dh feeds dc, and
    one more free (T, D, B, n) buffer.
    """
    i, f, o, g = (gates[:, k] for k in range(4))
    forget = f.copy()
    free = np.empty_like(forget)
    f *= np.subtract(1.0, f, out=free)
    f[1:] *= c[:-1]
    f[0] = 0.0  # zero initial cell state
    g_factor = np.subtract(1.0, np.multiply(g, g, out=c), out=c)
    g_factor *= i
    i *= np.subtract(1.0, i, out=free)
    i *= g
    g[...] = g_factor
    o_dtanh = np.subtract(1.0, np.multiply(tanh_c, tanh_c, out=c), out=c)
    o_dtanh *= o
    o *= np.subtract(1.0, o, out=free)
    o *= tanh_c
    return forget, o_dtanh, free


def lstm_sequence_backward(d_hs, cache, weights):
    """Backpropagation through time for lstm_sequence_forward.

    d_hs: D gradients (T, B, n), one per direction's hidden outputs, in
    any iterable; they are read after the cache's buffers are reused.
    weights: the D directions' dicts. Returns one (d_wx, d_wh, d_b, d_x)
    per direction. The cache is consumed: its buffers are overwritten
    and its entries popped.
    """
    gates, hs = cache.pop("gates"), cache.pop("h")
    wh = np.stack([w["wh"] for w in weights])  # (D, 4n, n)
    steps, _, dirs, rows, n = gates.shape
    forget, o_dtanh, d_h = _bptt_factors(gates, cache.pop("c"), cache.pop("tanh_c"))
    for d, d_h_d in enumerate(d_hs):
        d_h[:, d] = d_h_d
    del d_h_d
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
    del forget, o_dtanh, d_h, wh
    # One direction at a time, on a (T, B, 4n) copy of its gate gradients
    # in the freed buffers' place.
    dz = np.empty((steps, rows, 4 * n))
    out = []
    for d, (x, w) in enumerate(zip(cache.pop("x"), weights)):
        dz.reshape(steps, rows, 4, n)[...] = gates[:, :, d].transpose(0, 2, 1, 3)
        h = hs[:, d]
        out.append((
            row_outer_sum(dz, x),
            row_outer_sum(dz[1:], h[:-1]),
            row_sum(dz),
            row_matmul(dz, w["wx"]),
        ))
    return out


def direction_forward(x_fwd, x_bwd, weights, prepared=None, keep_cache=False):
    """Both directions of the bidirectional layer: LSTM plus output projection.

    x_fwd and x_bwd are (T, B, d) blocks, the second direction's input
    already reversed by the caller; weights holds the two directions'
    dicts, and prepared their prepare_weights, which is built from
    weights when not given. Returns ((y_fwd, y_bwd), cache); y_t = wy @
    h_t + by (identity activation) in each direction, and the cache,
    which direction_backward needs, is None unless keep_cache is set.
    """
    if prepared is None:
        prepared = prepare_weights(weights)
    hs, cache = lstm_sequence_forward((x_fwd, x_bwd), prepared, keep_cache)
    ys = tuple(
        row_matmul(hs[:, d], w["wy"].T) + w["by"] for d, w in enumerate(weights)
    )
    return ys, cache


def direction_backward(d_y_fwd, d_y_bwd, cache, weights):
    """Gradients for direction_forward, both directions; consumes the cache.

    Returns ((grads_fwd, grads_bwd), (d_x_fwd, d_x_bwd)), each grads dict
    keyed like its weights dict.
    """
    hs = cache["h"]
    d_ys = (d_y_fwd, d_y_bwd)
    grads = [
        {"wy": row_outer_sum(d_y, hs[:, d]), "by": row_sum(d_y)}
        for d, d_y in enumerate(d_ys)
    ]
    # lazy, so each (T, B, n) product lives only until the BPTT copies it
    d_hs = (row_matmul(d_y, w["wy"]) for d_y, w in zip(d_ys, weights))
    results = lstm_sequence_backward(d_hs, cache, weights)
    d_xs = []
    for grad, (d_wx, d_wh, d_b, d_x) in zip(grads, results):
        grad.update(wx=d_wx, wh=d_wh, b=d_b)
        d_xs.append(d_x)
    return tuple(grads), tuple(d_xs)
