"""Fused LSTM passes over time-major blocks, every direction in lockstep.

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

The bidirectional layer of a net has D = 2 directions, independently
parameterised LSTMs over two blocks of the same shape; SequenceNet
feeds the second one each row's reversed live prefix and sums the two
projected outputs. Nets that predict the same texts with LSTMs of one
width run together, D = 2 x nets. The recurrences are independent, so
one Python time-step loop advances them all, on a gate block of
(steps + 1, 5, D, B, n). Slots i, f, o and g of a step hold its gate
pre-activations, which become activations in place; slot 4 holds the
cell state entering the step (+0.0 at step 0), and the step writes c_t
into the next step's slot 4. So [i, f] * [g, c] is one product. A
pass builds each step's views of its buffers once, before its loop, so a
step, whose one stacked (D, B, n) @ (D, n, 4n) matmul fills a buffer
too, builds no view and allocates no array; so does a BPTT step, whose
gate gradients reach the recurrent GEMM through one (D, B, 4n) buffer
and whose products land in buffers it reuses. Each direction's input
projection, recurrent GEMM, output projection and gradient epilogue
keep the shapes of a lone direction, so a direction's outputs and
gradients do not depend on what runs beside it. direction_forward runs
that loop and then the D output projections as one stacked matmul;
direction_backward takes the projections' gradients and then BPTT.

Every pass reads the weights in one prepared form (prepare_weights),
which SequenceNet.prepare builds for training blocks and requests alike.
The form is a pure function of the weight dicts, so a caller whose
weights do not change builds it once; its first 2k directions (each part
sliced [:2k]) are the prepared form of those directions. A pass keeps
its backward state only when asked, and its cache then carries the
form's weight dicts for direction_backward. A training pass projects the
inputs of all T steps at once, since BPTT reads every step's gates, and
its cache holds the gate block, tanh(c) and h; BPTT reads c_{t-1} from
slot 4. An inference pass holds the h history its outputs need, tanh(c)
in a one-step buffer, and the gate block of a chunk of steps, whose
first slot 4 takes the last chunk's final c: it projects its inputs
PROJECTION_BYTES' worth of steps at a time (projection_chunks) and
returns no cache. A chunk's GEMM has at least
MIN_GEMM_ROWS rows, as a shorter tail joins the chunk before it: at 4
rows and more, the rows of a GEMM with the F-ordered wx_t equal the same
rows of the whole-T GEMM bit for bit (with numpy 2.4's OpenBLAS 0.3.31,
tested in test_numerics), while a 1-row product takes another summation
order.
"""

from itertools import repeat

import numpy as np

from .kernels import row_matmul, row_outer_sum, row_sum

GATES = ("i", "f", "o", "g")
# Bytes of gate pre-activations an inference pass projects at once: 40
# steps of a request to both default-size nets (D = 4, B = 1, n = 100),
# against 2.56 MB for all steps of a 200-token one. Smaller chunks cost
# time, as each GEMM packs its weights again. The chunk's gate block
# holds a fifth slot, the cell state, and one step more: over 5/4 of this.
PROJECTION_BYTES = 1 << 19
MIN_GEMM_ROWS = 4  # of a projection chunk, unless the block has fewer


def prepare_weights(weights):
    """What a pass reads of the D directions' weight dicts:
    (wx_t, b, wh_t, wy_t, by, weights).

    wx_t holds each direction's input weights transposed, (d_in, 4n), b
    its bias, (4n,), and wh_t the D recurrent weights transposed and
    stacked, (D, n, 4n). The i, f and o columns of all three are negated:
    negated weights give exactly the negated sums, so those rows come out
    as -z and their sigmoid 1 / (1 + exp(-z)), as in kernels.sigmoid,
    needs no negation step. wy_t and by stack the output projections,
    each wy transposed, (D, n, n), and each by, (D, 1, n); the dicts,
    which come last, are for direction_backward.
    """
    n = weights[0]["wh"].shape[1]
    sign = np.ones(4 * n)
    sign[: 3 * n] = -1.0
    return (
        [w["wx"].T * sign for w in weights],
        [w["b"] * sign for w in weights],
        np.stack([w["wh"] for w in weights]).transpose(0, 2, 1) * sign,
        np.stack([w["wy"] for w in weights]).transpose(0, 2, 1),
        np.stack([w["by"] for w in weights])[:, None],
        list(weights),
    )


def projection_chunks(steps, rows, step_bytes):
    """The (start, stop) step ranges whose inputs an inference pass
    projects at once: PROJECTION_BYTES' worth of steps of step_bytes
    each, but at least MIN_GEMM_ROWS GEMM rows (steps x rows) each; a
    shorter tail joins the chunk before it."""
    size = max(PROJECTION_BYTES // step_bytes, -(-MIN_GEMM_ROWS // rows))
    starts = list(range(0, steps, size))
    if len(starts) > 1 and (steps - starts[-1]) * rows < MIN_GEMM_ROWS:
        starts.pop()
    return list(zip(starts, starts[1:] + [steps]))


def direction_forward(*xs, prepared, keep_cache=False):
    """The bidirectional layers of one or more nets: LSTM plus output
    projection, every direction in one lockstep loop.

    xs are D (T, B, d_in) blocks of one (T, B), two per net: its block,
    then the block its second direction reads, already reversed by the
    caller. prepared is the prepare_weights of the D directions in that
    order (SequenceNet.prepare builds it). Every row starts from a zero
    state. Returns (ys, cache): ys, (D, T, B, n), holds each direction's
    y_t = wy @ h_t + by (identity activation). The cache, which
    direction_backward needs for one net's pair and which carries the
    prepared form's weight dicts, is kept only when keep_cache is set;
    otherwise it is None, tanh(c) lives in a one-step buffer and the
    inputs are projected a chunk of steps at a time (projection_chunks).
    """
    wx_t, b, wh_t, wy_t, by, weights = prepared
    steps, rows = xs[0].shape[:2]
    dirs = len(xs)
    n = wh_t.shape[1]
    if keep_cache:
        chunks = [(0, steps)]
    else:
        chunks = projection_chunks(steps, rows, 4 * dirs * rows * n * 8)
    # i, f, o, g and the cell state entering the step (module docstring)
    gates = np.empty((max(stop - start for start, stop in chunks) + 1, 5, dirs, rows, n))
    gates[0, 4] = 0.0
    hs = np.empty((steps, dirs, rows, n))
    tanh_c = np.empty((steps if keep_cache else 1, dirs, rows, n))
    rec = np.empty((dirs, rows, 4 * n))
    rec_by_gate = rec.reshape(dirs, rows, 4, n).transpose(2, 0, 1, 3)
    products = np.empty((2, dirs, rows, n))
    i_g, f_c = products
    # Each step's views of the gate block, built once: pre-activations,
    # sigmoid slots, g, [i, f], [g, c], o and the c_t the step writes. The
    # chunk buffer is reused, so they hold for every chunk.
    step_views = list(zip(gates[:, :4], gates[:, :3], gates[:, 3], gates[:, :2],
                          gates[:, 3:], gates[:, 2], gates[1:, 4]))
    h_prev = None
    # A pre-activation z below about -709 makes the sigmoid's exp(-z)
    # overflow to inf, and a huge recurrent sum overflows to +-inf; the
    # gates then saturate at exactly 0 or 1, so neither is a fault. NaN
    # (invalid) still warns, and softmax refuses it.
    with np.errstate(over="ignore"):
        for start, stop in chunks:
            if start:  # the chunk starts from the last chunk's final c
                gates[0, 4] = c_t
            for d, (x, wx_t_d, b_d) in enumerate(zip(xs, wx_t, b)):
                z = row_matmul(x[start:stop], wx_t_d)
                z += b_d
                gates[: stop - start, :4, d] = (
                    z.reshape(stop - start, rows, 4, n).transpose(0, 2, 1, 3)
                )
                del z
            tanh_cs = tanh_c[start:stop] if keep_cache else repeat(tanh_c[0])
            for (pre, s, g, i_f, g_c, o, c_t), tc_t, h_t in zip(
                    step_views, tanh_cs, hs[start:stop]):
                if h_prev is not None:
                    np.matmul(h_prev, wh_t, out=rec)
                    pre += rec_by_gate
                np.exp(s, out=s)
                s += 1.0
                np.divide(1.0, s, out=s)
                np.tanh(g, out=g)
                np.multiply(i_f, g_c, out=products)  # i * g, f * c
                np.add(f_c, i_g, out=c_t)
                np.tanh(c_t, out=tc_t)
                np.multiply(o, tc_t, out=h_t)
                h_prev = h_t
    cache = {"x": list(xs), "gates": gates, "tanh_c": tanh_c, "h": hs,
             "weights": weights} if keep_cache else None
    # An inference pass frees its chunk and step buffers before the projection.
    del gates, tanh_c, rec, rec_by_gate, products, i_g, f_c, step_views, tanh_cs
    del pre, s, g, i_f, g_c, o, c_t, tc_t
    ys = np.matmul(hs.transpose(1, 0, 2, 3).reshape(dirs, steps * rows, n), wy_t)
    ys += by
    return ys.reshape(dirs, steps, rows, n), cache


def _bptt_factors(gates, tanh_c):
    """Turn a forward cache's gate activations into BPTT's per-step factors.

    Works for all steps at once and in place, on the cache's buffers: a
    step's dc scales the i, f and g rows of gates and its dh the o rows,
    giving the gate gradients. Slot 4 of step t holds c_{t-1}, +0.0 at
    step 0; the last step's row of gates only holds c_T. Returns the
    forget gates, by which dc decays, o * (1 - tanh(c)^2) in slot 4's
    place, by which dh feeds dc, and one free (T, D, B, n) buffer.
    """
    i, f, o, g, c = (gates[:-1, k] for k in range(5))
    forget = f.copy()
    free = np.empty_like(forget)
    f *= np.subtract(1.0, f, out=free)
    f *= c
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


def direction_backward(d_y_fwd, d_y_bwd, cache):
    """Gradients for direction_forward, both directions, from those at
    their outputs, (T, B, n) each. Consumes the cache: its buffers are
    overwritten and its entries popped. Returns ((grads_fwd, grads_bwd),
    (d_x_fwd, d_x_bwd)), each grads dict keyed like its weights dict.
    """
    weights, hs = cache.pop("weights"), cache.pop("h")
    d_ys = (d_y_fwd, d_y_bwd)
    grads = [
        {"wy": row_outer_sum(d_y, hs[:, d]), "by": row_sum(d_y)}
        for d, d_y in enumerate(d_ys)
    ]
    # lazy, so each (T, B, n) product lives only until the loop copies it
    d_hs = (row_matmul(d_y, w["wy"]) for d_y, w in zip(d_ys, weights))
    gates = cache.pop("gates")
    wh = np.stack([w["wh"] for w in weights])  # (D, 4n, n)
    forget, o_dtanh, d_h = _bptt_factors(gates, cache.pop("tanh_c"))
    gates = gates[:-1, :4]
    steps, _, dirs, rows, n = gates.shape
    for d, d_h_d in enumerate(d_hs):
        d_h[:, d] = d_h_d
    del d_h_d
    dh, dh_next = np.zeros((dirs, rows, n)), np.empty((dirs, rows, n))
    dc = np.zeros((dirs, rows, n))
    dh_o = np.empty((dirs, rows, n))  # dh * o_dtanh
    # a step's gate gradients as the (D, B, 4n) rows the recurrent GEMM reads
    dz_t = np.empty((dirs, rows, 4 * n))
    dz_t_by_gate = dz_t.reshape(dirs, rows, 4, n).transpose(2, 0, 1, 3)
    for d_h_t, o_dtanh_t, forget_t, dz, d_if, d_o, d_g in zip(
            d_h[::-1], o_dtanh[::-1], forget[::-1],
            gates[::-1], gates[::-1, :2], gates[::-1, 2], gates[::-1, 3]):
        dh += d_h_t
        dc += np.multiply(dh, o_dtanh_t, out=dh_o)
        d_if *= dc
        d_o *= dh
        d_g *= dc
        dz_t_by_gate[...] = dz
        np.matmul(dz_t, wh, out=dh_next)
        dh, dh_next = dh_next, dh
        dc *= forget_t
    del forget, o_dtanh, d_h, wh, dz_t, dz_t_by_gate
    # One direction at a time, on a (T, B, 4n) copy of its gate gradients
    # in the freed buffers' place.
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
