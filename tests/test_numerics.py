"""Unit tests for the numeric kernels, LSTM, loss, and optimizer."""

import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sentbound.errors import ContractError, NumericError
from sentbound.numerics import (
    RmsPropState,
    dropout_apply,
    glorot_init,
    maxpool1d_same,
    rmsprop_step,
    softmax,
    weighted_cross_entropy,
)
from sentbound.numerics.kernels import conv1d_backward, conv_windows, maxpool1d_backward
from sentbound.numerics import Hyperparams, NetBatch, NetInput, SequenceNet
from sentbound.numerics.network import flat_vector, live_dropout
from sentbound.numerics.optim import STEP_CHUNK
from sentbound.numerics import lstm as lstm_ops
from sentbound.numerics.lstm import (
    GATES,
    MIN_GEMM_ROWS,
    direction_backward,
    direction_forward,
    prepare_weights,
    projection_chunks,
)

from kernel_reference import (
    conv1d_same_forward,
    dense_forward,
    maxpool1d_backward_reference,
    maxpool1d_same_reference,
    per_sequence_dropout_reference,
    rmsprop_reference_step,
)
from lstm_reference import bilstm_forward, direction_outputs, fuse_gates, lstm_cell_step


class TestDenseForward:
    def test_identity_passthrough(self):
        npt.assert_array_equal(
            dense_forward([1.0, 0.0], np.eye(2), np.zeros(2), "identity"), [1.0, 0.0]
        )

    def test_sigmoid_at_zero(self):
        npt.assert_allclose(
            dense_forward([0.0], [[0.0]], [0.0], "sigmoid"), [0.5], atol=1e-15
        )

    def test_tanh_substitution(self):
        out = dense_forward([1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0], "tanh")
        npt.assert_allclose(out, [np.tanh(2.0)] * 2, atol=1e-12)
        npt.assert_allclose(out, [0.9640, 0.9640], atol=1e-4)

    def test_relu(self):
        npt.assert_array_equal(
            dense_forward([1.0], [[1.0, -1.0]], [0.0, 0.0], "relu"), [1.0, 0.0]
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            dense_forward([1.0, 2.0], [[1.0]], [0.0])

    def test_unknown_activation(self):
        with pytest.raises(ContractError):
            dense_forward([1.0], [[1.0]], [0.0], "gelu")


class TestSoftmax:
    def test_symmetry(self):
        npt.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_direct_substitution(self):
        npt.assert_allclose(softmax([0.0, math.log(3.0)]), [0.25, 0.75], atol=1e-12)

    def test_shift_invariance_no_overflow(self):
        out = softmax([1000.0, 1000.0])
        assert np.all(np.isfinite(out))
        npt.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            softmax([np.inf, 0.0])

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            softmax([1.0])

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(2, 6)),
            elements=st.floats(-1000, 1000),
        )
    )
    def test_rows_sum_to_one(self, z):
        npt.assert_allclose(softmax(z).sum(axis=-1), 1.0, atol=1e-12)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(2, 6)),
            elements=st.floats(-15, 15),
        )
    )
    def test_open_interval_within_float_range(self, z):
        # exact saturation to 0/1 only happens for logit spreads beyond ~36
        rows = softmax(z)
        assert np.all(rows > 0) and np.all(rows < 1)


class TestConv1d:
    def test_identity_single_element(self):
        out = conv1d_same_forward([[5.0]], [[1.0]], [0.0], "identity")
        npt.assert_array_equal(out, [[5.0]])

    def test_hand_convolution_with_padding(self):
        out = conv1d_same_forward(
            [[1.0], [2.0], [3.0]], [[1.0, 1.0, 1.0]], [0.0], "identity"
        )
        npt.assert_array_equal(out, [[3.0], [6.0], [5.0]])

    def test_padding_is_floor_half_width(self):
        # one row, width-7 windows: the row sits after exactly 3 zeros
        win = conv_windows(np.array([[9.0]]), 7)
        npt.assert_array_equal(win, [[0, 0, 0, 9.0, 0, 0, 0]])

    def test_even_width_keeps_length(self):
        out = conv1d_same_forward(
            [[1.0], [2.0], [3.0], [4.0]], [[1.0, 1.0]], [0.0], "identity"
        )
        npt.assert_array_equal(out, [[1.0], [3.0], [5.0], [7.0]])

    @pytest.mark.parametrize("m", [1, 2, 7, 50])
    @pytest.mark.parametrize("h_c", [1, 2, 3, 7])
    def test_length_preserved(self, m, h_c, rng):
        x = rng.standard_normal((m, 3))
        filters = rng.standard_normal((4, h_c * 3))
        out = conv1d_same_forward(x, filters, np.zeros(4))
        assert out.shape == (m, 4)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("h_c", [1, 4, 5])
    def test_backward_without_input_grad_skips_only_d_x(self, h_c, rng):
        """Bit for bit the same weight and bias gradients, and no d_x."""
        x = rng.standard_normal((7, 3, 5))
        filters = rng.standard_normal((4, h_c * 5))
        d_out = rng.standard_normal((7, 3, 4))
        want_w, want_b, want_x = conv1d_backward(d_out, x, filters, input_grad=True)
        assert want_x.shape == x.shape
        d_w, d_b, d_x = conv1d_backward(d_out, x, filters, input_grad=False)
        npt.assert_array_equal(d_w, want_w)
        npt.assert_array_equal(d_b, want_b)
        assert d_x is None


class TestMaxPool:
    def test_hand_evaluation(self):
        col = np.array([[1.0], [5.0], [2.0], [4.0], [3.0]])
        npt.assert_array_equal(
            maxpool1d_same(col, 3), [[5.0], [5.0], [5.0], [4.0], [4.0]]
        )

    def test_window_one_is_identity(self, rng):
        x = rng.standard_normal((6, 3))
        npt.assert_array_equal(maxpool1d_same(x, 1), x)

    def test_clipped_window(self):
        npt.assert_array_equal(
            maxpool1d_same(np.array([[-1.0], [-2.0]]), 3), [[-1.0], [-1.0]]
        )

    @pytest.mark.parametrize("m", [1, 2, 7, 50])
    def test_length_preserved(self, m, rng):
        x = rng.standard_normal((m, 4))
        assert maxpool1d_same(x, 3).shape == (m, 4)

    def test_bad_window(self):
        with pytest.raises(ContractError):
            maxpool1d_same(np.zeros((2, 2)), 0)

    @pytest.mark.parametrize("h_m", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("shape", [(1, 3), (9, 4), (6, 3, 5)])
    def test_matches_the_sliding_window_reference_bit_for_bit(self, h_m, shape, rng):
        """Values and argrows equal the windowed max and argmax, on ties
        (few distinct values) and -inf rows (padding) included."""
        c = rng.integers(-2, 3, size=shape).astype(np.float64) / 3.0
        c[rng.random(shape[:1]) < 0.3] = -np.inf
        want, want_arg = maxpool1d_same_reference(c, h_m)
        got, got_arg = maxpool1d_same(c, h_m, return_argmax=True)
        npt.assert_array_equal(got, want)
        npt.assert_array_equal(got_arg, want_arg)
        npt.assert_array_equal(maxpool1d_same(c, h_m), want)

    def test_nan_propagates(self):
        out = maxpool1d_same(np.array([[1.0], [np.nan], [2.0], [0.0], [0.0]]), 3)
        assert np.isnan(out[:3, 0]).all() and out[4, 0] == 0.0

    @pytest.mark.parametrize("h_m", [1, 3, 4, 7])
    @pytest.mark.parametrize("shape", [(1, 3), (9, 4), (12, 3, 5)])
    def test_backward_matches_the_add_at_reference_bit_for_bit(self, h_m, shape, rng):
        """Rows that win several windows sum gradients spread over 16
        orders of magnitude, so any other order of addition shows."""
        c = rng.integers(-2, 3, size=shape).astype(np.float64) / 3.0
        c[rng.random(shape[:1]) < 0.3] = -np.inf
        _, argrow = maxpool1d_same(c, h_m, return_argmax=True)
        d_out = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        want = maxpool1d_backward_reference(d_out, argrow)
        npt.assert_array_equal(maxpool1d_backward(d_out, argrow), want)


def zero_direction_weights(n_r, d_in):
    w = {}
    for gate in GATES:
        w[f"wx_{gate}"] = np.zeros((n_r, d_in))
        w[f"wh_{gate}"] = np.zeros((n_r, n_r))
        w[f"b_{gate}"] = np.zeros(n_r)
    w["wy"] = np.zeros((n_r, n_r))
    w["by"] = np.zeros(n_r)
    return w


def random_direction_weights(n_r, d_in, rng, scale=0.4):
    w = zero_direction_weights(n_r, d_in)
    for key, value in w.items():
        w[key] = rng.normal(0.0, scale, size=value.shape)
    return w


class TestLstmCell:
    def test_zero_weights_nonzero_cell(self):
        w = zero_direction_weights(1, 1)
        h, c = lstm_cell_step(np.zeros(1), np.zeros(1), np.array([4.0]), w)
        npt.assert_allclose(c, [2.0], atol=1e-15)  # f=i=0.5, g=0
        npt.assert_allclose(h, [0.5 * np.tanh(2.0)], atol=1e-15)
        npt.assert_allclose(h, [0.4820], atol=1e-4)

    def test_zero_fixed_point(self):
        w = zero_direction_weights(3, 2)
        h, c = lstm_cell_step(np.zeros(2), np.zeros(3), np.zeros(3), w)
        npt.assert_array_equal(h, np.zeros(3))
        npt.assert_array_equal(c, np.zeros(3))

    def test_matches_scalar_oracle(self, rng):
        """Literal per-unit transcription of the six gate equations."""
        n_r, d_in = 3, 2
        w = random_direction_weights(n_r, d_in, rng)
        x = rng.normal(size=d_in)
        h_prev = rng.normal(size=n_r)
        c_prev = rng.normal(size=n_r)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        def gate_pre(name, k):
            acc = w[f"b_{name}"][k]
            for j in range(d_in):
                acc += w[f"wx_{name}"][k, j] * x[j]
            for j in range(n_r):
                acc += w[f"wh_{name}"][k, j] * h_prev[j]
            return acc

        h_exp = np.empty(n_r)
        c_exp = np.empty(n_r)
        for k in range(n_r):
            i_k = sig(gate_pre("i", k))
            f_k = sig(gate_pre("f", k))
            o_k = sig(gate_pre("o", k))
            g_k = math.tanh(gate_pre("g", k))
            c_exp[k] = f_k * c_prev[k] + i_k * g_k
            h_exp[k] = o_k * math.tanh(c_exp[k])
        h, c = lstm_cell_step(x, h_prev, c_prev, w)
        npt.assert_allclose(h, h_exp, atol=1e-12)
        npt.assert_allclose(c, c_exp, atol=1e-12)

    def test_gates_strictly_inside_unit_interval(self, rng):
        n_r, d_in = 4, 3
        w = random_direction_weights(n_r, d_in, rng)
        h = np.zeros(n_r)
        c = np.zeros(n_r)
        for _ in range(20):
            h, c = lstm_cell_step(rng.normal(size=d_in), h, c, w)
            assert np.all(np.isfinite(h)) and np.all(np.isfinite(c))
            assert np.all(np.abs(h) < 1.0)  # |h| = |o| * |tanh(c)| < 1

    def test_fused_sequence_matches_stepwise(self, rng):
        n_r, d_in, m = 4, 3, 11
        w = random_direction_weights(n_r, d_in, rng)
        x = rng.normal(size=(m, d_in))
        _, cache = direction_forward(x[:, None], prepared=prepare_weights([fuse_gates(w)]),
                                     keep_cache=True)
        h = np.zeros(n_r)
        c = np.zeros(n_r)
        for t in range(m):
            h, c = lstm_cell_step(x[t], h, c, w)
            npt.assert_allclose(cache["h"][t, 0, 0], h, atol=1e-12)


def lockstep_bilstm(x, fwd, bwd):
    """The library's lockstep pass over one (m, d) sequence, as a block of one."""
    block = x[:, None, :]
    (y_f, y_b), _ = direction_forward(
        block, block[::-1], prepared=prepare_weights([fuse_gates(fwd), fuse_gates(bwd)]))
    return (y_f + y_b[::-1])[:, 0]


class TestBilstm:
    def test_single_element_is_sum_of_both_steps(self, rng):
        n_r, d_in = 3, 2
        fwd = random_direction_weights(n_r, d_in, rng)
        bwd = random_direction_weights(n_r, d_in, rng)
        x = rng.normal(size=(1, d_in))
        out = lockstep_bilstm(x, fwd, bwd)

        def one_step(w):
            h, _ = lstm_cell_step(x[0], np.zeros(n_r), np.zeros(n_r), w)
            return w["wy"] @ h + w["by"]

        npt.assert_allclose(out[0], one_step(fwd) + one_step(bwd), atol=1e-12)

    def test_palindrome_symmetry(self, rng):
        n_r, d_in = 3, 2
        w = random_direction_weights(n_r, d_in, rng)
        half = rng.normal(size=(3, d_in))
        x = np.concatenate([half, half[::-1]], axis=0)  # palindromic rows
        out = lockstep_bilstm(x, w, w)
        npt.assert_allclose(out, out[::-1], atol=1e-12)

    def test_zero_weights_zero_output(self):
        fwd = zero_direction_weights(3, 2)
        bwd = zero_direction_weights(3, 2)
        out = lockstep_bilstm(np.ones((5, 2)), fwd, bwd)
        npt.assert_array_equal(out, np.zeros((5, 3)))

    @pytest.mark.parametrize("m", [1, 2, 7, 50])
    def test_length_preserved(self, m, rng):
        fwd = random_direction_weights(3, 2, rng)
        bwd = random_direction_weights(3, 2, rng)
        assert lockstep_bilstm(rng.normal(size=(m, 2)), fwd, bwd).shape == (m, 3)


class TestBlockLstm:
    """Time-major blocks against the per-sequence oracles, row by row."""

    LENGTHS = (7, 3, 1)

    def test_direction_rows_match_stepwise_oracle(self, rng):
        n_r, d_in = 4, 3
        w = random_direction_weights(n_r, d_in, rng)
        partner = random_direction_weights(n_r, d_in, rng)
        block = rng.normal(size=(max(self.LENGTHS), len(self.LENGTHS), d_in))
        (y, _), _ = direction_forward(
            block, rng.normal(size=block.shape),
            prepared=prepare_weights([fuse_gates(w), fuse_gates(partner)]),
        )
        for b, m in enumerate(self.LENGTHS):
            h, c = np.zeros(n_r), np.zeros(n_r)
            for t in range(m):
                h, c = lstm_cell_step(block[t, b], h, c, w)
                npt.assert_allclose(y[t, b], w["wy"] @ h + w["by"], atol=1e-12)

    def test_ragged_lockstep_rows_match_oracle_in_both_directions(self, rng):
        """Each row's live prefix forward, and reversed for the second
        direction; padded steps hold noise and must not matter."""
        n_r, d_in = 4, 3
        fwd = random_direction_weights(n_r, d_in, rng)
        bwd = random_direction_weights(n_r, d_in, rng)
        shape = (max(self.LENGTHS), len(self.LENGTHS), d_in)
        block, reversed_block = rng.normal(size=shape), rng.normal(size=shape)
        seqs = [rng.normal(size=(m, d_in)) for m in self.LENGTHS]
        for b, seq in enumerate(seqs):
            block[: len(seq), b] = seq
            reversed_block[: len(seq), b] = seq[::-1]
        (y_f, y_b), _ = direction_forward(
            block, reversed_block, prepared=prepare_weights([fuse_gates(fwd), fuse_gates(bwd)])
        )
        for b, seq in enumerate(seqs):
            npt.assert_allclose(y_f[: len(seq), b], direction_outputs(seq, fwd), atol=1e-12)
            npt.assert_allclose(
                y_b[: len(seq), b], direction_outputs(seq[::-1], bwd), atol=1e-12
            )

    def test_direction_does_not_depend_on_its_partner(self, rng):
        """A direction's outputs, gradients and input gradient are bit for
        bit the same whatever runs beside it in the lockstep loop."""
        n_r, d_in = 4, 3
        w = fuse_gates(random_direction_weights(n_r, d_in, rng))
        shape = (max(self.LENGTHS), len(self.LENGTHS), d_in)
        x, d_y = rng.normal(size=shape), rng.normal(size=shape[:2] + (n_r,))
        runs = []
        for _ in range(2):
            partner = fuse_gates(random_direction_weights(n_r, d_in, rng))
            other = rng.normal(size=shape)
            (y, y_other), cache = direction_forward(
                x, other, prepared=prepare_weights([w, partner]), keep_cache=True)
            (grads, _), (d_x, _) = direction_backward(
                d_y, rng.normal(size=y_other.shape), cache
            )
            runs.append((y, grads, d_x))
        (y0, g0, dx0), (y1, g1, dx1) = runs
        npt.assert_array_equal(y0, y1)
        npt.assert_array_equal(dx0, dx1)
        for key in g0:
            npt.assert_array_equal(g0[key], g1[key])

    def test_bidirectional_rows_match_bilstm_oracle(self, rng):
        net = SequenceNet("rnn", Hyperparams(word_dim=2, tag_dim=2, rec_units=3,
                                             dropout_rate=0.5),
                          word_vocab=6, tag_vocab=4)
        params = net.init_params(rng)
        inputs = [NetInput(word_ids=rng.integers(0, 6, size=m),
                           tag_ids=rng.integers(0, 4, size=m)) for m in self.LENGTHS]
        probs, _ = net.forward(params, NetBatch.stack(inputs, self.LENGTHS))
        weights = {
            d: {k[len(d) + 1 :]: v for k, v in params.items() if k.startswith(d + "_")}
            for d in ("fwd", "bwd")
        }
        for b, inp in enumerate(inputs):
            x = np.concatenate(
                [params["emb_word"][inp.word_ids], params["emb_tag"][inp.tag_ids]], axis=1
            )
            y = lockstep_bilstm(x, weights["fwd"], weights["bwd"])
            want = softmax(y @ params["out_w"] + params["out_b"])
            npt.assert_allclose(probs[: len(x), b], want, atol=1e-12)


class TestProjectionChunks:
    """An inference pass projects its inputs a chunk of steps at a time."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize("steps_per_chunk", [7, 5, 2, 1, 0.5])
    def test_chunks_tile_the_steps_with_enough_gemm_rows(self, rows, steps_per_chunk):
        """The chunks tile [0, T) in order; all but the last hold the
        steps PROJECTION_BYTES buys, or the fewest with MIN_GEMM_ROWS
        rows; the last has at least MIN_GEMM_ROWS rows unless it is the
        whole block, and a shorter tail has joined it."""
        step_bytes = int(lstm_ops.PROJECTION_BYTES / steps_per_chunk)
        size = max(lstm_ops.PROJECTION_BYTES // step_bytes, -(-MIN_GEMM_ROWS // rows))
        for steps in range(1, 3 * size + 4):
            chunks = projection_chunks(steps, rows, step_bytes)
            starts, stops = zip(*chunks)
            assert starts[0] == 0 and stops[-1] == steps
            assert list(starts[1:]) == list(stops[:-1])
            assert all(stop - start == size for start, stop in chunks[:-1])
            last = stops[-1] - starts[-1]
            assert len(chunks) == 1 or last * rows >= MIN_GEMM_ROWS
            assert last < size or (last - size) * rows < MIN_GEMM_ROWS

    def test_a_short_tail_joins_the_chunk_before_it(self):
        step = lstm_ops.PROJECTION_BYTES // 4  # four steps a chunk
        assert projection_chunks(9, 1, step) == [(0, 4), (4, 9)]
        assert projection_chunks(10, 2, step) == [(0, 4), (4, 8), (8, 10)]
        assert projection_chunks(9, 4, step) == [(0, 4), (4, 8), (8, 9)]
        assert projection_chunks(3, 1, step) == [(0, 3)]

    @pytest.mark.parametrize("d_in, n", [(100, 100), (60, 100), (8, 100), (16, 16),
                                         (13, 16), (4, 4)])
    def test_chunked_gemm_rows_equal_the_whole_gemm_rows(self, d_in, n, rng):
        """The premise of chunked inference, checked on the BLAS that runs
        the tests: the rows of a product of MIN_GEMM_ROWS or more rows with
        prepare_weights' F-ordered wx_t are bit for bit those of the
        whole product."""
        [wx_t], *_ = prepare_weights([fuse_gates(random_direction_weights(n, d_in, rng))])
        assert wx_t.flags.f_contiguous and not wx_t.flags.c_contiguous
        x = rng.normal(size=(300, d_in))
        whole = x @ wx_t
        for size in range(MIN_GEMM_ROWS, MIN_GEMM_ROWS + 6):
            for start in range(0, len(x) - size + 1, size):
                npt.assert_array_equal(x[start : start + size] @ wx_t,
                                       whole[start : start + size])


class TestDropout:
    def test_rate_zero_identity(self, rng):
        x = rng.standard_normal((4, 5))
        out, mask = dropout_apply(x, 0.0, None)
        npt.assert_array_equal(out, x)
        npt.assert_array_equal(mask, np.ones_like(x))

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(42)
        x = np.ones((1000, 100))
        out, mask = dropout_apply(x, 0.5, rng)
        assert 0.98 <= out.mean() <= 1.02
        npt.assert_array_equal(out, x * mask)
        assert set(np.unique(mask)) == {0.0, 2.0}

    def test_rate_one_rejected(self):
        with pytest.raises(ContractError):
            dropout_apply(np.ones((2, 2)), 1.0, np.random.default_rng(0))

    def test_train_needs_rng(self):
        with pytest.raises(ContractError):
            dropout_apply(np.ones((2, 2)), 0.5, None)

    @pytest.mark.parametrize("rate", [0.0, 0.4])
    @pytest.mark.parametrize("lengths", [(9, 4, 1), (1, 6), (5, 5), (3,)])
    def test_block_draw_equals_one_draw_per_sequence(self, rate, lengths, rng):
        """Output, mask and the rng's next draw match dropout drawn one
        sequence at a time, on ragged and on full blocks."""
        h = rng.standard_normal((max(lengths), len(lengths), 5))
        live = np.arange(h.shape[0])[:, None] < np.array(lengths)
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        out, mask = live_dropout(h, live, rate, ours)
        want_out, want_mask = per_sequence_dropout_reference(h, lengths, rate, theirs)
        npt.assert_array_equal(out, want_out)
        npt.assert_array_equal(mask, want_mask)
        assert ours.random() == theirs.random()

    def test_block_draw_holds_one_gathered_copy_beside_two_blocks(self, rng):
        """The dropped rows are scattered and freed before the mask block
        is made: on a (60, 4, 100) block the traced peak stays under two
        blocks and 1.5 live-row copies (606 kB). Holding the dropped rows
        and the mask block at once peaked at 687 kB."""
        lengths = np.array([60, 55, 40, 30])
        h = rng.standard_normal((60, 4, 100))
        live = np.arange(60)[:, None] < lengths
        live_bytes = int(lengths.sum()) * h.shape[2] * h.itemsize
        live_dropout(h, live, 0.5, np.random.default_rng(1))  # warm numpy's caches
        tracemalloc.start()
        try:
            live_dropout(h, live, 0.5, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * h.nbytes + 1.5 * live_bytes, f"traced peak {peak} bytes"


class TestWeightedCrossEntropy:
    def test_direct_substitution(self):
        y_true = np.array([[0.0, 1.0]])
        y_pred = np.array([[0.2, 0.8]])
        loss, _ = weighted_cross_entropy(y_true, y_pred, [1.0, 5.0], [True])
        assert abs(loss - (-5.0 * math.log(0.8))) < 1e-9
        assert abs(loss - 1.1157) < 1e-4

    def test_perfect_prediction_zero_loss(self):
        loss, _ = weighted_cross_entropy([[0.0, 1.0]], [[0.0, 1.0]], [1.0, 5.0], [True])
        assert loss == 0.0

    def test_saturated_wrong_prediction_is_clamped_finite(self):
        loss, _ = weighted_cross_entropy([[0.0, 1.0]], [[1.0, 0.0]], [1.0, 5.0], [True])
        assert np.isfinite(loss)
        assert abs(loss - (-5.0 * math.log(1e-12))) < 1e-6

    def test_all_masked_is_empty_sum(self):
        y_true = np.array([[1.0, 0.0], [0.0, 1.0]])
        y_pred = np.array([[0.4, 0.6], [0.9, 0.1]])
        loss, d = weighted_cross_entropy(y_true, y_pred, [2.0, 3.0], mask=[False, False])
        assert loss == 0.0
        npt.assert_array_equal(d, np.zeros_like(y_pred))

    def test_gradient_formula_and_masking(self):
        y_true = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        y_pred = np.array([[0.7, 0.3], [0.6, 0.4], [0.2, 0.8]])
        cw = np.array([0.5, 4.0])
        _, d = weighted_cross_entropy(y_true, y_pred, cw, mask=[True, True, False])
        npt.assert_allclose(d[0], 0.5 * (y_pred[0] - y_true[0]), atol=1e-15)
        npt.assert_allclose(d[1], 4.0 * (y_pred[1] - y_true[1]), atol=1e-15)
        npt.assert_array_equal(d[2], [0.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            weighted_cross_entropy([[1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]], [1, 1], [True])


class TestParamLayout:
    """Params, grads and the RMSProp accumulator each live in one vector."""

    @staticmethod
    def net():
        return SequenceNet("rcnn", Hyperparams(word_dim=2, tag_dim=2, conv_filters=4,
                                               rec_units=3),
                           word_vocab=6, tag_vocab=4)

    def test_params_grads_and_r_are_views_of_one_vector(self, rng):
        net = self.net()
        params = net.init_params(rng)
        assert list(params) == list(net.param_shapes())
        inp = NetInput(word_ids=rng.integers(0, 6, size=5), tag_ids=rng.integers(0, 4, size=5),
                       label01=rng.integers(0, 2, size=5))
        _, grad, _ = net.loss_and_grads(params, NetBatch.stack([inp], [5]), np.ones(2),
                                        rng=rng)
        grads = net.views(grad)
        assert list(grads) == list(params)
        theta = flat_vector(params)
        assert theta.shape == grad.shape == (net.size,) and grad.flags.c_contiguous
        for name in params:
            assert np.shares_memory(params[name], theta)
            assert np.shares_memory(grads[name], grad)
        state = RmsPropState(theta)
        assert state.r.shape == theta.shape and state.r.flags.c_contiguous
        for vector in (grad, state.r, state.scratch):
            assert not np.shares_memory(vector, theta)
        with pytest.raises(ContractError):
            flat_vector({name: value.copy() for name, value in params.items()})

    def test_fused_gate_weights_are_views(self, rng):
        """Each direction's wx, wh and b reach the LSTM as views of the
        vector that equal the gate blocks concatenated in GATES order."""
        net = self.net()
        params = net.init_params(rng)
        theta = flat_vector(params)
        for direction, fused in zip(("fwd", "bwd"), net.lstm_weights(theta)):
            gates = {k[len(direction) + 1 :]: v for k, v in params.items()
                     if k.startswith(direction + "_")}
            for key, value in fuse_gates(gates).items():
                assert fused[key].base is theta
                npt.assert_array_equal(fused[key], value)
            fused["wh"][1, 0] = 7.0  # the first gate block's second row
            assert params[f"{direction}_wh_i"][1, 0] == 7.0

    @pytest.mark.parametrize("word_dim", [5, 50])
    def test_a_dense_net_reads_no_table_width(self, rng, word_dim):
        """A table's width counts only where the table exists: a dense rcnn
        is 13 wide whatever hp.word_dim says, and its pass runs."""
        net = SequenceNet("rcnn", Hyperparams(word_dim=word_dim, conv_filters=4, rec_units=3),
                          dense_dim=13)
        assert (net.input_dim, net.word_dim, net.tag_dim) == (13, 0, 0)
        params = net.init_params(rng)
        assert params["conv_w"].shape == (4, 7 * 13)
        inp = NetInput(dense=rng.standard_normal((6, 13)))
        probs, _ = net.forward(params, NetBatch.stack([inp], [6]))
        npt.assert_allclose(probs.sum(axis=-1), 1.0)

    def test_dense_features_cannot_be_mixed_with_embeddings(self):
        with pytest.raises(ContractError, match="cannot be mixed"):
            SequenceNet("rcnn", Hyperparams(), word_vocab=5, dense_dim=13)


class TestRmsProp:
    def test_single_step_substitution(self):
        theta = np.array([1.0])
        state = RmsPropState(theta, gamma=0.9, eta=0.001, epsilon=1e-8)
        rmsprop_step(theta, np.array([2.0]), state)
        npt.assert_allclose(state.r, [0.4], atol=1e-15)
        expected = 1.0 - 0.001 * 2.0 / (math.sqrt(0.4) + 1e-8)
        assert abs(theta[0] - expected) < 1e-9
        assert abs(theta[0] - 0.996838) < 1e-6

    def test_zero_gradient_decays_r_keeps_theta(self):
        theta = np.array([3.0])
        state = RmsPropState(theta, gamma=0.9, eta=0.001, epsilon=1e-8)
        state.r[0] = 1.0
        rmsprop_step(theta, np.array([0.0]), state)
        assert theta[0] == 3.0
        npt.assert_allclose(state.r, [0.9], atol=1e-15)

    def test_two_steps_accumulator(self):
        theta = np.array([0.0])
        state = RmsPropState(theta, gamma=0.9, eta=0.001, epsilon=1e-8)
        rmsprop_step(theta, np.array([1.0]), state)
        rmsprop_step(theta, np.array([1.0]), state)
        assert abs(state.r[0] - 0.19) < 1e-12

    def test_accumulator_nonnegative_and_decaying_without_gradient(self, rng):
        theta = rng.standard_normal(9)
        state = RmsPropState(theta)
        rmsprop_step(theta, rng.standard_normal(9), state)
        assert np.all(state.r >= 0)
        previous = state.r.copy()
        for _ in range(5):
            rmsprop_step(theta, np.zeros(9), state)
            assert np.all(state.r <= previous)
            previous = state.r.copy()

    def test_invalid_constants(self):
        theta = np.zeros(1)
        with pytest.raises(ContractError):
            RmsPropState(theta, gamma=1.0)
        with pytest.raises(ContractError):
            RmsPropState(theta, eta=0.0)

    @pytest.mark.parametrize("name", ["eta", "epsilon"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_constants(self, name, value):
        with pytest.raises(ContractError, match="positive and finite"):
            RmsPropState(np.zeros(1), **{name: value})

    def test_flat_step_matches_the_per_array_formula_bit_for_bit(self, rng):
        """Three whole-vector steps on an rcnn's parameters give, name by
        name, exactly the parameters and accumulators of the per-array
        update."""
        net = SequenceNet("rcnn", Hyperparams(word_dim=2, tag_dim=2, conv_filters=4,
                                              rec_units=3),
                          word_vocab=6, tag_vocab=4)
        params = net.init_params(rng)
        want = {name: value.copy() for name, value in params.items()}
        want_r = {name: np.zeros_like(value) for name, value in params.items()}
        theta = flat_vector(params)
        state = RmsPropState(theta, gamma=0.9, eta=0.01, epsilon=1e-8)
        for _ in range(3):
            grads = net.views(rng.normal(scale=3.0, size=net.size))
            rmsprop_reference_step(want, grads, want_r, 0.9, 0.01, 1e-8)
            rmsprop_step(theta, flat_vector(grads), state)
        r = net.views(state.r)
        for name, value in params.items():
            npt.assert_array_equal(value, want[name])
            npt.assert_array_equal(r[name], want_r[name])

    def test_a_vector_of_several_chunks_steps_like_the_formula(self, rng):
        """Past STEP_CHUNK elements the step runs chunk by chunk, the last
        one partial, and still matches the formula bit for bit."""
        theta = rng.normal(size=2 * STEP_CHUNK + 5)
        want, want_r = {"w": theta.copy()}, {"w": np.zeros_like(theta)}
        state = RmsPropState(theta, gamma=0.9, eta=0.01, epsilon=1e-8)
        for _ in range(2):
            grad = rng.normal(size=theta.size)
            rmsprop_reference_step(want, {"w": grad}, want_r, 0.9, 0.01, 1e-8)
            rmsprop_step(theta, grad.copy(), state)
        npt.assert_array_equal(theta, want["w"])
        npt.assert_array_equal(state.r, want_r["w"])


class TestGlorotInit:
    def test_deterministic_per_seed(self):
        a = glorot_init(5, 7, np.random.default_rng(3))
        b = glorot_init(5, 7, np.random.default_rng(3))
        npt.assert_array_equal(a, b)

    def test_sample_variance_matches_fan_scaling(self):
        w = glorot_init(1000, 1000, np.random.default_rng(0))
        target = 2.0 / 2000.0
        assert abs(w.var() - target) < 0.1 * target

    def test_degenerate_shape(self):
        w = glorot_init(1, 1, np.random.default_rng(0))
        assert w.shape == (1, 1) and np.isfinite(w[0, 0])

    def test_bad_shape(self):
        with pytest.raises(ContractError):
            glorot_init(0, 3, np.random.default_rng(0))


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lstm_states_finite_for_bounded_inputs(seed):
    rng = np.random.default_rng(seed)
    w = random_direction_weights(3, 2, rng, scale=1.0)
    h = np.zeros(3)
    c = np.zeros(3)
    for _ in range(10):
        h, c = lstm_cell_step(rng.uniform(-5, 5, size=2), h, c, w)
    assert np.all(np.isfinite(h)) and np.all(np.isfinite(c))
