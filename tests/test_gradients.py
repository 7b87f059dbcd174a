"""Finite-difference oracles for the analytic gradients of every variant."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from sentbound import training
from sentbound.errors import ContractError
from sentbound.numerics import Hyperparams, NetBatch, SequenceNet, kernels, network
from sentbound.numerics import lstm as lstm_ops
from sentbound.numerics.loss import weighted_cross_entropy

from kernel_reference import gather_reversal_probs, one_text_block, scatter_input_grads_reference

FD_STEP = 1e-5
REL_TOL = 1e-4
CLASS_WEIGHTS = np.array([0.7, 5.0])


def tiny_net(variant, dropout=0.0):
    hp = Hyperparams(word_dim=4, tag_dim=2, conv_filters=4, conv_width=3, pool_width=3,
                     rec_units=5, mlp_hidden=6, dropout_rate=dropout)
    return SequenceNet(variant, hp, word_vocab=7, tag_vocab=3)


def tiny_problem(variant, seed=7, m=9, dropout=0.0):
    """A one-sequence block of m steps and a loss mask that leaves one row
    out."""
    rng = np.random.default_rng(seed)
    net = tiny_net(variant, dropout)
    params = net.init_params(rng)
    block = one_text_block(
        word_ids=rng.integers(0, 7, size=m),
        tag_ids=rng.integers(0, 3, size=m),
        label01=rng.integers(0, 2, size=m),
    )
    block.label01[0] = 1
    block.label01[1] = 0
    mask = np.ones((m, 1), dtype=bool)
    mask[m // 2] = False
    return net, params, block, mask


def masked_loss(probs, block, mask):
    """Weighted cross-entropy of the block's labels over the rows flagged
    in mask, and its gradient at the logits."""
    return weighted_cross_entropy(np.ravel(block.label01), probs.reshape(-1, 2),
                                  CLASS_WEIGHTS, np.ravel(mask))


def masked_loss_and_grads(net, params, block, mask, rng=None):
    """loss_and_grads over the rows flagged in mask, a subset of the
    block's live rows, composed from a training pass, the loss and
    backward."""
    probs, cache = net.forward(params, block, mode="train", rng=rng)
    loss, d_logits = masked_loss(probs, block, mask)
    return loss, net.backward(params, cache, d_logits.reshape(probs.shape))


def loss_value(net, params, block, mask, rng_factory=None):
    """Loss over the rows flagged in mask, from the forward pass alone."""
    rng = None if rng_factory is None else rng_factory()
    mode = "inference" if rng_factory is None else "train"
    probs, _ = net.forward(params, block, mode=mode, rng=rng)
    return masked_loss(probs, block, mask)[0]


def max_relative_error(net, params, block, mask, grad, rng_factory=None):
    grads = net.views(grad)
    worst = 0.0
    for name, p in params.items():
        g = grads[name]
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + FD_STEP
            up = loss_value(net, params, block, mask, rng_factory)
            p[idx] = orig - FD_STEP
            down = loss_value(net, params, block, mask, rng_factory)
            p[idx] = orig
            fd = (up - down) / (2 * FD_STEP)
            rel = abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-8)
            worst = max(worst, rel)
    return worst


@pytest.mark.parametrize("variant", ["rcnn", "cnn", "rnn", "mlp"])
def test_every_parameter_matches_finite_differences(variant):
    net, params, block, mask = tiny_problem(variant)
    _, grads = masked_loss_and_grads(net, params, block, mask)
    worst = max_relative_error(net, params, block, mask, grads)
    assert worst <= REL_TOL, f"{variant}: worst relative error {worst:.3e}"


def test_dense_input_path_matches_finite_differences():
    """The prosodic configuration: dense features, no embedding tables."""
    rng = np.random.default_rng(3)
    net = dense_net()
    params = net.init_params(rng)
    m = 8
    block = one_text_block(dense=rng.standard_normal((m, 13)),
                           label01=rng.integers(0, 2, size=m))
    block.label01[0] = 1
    block.label01[1] = 0
    _, grads, n_active = net.loss_and_grads(params, block, CLASS_WEIGHTS)
    assert n_active == m
    worst = max_relative_error(net, params, block, np.ones(m), grads)
    assert worst <= REL_TOL


def test_dropout_gradient_with_frozen_mask():
    """Holding the dropout draw fixed, gradients still match the oracle."""
    net, params, block, mask = tiny_problem("rcnn", dropout=0.4)
    factory = lambda: np.random.default_rng(99)
    _, grads = masked_loss_and_grads(net, params, block, mask, rng=factory())
    worst = max_relative_error(net, params, block, mask, grads, rng_factory=factory)
    assert worst <= REL_TOL


def test_zero_class_weights_zero_gradients():
    net, params, block, _ = tiny_problem("rcnn")
    loss, grads, _ = net.loss_and_grads(params, block, np.zeros(2))
    assert loss == 0.0
    for name, g in net.views(grads).items():
        npt.assert_array_equal(g, np.zeros_like(g), err_msg=name)


@pytest.mark.parametrize("variant", ["mlp", "cnn"])
def test_masked_positions_contribute_nothing(variant):
    """An embedding row seen only through masked outputs gets no gradient,
    and perturbing it leaves the loss unchanged.

    Exact for the per-timestep MLP; for the CNN every output row whose
    conv+pool window reaches the position must be masked. (The recurrent
    variants propagate inputs across the whole sequence, so no local
    masking can isolate a position there.)
    """
    net, params, block, _ = tiny_problem(variant, m=9)
    lonely = 6  # appears only at the masked position below
    word_ids = block.word_ids[:, 0]
    word_ids[:] = np.array([0, 1, 2, 3, 4, 5, 0, 1, 2])
    masked_at = 4
    word_ids[masked_at] = lonely
    mask = np.ones((9, 1), dtype=bool)
    if variant == "mlp":
        mask[masked_at] = False
    else:
        mask[masked_at - 2 : masked_at + 3] = False  # conv reach 1 + pool reach 1
    loss, grads = masked_loss_and_grads(net, params, block, mask)
    npt.assert_array_equal(net.views(grads)["emb_word"][lonely], np.zeros(4))
    params["emb_word"][lonely] += 0.37
    loss_after = loss_value(net, params, block, mask)
    assert loss_after == loss


def test_backward_before_forward_is_rejected():
    net, params, _, _ = tiny_problem("rcnn")
    with pytest.raises(ContractError):
        net.backward(params, None, np.zeros((3, 1, 2)))


# ------------------------------------------------------------ batched path

RAGGED = (9, 4, 1)  # includes a length-1 row


def dense_net(dropout=0.0):
    hp = Hyperparams(conv_filters=4, conv_width=5, pool_width=3, rec_units=4,
                     dropout_rate=dropout)
    return SequenceNet("rcnn", hp, dense_dim=13)


def ragged_items(net, lengths, seed=5):
    """One one-text block with labels per length, as the net's inputs."""
    rng = np.random.default_rng(seed)
    items = []
    for m in lengths:
        if net.dense_dim:
            parts = dict(dense=rng.standard_normal((m, net.dense_dim)))
        else:
            parts = dict(word_ids=rng.integers(0, net.word_vocab, size=m),
                         tag_ids=rng.integers(0, net.tag_vocab, size=m))
        label01 = rng.integers(0, 2, size=m)
        label01[0] = 1
        items.append(one_text_block(**parts, label01=label01))
    return items


def stacked(items):
    """NetBatch of the items with random values on every padded step, and
    its (T, B) live rows."""
    batch = NetBatch.stack(items)
    pad = np.arange(len(batch))[:, None] >= batch.lengths
    rng = np.random.default_rng(11)
    for name in ("word_ids", "tag_ids"):
        ids = getattr(batch, name)
        if ids is not None:
            ids[pad] = rng.integers(0, ids.max() + 1, size=int(pad.sum()))
    if batch.dense is not None:
        batch.dense[pad] = rng.standard_normal((int(pad.sum()), batch.dense.shape[2]))
    return batch, ~pad


def batch_net(variant, dropout=0.0):
    net = dense_net(dropout) if variant == "dense" else tiny_net(variant, dropout)
    return net, net.init_params(np.random.default_rng(2))


def assert_grads_close(net, got, want, rel=1e-12):
    got, want = net.views(got), net.views(want)
    for name in want:
        scale = max(np.abs(want[name]).max(), 1e-300)
        assert np.abs(got[name] - want[name]).max() <= rel * scale, name


@pytest.mark.parametrize("variant", ["rcnn", "cnn", "rnn", "mlp", "dense"])
def test_ragged_batch_matches_finite_differences(variant):
    net, params = batch_net(variant)
    batch, live = stacked(ragged_items(net, RAGGED))
    _, grads, n_active = net.loss_and_grads(params, batch, CLASS_WEIGHTS)
    assert n_active == sum(RAGGED)
    worst = max_relative_error(net, params, batch, live, grads)
    assert worst <= REL_TOL, f"{variant}: worst relative error {worst:.3e}"


@pytest.mark.parametrize("variant", ["rcnn", "cnn", "rnn", "mlp"])
def test_inference_pass_matches_the_cache_keeping_pass(variant):
    """An inference pass gives the live-row probs of a training pass of
    the dropout-free net bit for bit, with the LSTM weights prepared per
    pass or ahead; inference needs no rng and applies no dropout,
    whatever the rate."""
    plain, plain_params = batch_net(variant)
    batch, live = stacked(ragged_items(plain, (7, 3, 1)))
    want = plain.forward(plain_params, batch, mode="train")[0][live]
    for dropout in (0.0, 0.4):
        net, params = batch_net(variant, dropout)
        for prepared in (None, net.prepare(params)):
            got, _ = net.forward(params, batch, rng=None, prepared=prepared)
            npt.assert_array_equal(got[live], want)


@pytest.mark.parametrize("variant", ["rcnn", "cnn", "rnn", "mlp"])
def test_a_pass_is_a_training_pass_or_an_inference_pass(variant):
    """A training pass of a dropout-free net and an inference pass give
    the same probs bit for bit on live rows, and only the training pass
    returns a cache. With dropout, a training pass draws from rng (an
    mlp has no dropout) and an inference pass draws nothing."""
    net, params = batch_net(variant)
    batch, live = stacked(ragged_items(net, (7, 3, 1)))
    trained, cache = net.forward(params, batch, mode="train")
    inferred, no_cache = net.forward(params, batch)
    assert isinstance(cache, dict) and no_cache is None
    npt.assert_array_equal(trained[live], inferred[live])
    net, params = batch_net(variant, dropout=0.4)
    for mode, draws in (("inference", False), ("train", variant != "mlp")):
        rng = np.random.default_rng(3)
        net.forward(params, batch, mode=mode, rng=rng)
        assert (rng.random() != np.random.default_rng(3).random()) == draws


LOCKSTEP_UNITS = 16


def lockstep_nets():
    """A lexical and a prosodic dropout-free rcnn of cv-rcnn-short's width,
    with params."""
    rng = np.random.default_rng(2)
    nets = (
        SequenceNet("rcnn", Hyperparams(word_dim=8, tag_dim=4, conv_filters=16,
                                        rec_units=LOCKSTEP_UNITS, dropout_rate=0.0),
                    word_vocab=7, tag_vocab=3),
        SequenceNet("rcnn", Hyperparams(conv_filters=8, conv_width=5, rec_units=LOCKSTEP_UNITS,
                                        dropout_rate=0.0),
                    dense_dim=13),
    )
    return [(net, net.init_params(rng)) for net in nets]


@pytest.mark.parametrize("steps, rows, chunks", [
    (3, 1, [3]), (4, 1, [4]), (9, 1, [4, 5]), (10, 1, [4, 6]),
    (3, 2, [3]), (4, 2, [4]), (9, 2, [4, 5]), (10, 2, [4, 4, 2]),
    (3, 4, [3]), (4, 4, [4]), (9, 4, [4, 4, 1]),
    (3, 5, [3]), (4, 5, [4]), (10, 5, [4, 4, 2]),
])
def test_lockstep_pass_equals_each_net_alone(steps, rows, chunks, monkeypatch):
    """Two nets whose LSTMs run in one loop give each net's live-row probs
    of a training pass of its own bit for bit, on ragged blocks whose inputs
    the loop projects in chunks of K = 4 steps: T below, at and above K,
    with tails of fewer than 4 GEMM rows joining the chunk before."""
    step_bytes = 4 * 4 * rows * LOCKSTEP_UNITS * 8  # four directions
    monkeypatch.setattr(lstm_ops, "PROJECTION_BYTES", 4 * step_bytes)
    assert [b - a for a, b in lstm_ops.projection_chunks(steps, rows, step_bytes)] == chunks
    (lexical, lex_params), (prosodic, pros_params) = pairs = lockstep_nets()
    lengths = [steps] + [max(1, steps - 3 * b) for b in range(1, rows)]
    blocks = [stacked(ragged_items(net, lengths))[0] for net, _ in pairs]
    live = np.arange(steps)[:, None] < lengths
    want = [net.forward(params, block, mode="train")[0][live]
            for (net, params), block in zip(pairs, blocks)]
    prepared = lexical.prepare(lex_params, [(prosodic, pros_params)])
    got, cache = lexical.forward(lex_params, blocks[0], prepared=prepared,
                                 partners=[(prosodic, pros_params, blocks[1])])
    assert cache is None and len(got) == 2
    for g, w in zip(got, want):
        npt.assert_array_equal(g[live], w)


# B = 1 blocks, an unpadded B > 1 block and padded ones
REVERSAL_LENGTHS = [(1,), (9,), (6, 6), (7, 3, 1), (4, 1)]


@pytest.mark.parametrize("lengths", REVERSAL_LENGTHS)
@pytest.mark.parametrize("variant", ["rcnn", "rnn", "cnn", "mlp"])
def test_prepared_pass_equals_the_gather_reference(variant, lengths):
    """A prepared inference pass gives the index-gather reference's probs
    bit for bit, though its second LSTM direction reads an unpadded block
    through a reversed slice and its output layer runs on stacked
    weights."""
    net, params = batch_net(variant)
    batch, _ = stacked(ragged_items(net, lengths))
    got, _ = net.forward(params, batch, prepared=net.prepare(params))
    npt.assert_array_equal(got, gather_reversal_probs(net, params, batch))


@pytest.mark.parametrize("lengths", REVERSAL_LENGTHS)
def test_lockstep_pass_equals_the_gather_reference(lengths):
    """Two nets in one pass, whose output layers run as one, give each
    net's index-gather reference probs bit for bit."""
    (lexical, lex_params), (prosodic, pros_params) = pairs = lockstep_nets()
    blocks = [stacked(ragged_items(net, lengths))[0] for net, _ in pairs]
    got, _ = lexical.forward(lex_params, blocks[0],
                             prepared=lexical.prepare(lex_params, [(prosodic, pros_params)]),
                             partners=[(prosodic, pros_params, blocks[1])])
    for g, (net, params), block in zip(got, pairs, blocks, strict=True):
        npt.assert_array_equal(g, gather_reversal_probs(net, params, block))


def test_only_inference_passes_of_one_width_run_together():
    (lexical, lex_params), (prosodic, pros_params) = lockstep_nets()
    other = SequenceNet("rcnn", Hyperparams(rec_units=8), dense_dim=13)
    cnn = SequenceNet("cnn", Hyperparams(), dense_dim=13)
    lengths = [5, 3]
    block = stacked(ragged_items(lexical, lengths))[0]
    dense = stacked(ragged_items(prosodic, lengths))[0]
    rng = np.random.default_rng(0)
    for partner, kwargs in (
        ((other, other.init_params(rng), dense), {}),
        ((cnn, cnn.init_params(rng), dense), {}),
        ((prosodic, pros_params, dense), {"mode": "train", "rng": rng}),
    ):
        with pytest.raises(ContractError, match="one width"):
            lexical.forward(lex_params, block, partners=[partner], **kwargs)
    shorter = stacked(ragged_items(prosodic, [5, 2]))[0]
    with pytest.raises(ContractError, match="blocks of one shape"):
        lexical.forward(lex_params, block, partners=[(prosodic, pros_params, shorter)])


@pytest.mark.parametrize("dropout", [0.0, 0.4])
@pytest.mark.parametrize("variant", ["rcnn", "cnn", "rnn", "mlp", "dense"])
def test_batch_equals_sum_of_batches_of_one(variant, dropout):
    """Same loss and gradients, and with dropout the same rng draws."""
    net, params = batch_net(variant, dropout)
    items = ragged_items(net, RAGGED)
    rng = np.random.default_rng(8)
    want_loss, want, want_active = 0.0, None, 0
    for item in items:
        loss, grads, n_active = net.loss_and_grads(params, item, CLASS_WEIGHTS, rng=rng)
        want_loss += loss
        want_active += n_active
        want = grads if want is None else want + grads
    after = rng.random()
    rng = np.random.default_rng(8)
    batch, _ = stacked(items)
    loss, grads, n_active = net.loss_and_grads(params, batch, CLASS_WEIGHTS, rng=rng)
    assert rng.random() == after
    assert n_active == want_active
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert_grads_close(net, grads, want)


@pytest.mark.parametrize("variant", ["rcnn", "rnn", "dense"])
def test_padded_steps_are_inert(variant, monkeypatch):
    """Ids, dense values or labels on padded steps change nothing, bit for
    bit, in the network and in the training update, whose blocks are
    filled with 0 and then with 1 on every padded step."""
    net, params = batch_net(variant)
    items = ragged_items(net, RAGGED)
    batch, _ = stacked(items)
    loss, grads, _ = net.loss_and_grads(params, batch, CLASS_WEIGHTS)
    zeroed = NetBatch.stack(items)
    loss_0, grads_0, _ = net.loss_and_grads(params, zeroed, CLASS_WEIGHTS)
    assert loss == loss_0
    grads, grads_0 = net.views(grads), net.views(grads_0)
    for name in grads:
        npt.assert_array_equal(grads[name], grads_0[name], err_msg=name)

    stack = NetBatch.stack
    results = []
    for fill in (0, 1):
        def filled(cls, blocks, fill=fill):
            block = stack(blocks)
            pad = np.arange(len(block))[:, None] >= block.lengths
            assert pad.any()
            for name in ("word_ids", "tag_ids", "dense", "label01"):
                part = getattr(block, name)
                if part is not None:
                    part[pad] = fill
            return block

        monkeypatch.setattr(NetBatch, "stack", classmethod(filled))
        results.append(training.batch_loss_and_grads(net, params, items, CLASS_WEIGHTS, None))
    (loss_a, grads_a, active_a), (loss_b, grads_b, active_b) = results
    assert (loss_a, active_a) == (loss_b, active_b) == (loss, sum(RAGGED))
    grads_a, grads_b = net.views(grads_a), net.views(grads_b)
    for name in grads_a:
        npt.assert_array_equal(grads_a[name], grads_b[name], err_msg=name)


def test_batch_over_the_row_cap_is_split_into_blocks(monkeypatch):
    net, params = batch_net("rcnn", dropout=0.4)
    lengths = (100, 90, 80)  # 2 x 100 rows fit under the cap, 3 x 100 do not
    assert 2 * lengths[0] <= network.BLOCK_ROWS < 3 * lengths[0]
    items = ragged_items(net, lengths)
    rng = np.random.default_rng(4)
    want = training.batch_loss_and_grads(net, params, items[:2], CLASS_WEIGHTS, rng=rng)
    rest = training.batch_loss_and_grads(net, params, items[2:], CLASS_WEIGHTS, rng=rng)
    blocks = []
    backward = SequenceNet.backward
    monkeypatch.setattr(SequenceNet, "backward",
                        lambda self, *a, **k: blocks.append(1) or backward(self, *a, **k))
    loss, grads, n_active = training.batch_loss_and_grads(
        net, params, items, CLASS_WEIGHTS, rng=np.random.default_rng(4)
    )
    assert len(blocks) == 2
    assert n_active == want[2] + rest[2] == sum(lengths)
    assert abs(loss - (want[0] + rest[0])) <= 1e-12 * loss
    assert_grads_close(net, grads, want[1] + rest[1])


def block_order_sum(net, params, groups, rng):
    """The oracle for a batch that splits into blocks: each group of items
    as a batch of its own, which gets a fresh gradient vector, summed in
    group order into a copy of the first."""
    total_loss, total, total_active = 0.0, None, 0
    for group in groups:
        loss, vector, n_active = training.batch_loss_and_grads(
            net, params, group, CLASS_WEIGHTS, rng=rng
        )
        total_loss += loss
        total_active += n_active
        if total is None:
            total = vector.copy()
        else:
            total += vector
    return total_loss, total, total_active


def test_blocks_add_into_one_gradient_vector_bit_for_bit(monkeypatch):
    """Later blocks add into the first block's vector in place, giving the
    block-order sum of fresh per-block gradients exactly; word ids repeat
    across the three blocks, so embedding rows get several additions.
    loss_and_grads with into returns that vector itself, holding acc +
    block bit for bit."""
    net, params = batch_net("rcnn", dropout=0.4)
    lengths = (100, 100, 90, 80, 60)  # blocks of (100, 100), (90, 80), (60,)
    items = ragged_items(net, lengths)
    ids = [set(np.concatenate([item.word_ids for item in items[i:j]]).ravel().tolist())
           for i, j in ((0, 2), (2, 4), (4, 5))]
    assert ids[0] & ids[1] & ids[2]
    want_loss, want, want_active = block_order_sum(
        net, params, (items[:2], items[2:4], items[4:]), np.random.default_rng(4)
    )
    returned = []
    backward = SequenceNet.backward

    def recording(self, *args, **kwargs):
        returned.append(backward(self, *args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(SequenceNet, "backward", recording)
    loss, grads, n_active = training.batch_loss_and_grads(
        net, params, items, CLASS_WEIGHTS, rng=np.random.default_rng(4)
    )
    assert len(returned) == 3
    assert all(g is grads for g in returned)
    assert (loss, n_active) == (want_loss, want_active)
    npt.assert_array_equal(grads, want)

    first, later = (NetBatch.stack(items[i:j]) for i, j in ((0, 2), (2, 4)))
    acc = net.loss_and_grads(params, first, CLASS_WEIGHTS, rng=np.random.default_rng(6))[1]
    block = net.loss_and_grads(params, later, CLASS_WEIGHTS, rng=np.random.default_rng(7))[1]
    want = acc + block
    got = net.loss_and_grads(params, later, CLASS_WEIGHTS, rng=np.random.default_rng(7),
                             into=acc)[1]
    assert got is acc
    npt.assert_array_equal(got, want)


def test_later_blocks_scatter_only_their_embedding_rows():
    """A later block adds its embedding gradient through a scratch of the
    rows it picked, not of the whole table: a batch of two 180-token
    items (two blocks) over a 50,000 x 50 table peaks near one gradient
    vector (20.1 MB), where a table-sized scratch would double it."""
    rng = np.random.default_rng(0)
    net = SequenceNet("rcnn", Hyperparams(word_dim=50, conv_filters=16, rec_units=16),
                      word_vocab=50_000)
    params = net.init_params(rng)
    items = [one_text_block(word_ids=rng.integers(0, 50_000, size=180),
                            label01=rng.integers(0, 2, size=180)) for _ in range(2)]
    assert 2 * 180 > network.BLOCK_ROWS
    tracemalloc.start()
    try:
        training.batch_loss_and_grads(net, params, items, CLASS_WEIGHTS, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25e6, f"traced peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("variant", ["rcnn", "cnn", "rnn", "mlp"])
def test_embedding_scatter_matches_the_add_at_reference(variant, monkeypatch):
    """A batch's first block and a later one, which adds into its
    gradients, give the vector of the np.add.at scatter bit for bit."""
    net, params = batch_net(variant)
    first, _ = stacked(ragged_items(net, RAGGED))
    later, _ = stacked(ragged_items(net, (6, 6, 2, 5), seed=9))

    def two_blocks():
        _, grads, _ = net.loss_and_grads(params, first, CLASS_WEIGHTS)
        once = grads.copy()
        net.loss_and_grads(params, later, CLASS_WEIGHTS, into=grads)
        return once, grads

    got = two_blocks()
    monkeypatch.setattr(SequenceNet, "_scatter_input_grads",
                        lambda self, *args: scatter_input_grads_reference(self, *args))
    want = two_blocks()
    for g, w in zip(got, want):
        npt.assert_array_equal(g, w)


@pytest.mark.parametrize("variant", ["rcnn", "cnn"])
def test_dense_input_backward_computes_no_input_gradient(variant, monkeypatch):
    """No GEMM of a dense-input conv net's pass yields rows of the input's
    width (13), where the same net on 13-wide embeddings does; its
    gradients equal bit for bit those of a backward whose conv computes
    the input gradient all the same."""
    shape = dict(conv_filters=4, conv_width=5, pool_width=3, rec_units=4, mlp_hidden=6,
                 dropout_rate=0.0)
    widths = set()

    def recorded(fn):
        def row_matmul(a, w):
            out = fn(a, w)
            widths.add(out.shape[-1])
            return out
        return row_matmul

    def widths_and_grads(net):
        params = net.init_params(np.random.default_rng(2))
        batch, _ = stacked(ragged_items(net, RAGGED))
        with monkeypatch.context() as patch:
            for module in (kernels, network, network.lstm_ops):
                patch.setattr(module, "row_matmul", recorded(module.row_matmul))
            widths.clear()
            _, grads, _ = net.loss_and_grads(params, batch, CLASS_WEIGHTS)
        return set(widths), net, params, batch, grads

    lexical = SequenceNet(variant, Hyperparams(word_dim=9, tag_dim=4, **shape),
                          word_vocab=7, tag_vocab=3)
    assert 13 in widths_and_grads(lexical)[0]
    seen, net, params, batch, got = widths_and_grads(
        SequenceNet(variant, Hyperparams(**shape), dense_dim=13))
    assert 13 not in seen
    conv1d_backward = kernels.conv1d_backward
    monkeypatch.setattr(network, "conv1d_backward",
                        lambda *args, input_grad: conv1d_backward(*args, input_grad=True))
    _, want, _ = net.loss_and_grads(params, batch, CLASS_WEIGHTS)
    npt.assert_array_equal(got, want)
