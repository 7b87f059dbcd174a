"""Work counts and memory of the training loop, checked without any
timing; the configuration checks; and the edge cases of alpha tuning."""

import tracemalloc

import numpy as np
import pytest

from sentbound import training
from sentbound.corpus import LABEL_B, LABEL_NB, SynthSpec, synth_generate
from sentbound.errors import ContractError
from sentbound.evaluation import EvalConfig, cross_validated_eval
from sentbound.features import EmbeddingTable
from sentbound.model import Hyperparams
from sentbound.numerics import network

from kernel_reference import tune_alpha_reference


def test_one_lstm_pass_per_training_block(monkeypatch):
    """One lockstep LSTM call (both directions) per training batch, and
    one per batch of test texts for both models together: a per-sequence
    training loop would multiply the first term by the batch size, and
    per-text or per-model predictions would multiply the second."""
    corpus = synth_generate(SynthSpec(
        n_texts=16, mean_sentence_len=8.0, boundary_cue_token="então",
        cue_reliability=0.9, prosody_cue_strength=2.0, vocab_size=20, seed=3,
        mean_sentences_per_text=3.0, name="guard",
    ))
    hp = {"conv_filters": 4, "rec_units": 4}
    config = EvalConfig(
        train=training.TrainConfig(epochs=1, batch_size=4, seed=1),
        lexical_hp=Hyperparams.lexical(**hp), prosodic_hp=Hyperparams.prosodic(**hp),
        folds=2,
    )
    calls = {"lstm": 0, "batches": 0}
    direction_forward = network.lstm_ops.direction_forward

    def counted_direction(*args, **kwargs):
        calls["lstm"] += 1
        return direction_forward(*args, **kwargs)

    batch_loss_and_grads = training.batch_loss_and_grads

    def counted_batch(net, params, items, *args, **kwargs):
        # every batch of this corpus fits in one block
        assert max(len(item) for item in items) * len(items) <= network.BLOCK_ROWS
        calls["batches"] += 1
        return batch_loss_and_grads(net, params, items, *args, **kwargs)

    monkeypatch.setattr(network.lstm_ops, "direction_forward", counted_direction)
    monkeypatch.setattr(training, "batch_loss_and_grads", counted_batch)
    report = cross_validated_eval(corpus, "rcnn", "all", config)
    plan = training.kfold_split(corpus, config.folds, config.train.seed)
    by_id = {t.id: t for t in corpus}
    size = config.train.batch_size
    prediction_blocks = 0
    for fold in range(plan.k):
        lengths = [len(by_id[tid]) for tid in sorted(plan.test_ids(fold))]
        batches = [lengths[i : i + size] for i in range(0, len(lengths), size)]
        # every batch of test texts fits in one block
        assert all(max(b) * len(b) <= network.BLOCK_ROWS for b in batches)
        prediction_blocks += len(batches)  # lexical and prosodic model, in one loop
    assert prediction_blocks < len(corpus)
    assert calls["batches"] >= 2 * 2 * 2  # two models, two folds, two batches
    assert calls["lstm"] == calls["batches"] + prediction_blocks
    assert report.tp + report.fn == sum(t.n_boundaries for t in corpus)


@pytest.mark.parametrize("bucket_width, bound", [
    (50, 8.0e6),  # a batch per text; the previous batch's vector took 8.9 MB
    (200, 9.6e6),  # one batch of four blocks; a vector per block took 10.4 MB
])
def test_training_holds_one_gradient_vector(bucket_width, bound):
    """An epoch of a default-size lexical rcnn on four long texts (134,
    179, 48 and 72 tokens) stays under a traced-memory bound that one more
    live gradient vector (1.8 MB) would break."""
    texts = synth_generate(SynthSpec(n_texts=4, mean_sentences_per_text=12, seed=1)).texts
    assert [len(t) for t in texts] == [134, 179, 48, 72]
    rng = np.random.default_rng(0)
    hp = Hyperparams.lexical()
    words = EmbeddingTable.from_tokens([w for t in texts for w in t.tokens], hp.word_dim, rng)
    tags = EmbeddingTable.from_tokens([g for t in texts for g in t.pos_tags], hp.tag_dim, rng)
    bundle = training.make_lexical_bundle("rcnn", hp, words, tags, rng)
    config = training.TrainConfig(epochs=1, batch_size=4, bucket_width=bucket_width)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        training.train_model(bundle, texts, config, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= bound


def test_training_names_no_gradient_parts(monkeypatch):
    """The gradient goes from backward to the RMSProp step as one vector:
    an epoch builds no name -> view dict (SequenceNet.views)."""
    texts = synth_generate(SynthSpec(n_texts=6, mean_sentences_per_text=2, seed=2)).texts
    rng = np.random.default_rng(0)
    hp = Hyperparams.lexical(conv_filters=4, rec_units=4)
    words = EmbeddingTable.from_tokens([w for t in texts for w in t.tokens], hp.word_dim, rng)
    bundle = training.make_lexical_bundle("rcnn", hp, words, None, rng)
    calls = []
    views = network.SequenceNet.views
    monkeypatch.setattr(network.SequenceNet, "views",
                        lambda self, vector: calls.append(1) or views(self, vector))
    training.train_model(bundle, texts, training.TrainConfig(epochs=1, batch_size=2), rng)
    assert calls == []


@pytest.mark.parametrize("variant, lstm_directions", [("rcnn", [2]), ("mlp", [])])
def test_each_training_block_prepares_its_weights_once(monkeypatch, variant,
                                                       lstm_directions):
    """A training block's pass reads weights that one SequenceNet.prepare
    call built for it, and that call prepares the LSTM's two directions
    once (lstm_ops.prepare_weights); a net without an LSTM prepares none."""
    texts = synth_generate(SynthSpec(n_texts=6, mean_sentences_per_text=2, seed=2)).texts
    rng = np.random.default_rng(0)
    hp = Hyperparams.lexical(conv_filters=4, rec_units=4)
    words = EmbeddingTable.from_tokens([w for t in texts for w in t.tokens], hp.word_dim, rng)
    bundle = training.make_lexical_bundle(variant, hp, words, None, rng)
    calls = []
    net_class = network.SequenceNet
    loss_and_grads, prepare = net_class.loss_and_grads, net_class.prepare
    prepare_weights = network.lstm_ops.prepare_weights
    monkeypatch.setattr(net_class, "loss_and_grads", lambda self, *args, **kwargs: (
        calls.append("block") or loss_and_grads(self, *args, **kwargs)))
    monkeypatch.setattr(net_class, "prepare", lambda self, *args: (
        calls.append("prepare") or prepare(self, *args)))
    monkeypatch.setattr(network.lstm_ops, "prepare_weights", lambda weights: (
        calls.append(len(weights)) or prepare_weights(weights)))
    training.train_model(bundle, texts, training.TrainConfig(epochs=1, batch_size=2), rng)
    blocks = calls.count("block")
    assert blocks >= 3
    assert calls == ["block", "prepare", *lstm_directions] * blocks


def test_a_batch_item_is_its_input(monkeypatch):
    """pad_item copies nothing: it hands train_model each encoded text
    itself, a one-text block with its (m, 1) labels, called with the
    batch's longest length, and refuses a shorter one; a batch of no
    items is refused too."""
    texts = synth_generate(SynthSpec(n_texts=6, mean_sentences_per_text=2, seed=2)).texts
    rng = np.random.default_rng(0)
    hp = Hyperparams.lexical(conv_filters=4, rec_units=4)
    words = EmbeddingTable.from_tokens([w for t in texts for w in t.tokens], hp.word_dim, rng)
    bundle = training.make_lexical_bundle("rcnn", hp, words, None, rng)
    calls, batches = [], []
    pad_item, batch_loss_and_grads = training.pad_item, training.batch_loss_and_grads
    monkeypatch.setattr(training, "pad_item", lambda inp, target: (
        calls.append((inp, target)) or pad_item(inp, target)))
    monkeypatch.setattr(training, "batch_loss_and_grads", lambda net, params, items, *a, **k: (
        batches.append(items) or batch_loss_and_grads(net, params, items, *a, **k)))
    training.train_model(bundle, texts, training.TrainConfig(epochs=1, batch_size=2), rng)
    items = [item for batch in batches for item in batch]
    assert len(calls) == len(items)
    assert all(inp is item for (inp, _), item in zip(calls, items))
    assert all(item.lengths.tolist() == [len(item)] for item in items)
    assert all(item.label01.shape == (len(item), 1) for item in items)
    assert [target for _, target in calls] == [
        max(len(item) for item in batch) for batch in batches for _ in batch]
    with pytest.raises(ContractError, match="shorter"):
        pad_item(items[0], len(items[0]) - 1)
    with pytest.raises(ContractError, match="no items"):
        batch_loss_and_grads(bundle.net, bundle.params, [], np.ones(2), rng)


@pytest.mark.parametrize("epochs", [0, -1])
def test_train_config_rejects_fewer_than_one_epoch(epochs):
    with pytest.raises(ContractError, match="must be positive"):
        training.TrainConfig(epochs=epochs)


@pytest.mark.parametrize("name", ["eta", "gamma", "dropout_rate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_hyperparams_reject_a_non_finite_float(name, value):
    with pytest.raises(ContractError, match=f"hyperparameter {name} must be finite"):
        Hyperparams(**{name: value})


@pytest.mark.parametrize("make, settings", [
    (training.TrainConfig, {"epochs": 1.5}),
    (training.TrainConfig, {"batch_size": 2.0}),
    (training.TrainConfig, {"seed": 1.5}),
    (training.TrainConfig, {"bucket_width": True}),
    (EvalConfig, {"folds": 2.0}),
    (EvalConfig, {"folds": True}),
])
def test_configs_refuse_a_count_that_is_not_an_int(make, settings):
    """A float or bool count is refused when the config is made, not by a
    TypeError in the run that reads it."""
    with pytest.raises(ContractError, match="must be .*int, got"):
        make(**settings)


@pytest.mark.parametrize("name, value", [
    ("train", None),
    ("lexical_hp", {"rec_units": 4}),
    ("prosodic_hp", None),
    ("word_table", "emb.vec"),
])
def test_eval_config_refuses_a_setting_of_another_type(name, value):
    """A setting of the wrong type is refused, by name, when the config is
    made, not by an AttributeError in the run that reads it."""
    with pytest.raises(ContractError, match=f"evaluation setting {name} must be of type"):
        EvalConfig(folds=2, **{name: value})


@pytest.mark.parametrize("settings, message", [
    ({"folds": 1}, "at least 2 folds"),
    ({"folds": 0}, "at least 2 folds"),
    ({"alpha": 1.5}, "alpha must be in"),
    ({"alpha": -3.0}, "alpha must be in"),
    ({"alpha": float("nan")}, "alpha must be in"),
    ({"alpha": "0.5"}, "alpha must be in"),
    ({"alpha": True}, "alpha must be in"),
])
def test_eval_config_rejects_bad_folds_and_alpha(settings, message):
    with pytest.raises(ContractError, match=message):
        EvalConfig(**settings)


@pytest.mark.parametrize("alpha", [None, 0.0, 0.5, 1.0])
def test_eval_config_takes_alpha_in_the_unit_interval(alpha):
    assert EvalConfig(folds=2, alpha=alpha).alpha == alpha


THREE_ROWS, FOUR_ROWS = np.full((3, 2), 0.5), np.full((4, 2), 0.5)


# The second case of each: two texts whose mismatches cancel out once
# their rows are joined.
@pytest.mark.parametrize("probs, gold", [
    ([THREE_ROWS], [[LABEL_B, LABEL_NB]]),
    ([THREE_ROWS, THREE_ROWS], [[LABEL_B] * 2, [LABEL_B] * 4]),
])
def test_alpha_tuning_rejects_labels_of_another_length(probs, gold):
    with pytest.raises(ContractError, match="disagree in length"):
        training.tune_alpha_from_probs(probs, probs, gold)


@pytest.mark.parametrize("lex, pros", [
    ([THREE_ROWS], [FOUR_ROWS]),
    ([THREE_ROWS, FOUR_ROWS], [FOUR_ROWS, THREE_ROWS]),
])
def test_alpha_tuning_rejects_probabilities_of_another_shape(lex, pros):
    with pytest.raises(ContractError, match="probability shapes disagree"):
        training.tune_alpha_from_probs(lex, pros, [[LABEL_B] * len(p) for p in lex])


def test_alpha_tuning_of_no_texts_keeps_the_lexical_model():
    assert training.tune_alpha_from_probs([], [], []) == 1.0


def test_alpha_tuning_breaks_exact_ties_towards_the_larger_alpha():
    """The boundary wins the fused row for alpha 0 .. 0.4 only (alpha 0.5
    is an exact tie, which goes to NB), so five alphas share the best F1;
    with equal rows every alpha does."""
    p_lex, p_pros = np.array([[0.6, 0.4]]), np.array([[0.4, 0.6]])
    assert training.tune_alpha_from_probs([p_lex], [p_pros], [[LABEL_B]]) == 0.4
    assert training.tune_alpha_from_probs([p_lex], [p_lex], [[LABEL_B]]) == 1.0


@pytest.mark.parametrize("seed", range(12))
def test_alpha_tuning_matches_fusing_every_text_at_every_alpha(seed):
    """Texts of 0 to 9 rows whose probabilities take a few values, so that
    fused rows and F1 scores tie often."""
    rng = np.random.default_rng(seed)
    lex, pros, gold = [], [], []
    for m in rng.integers(0, 10, size=rng.integers(0, 7)):
        for probs in (lex, pros):
            b = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=m)
            probs.append(np.stack([1.0 - b, b], axis=1))
        gold.append([LABEL_B if g else LABEL_NB for g in rng.random(m) < 0.4])
    want = tune_alpha_reference(lex, pros, gold)
    assert training.tune_alpha_from_probs(lex, pros, gold) == want
