"""Work counts of the training loop, checked without any timing."""

from sentbound import training
from sentbound.corpus import SynthSpec, synth_generate
from sentbound.evaluation import EvalConfig, cross_validated_eval
from sentbound.model import Hyperparams
from sentbound.numerics import network


def test_one_lstm_pass_per_training_block(monkeypatch):
    """One lockstep LSTM call (both directions) per training batch, and
    per batch of test texts and model: a per-sequence training loop would
    multiply the first term by the batch size, and so would per-text
    predictions the second."""
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
        assert max(len(inp) for inp, _ in items) * len(items) <= training.BLOCK_ROWS
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
        assert all(max(b) * len(b) <= training.BLOCK_ROWS for b in batches)
        prediction_blocks += 2 * len(batches)  # lexical and prosodic model
    assert prediction_blocks < 2 * len(corpus)
    assert calls["batches"] >= 2 * 2 * 2  # two models, two folds, two batches
    assert calls["lstm"] == calls["batches"] + prediction_blocks
    assert report.tp + report.fn == sum(t.n_boundaries for t in corpus)
