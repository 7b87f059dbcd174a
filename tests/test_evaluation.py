"""Fixed-seed results of the evaluation drivers, pinned as integers.

Each run is small (16 synthetic texts, n_f = n_r = 4, 2 epochs, 4 folds)
so the whole module stays within a few seconds. The pinned counts and
alphas change only if training, prediction, fusion, alpha tuning or
boundary counting changes; a refactor of any of these must leave them
as they are.
"""

import pytest

from sentbound.corpus import SynthSpec, synth_generate
from sentbound.evaluation import (
    EvalConfig,
    cross_validated_eval,
    robustness_eval,
    train_segmenter,
)
from sentbound.model import Hyperparams
from sentbound.training import TrainConfig


def small_corpus(seed, cue, name):
    return synth_generate(
        SynthSpec(
            n_texts=16, mean_sentence_len=8.0, boundary_cue_token=cue,
            cue_reliability=0.9, prosody_cue_strength=2.0, vocab_size=20,
            seed=seed, mean_sentences_per_text=3.0, name=name,
        )
    )


def small_config(alpha=None):
    hp = {"conv_filters": 4, "rec_units": 4, "eta": 0.01}
    return EvalConfig(
        train=TrainConfig(epochs=2, batch_size=4, seed=3),
        lexical_hp=Hyperparams.lexical(**hp),
        prosodic_hp=Hyperparams.prosodic(**hp),
        folds=4,
        alpha=alpha,
    )


@pytest.fixture(scope="module")
def genre_a():
    return small_corpus(5, "então", "genre-a")


@pytest.fixture(scope="module")
def genre_b():
    return small_corpus(9, "aí", "genre-b")


def counts(report):
    return (report.tp, report.fp, report.fn)


@pytest.mark.parametrize(
    "variant, features, alpha, pooled, per_fold, chosen",
    [
        ("rcnn", "all", None, (43, 42, 14),
         [(10, 0, 1), (8, 5, 8), (10, 7, 3), (15, 30, 2)], 0.7),
        ("rcnn", "embeddings+pos", None, (44, 45, 13),
         [(11, 0, 0), (7, 4, 9), (10, 7, 3), (16, 34, 1)], 1.0),
        ("rcnn", "prosody", None, (23, 124, 34),
         [(1, 9, 10), (10, 59, 6), (5, 16, 8), (7, 40, 10)], 0.0),
        ("cnn", "all", 0.6, (45, 84, 12),
         [(11, 32, 0), (10, 17, 6), (11, 8, 2), (13, 27, 4)], 0.6),
    ],
)
def test_cross_validated_counts_are_pinned(genre_a, variant, features, alpha,
                                           pooled, per_fold, chosen):
    report = cross_validated_eval(genre_a, variant, features, small_config(alpha))
    assert counts(report) == pooled
    assert [(f["tp"], f["fp"], f["fn"]) for f in report.per_fold] == per_fold
    assert report.config["alpha"] == chosen
    assert [f["alpha"] for f in report.per_fold] == [chosen] * 4
    gold = sum(t.n_boundaries for t in genre_a)
    assert report.tp + report.fn == gold


def test_robustness_counts_are_pinned(genre_a, genre_b):
    report = robustness_eval(
        genre_a, genre_b, small_config(), variant="rcnn", feature_set="all"
    )
    assert counts(report) == (37, 107, 18)
    assert report.config["alpha"] == 0.5


def test_segmenter_alpha_and_predictions_are_pinned(genre_a, genre_b):
    segmenter = train_segmenter(genre_a, "rcnn", "all", small_config())
    assert segmenter.alpha == 0.5
    predicted = sum(label == "B" for t in genre_b for label in segmenter.predict(t))
    assert predicted == 144
