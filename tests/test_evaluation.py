"""Fixed-seed results of the evaluation drivers, pinned as integers.

Each run is small (16 synthetic texts, n_f = n_r = 4, 2 epochs, 4 folds)
so the whole module stays within a few seconds. The pinned counts and
alphas change only if training, prediction, fusion, alpha tuning or
boundary counting changes; a refactor of any of these must leave them
as they are.
"""

from dataclasses import replace

import numpy as np
import pytest

from sentbound import evaluation
from sentbound.corpus import LABEL_B, LABEL_NB, Corpus, SynthSpec, synth_generate
from sentbound.errors import ContractError
from sentbound.evaluation import (
    EvalConfig,
    all_boundary_baseline,
    count_table,
    cross_validated_eval,
    machine_line,
    out_of_fold_rows,
    prf_boundary,
    render_table,
    robustness_eval,
    train_segmenter,
)
from sentbound.model import Hyperparams, boundary_counts, fuse
from sentbound.training import TrainConfig, kfold_split


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


def test_rcnn_beats_the_all_boundary_baseline(genre_a):
    report = cross_validated_eval(genre_a, "rcnn", "all", small_config())
    assert counts(report) == (43, 42, 14)
    gold = [label for t in genre_a for label in t.labels]
    assert report.f1 > all_boundary_baseline(gold).f1


def test_the_all_boundary_baseline_labels_every_word_b(genre_a):
    """(tp, fp, fn) = (n_B, n - n_B, 0), so recall is 1 and F1 = 2P / (P + 1);
    empty gold labels are a contract error."""
    gold = [label for t in genre_a for label in t.labels]
    n_b = sum(t.n_boundaries for t in genre_a)
    report = all_boundary_baseline(gold)
    assert counts(report) == (n_b, len(gold) - n_b, 0)
    assert all(type(n) is int for n in counts(report))
    assert (report.precision, report.recall) == (n_b / len(gold), 1.0)
    assert report.f1 == 2 * report.precision / (report.precision + 1)
    assert counts(all_boundary_baseline([LABEL_NB, LABEL_B, LABEL_NB])) == (1, 2, 0)
    with pytest.raises(ContractError, match="empty gold"):
        all_boundary_baseline([])


def test_robustness_counts_are_pinned(genre_a, genre_b):
    report = robustness_eval(
        genre_a, genre_b, small_config(), variant="rcnn", feature_set="all"
    )
    assert counts(report) == (37, 107, 18)
    assert report.config["alpha"] == 0.5


def test_a_cross_validated_report_prints_its_fold_rows_and_the_pooled_row(genre_a):
    report = cross_validated_eval(genre_a, "cnn", "all", small_config(0.6))
    assert render_table(report) == (
        "corpus=genre-a variant=cnn features=all alpha=0.6 folds=4 seed=3\n"
        "               P       R      F1    tp    fp    fn\n"
        "fold 0     0.256   1.000   0.407    11    32     0\n"
        "fold 1     0.370   0.625   0.465    10    17     6\n"
        "fold 2     0.579   0.846   0.688    11     8     2\n"
        "fold 3     0.325   0.765   0.456    13    27     4\n"
        "pooled     0.349   0.789   0.484    45    84    12")
    assert machine_line(report) == "genre-a\tcnn\tall\t0.6\t0.3488\t0.7895\t0.4839"


def test_a_train_test_report_prints_the_pooled_row_only(genre_a, genre_b):
    report = robustness_eval(genre_a, genre_b, small_config(), variant="rcnn",
                             feature_set="all")
    assert render_table(report) == (
        "corpus=genre-a->genre-b variant=rcnn features=all alpha=0.5 seed=3\n"
        "               P       R      F1    tp    fp    fn\n"
        "pooled     0.257   0.673   0.372    37   107    18")
    assert machine_line(report) == "genre-a->genre-b\trcnn\tall\t0.5\t0.2569\t0.6727\t0.3719"


def test_label_sequence_reports_print_the_pooled_row_only():
    """prf_boundary with and without a config, and the all-B baseline;
    a config key the machine line has no column for is shown as '-'."""
    gold, pred = [LABEL_B, LABEL_NB, LABEL_NB, LABEL_B, LABEL_B, LABEL_NB], \
        [LABEL_B, LABEL_B, LABEL_NB, LABEL_NB, LABEL_B, LABEL_NB]
    header = "               P       R      F1    tp    fp    fn\n"
    plain = prf_boundary(gold, pred)
    assert render_table(plain) == header + "pooled     0.667   0.667   0.667     2     1     1"
    assert machine_line(plain) == "-\t-\t-\t-\t0.6667\t0.6667\t0.6667"
    named = prf_boundary(gold, pred, config={"corpus": "x", "variant": "crf"})
    assert render_table(named) == "corpus=x variant=crf\n" + render_table(plain)
    assert machine_line(named) == "x\tcrf\t-\t-\t0.6667\t0.6667\t0.6667"
    baseline = all_boundary_baseline(
        [LABEL_NB, LABEL_B, LABEL_NB, LABEL_NB, LABEL_B, LABEL_NB, LABEL_NB])
    assert render_table(baseline) == (
        "baseline=all-B\n" + header + "pooled     0.286   1.000   0.444     2     5     0")
    assert machine_line(baseline) == "-\t-\t-\t-\t0.2857\t1.0000\t0.4444"


def test_segmenter_alpha_and_predictions_are_pinned(genre_a, genre_b):
    segmenter = train_segmenter(genre_a, "rcnn", "all", small_config())
    assert segmenter.alpha == 0.5
    predicted = sum(label == "B" for t in genre_b for label in segmenter.predict_probs(t)[0])
    assert predicted == 144


def _as_ad(corpus, prosody_shift):
    """The corpus's texts again as AD texts, with new ids and shifted prosody."""
    return [replace(t, id=f"ad-{t.id}", group="AD", prosody=t.prosody + prosody_shift)
            for t in corpus]


def _same_params(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def test_ad_texts_train_the_lexical_model_only(genre_a):
    """AD texts with shifted prosody leave the prosodic statistics and
    params bit-identical, and still train the lexical model."""
    plain = train_segmenter(genre_a, "rcnn", "all", small_config(alpha=0.5))
    with_ad = Corpus([*genre_a, *_as_ad(genre_a, 5.0)], genre_a.name)
    mixed = train_segmenter(with_ad, "rcnn", "all", small_config(alpha=0.5))
    p, m = plain.prosodic, mixed.prosodic
    assert np.array_equal(p.prosody_stats.mean, m.prosody_stats.mean)
    assert np.array_equal(p.prosody_stats.std, m.prosody_stats.std)
    assert _same_params(p.params, m.params)
    assert not _same_params(plain.lexical.params, mixed.lexical.params)


def test_a_corpus_of_ad_texts_only_has_no_prosodic_training_set(genre_a):
    only_ad = Corpus(_as_ad(genre_a, 0.0), "ad")
    with pytest.raises(ContractError, match="no non-AD text to train the prosodic model"):
        train_segmenter(only_ad, "rcnn", "all", small_config())


def test_out_of_fold_rows_hold_each_text_once_in_its_fold(genre_a):
    """Each text's row comes from the fold kfold_split holds it out of,
    and scoring each fold's rows at the report's alpha gives the report's
    per-fold counts, which sum to its pooled counts, as the count table's
    rows do. Every count is a Python int."""
    config = small_config()
    rows = out_of_fold_rows(genre_a, "rcnn", "all", config)
    assert list(rows) == sorted(t.id for t in genre_a)
    plan = kfold_split(genre_a, config.folds, config.train.seed)
    assert {tid: fold for tid, (fold, _) in rows.items()} == plan.assignments
    assert all(rows[t.id][1][2] == t.labels for t in genre_a)
    report = cross_validated_eval(genre_a, "rcnn", "all", config)
    alpha = report.config["alpha"]
    for entry in report.per_fold:
        fold_counts = [boundary_counts(gold, fuse(p_lex, p_pros, alpha)[0])
                       for fold, (p_lex, p_pros, gold) in rows.values()
                       if fold == entry["fold"]]
        assert tuple(map(sum, zip(*fold_counts))) == (entry["tp"], entry["fp"], entry["fn"])
    assert tuple(sum(f[n] for f in report.per_fold) for n in ("tp", "fp", "fn")) == \
        counts(report)
    table = count_table((row for _, row in rows.values()), alpha)
    assert table.shape == (len(genre_a), 3)
    assert tuple(table.sum(0)) == counts(report)
    assert all(list(f) == ["fold", "tp", "fp", "fn", "precision", "recall", "f1", "alpha"]
               for f in report.per_fold)
    assert all(type(n) is int
               for n in [*counts(report), *(f[k] for f in report.per_fold
                                             for k in ("tp", "fp", "fn"))])


@pytest.mark.parametrize("features, alpha, in_sample", [
    ("all", 0.8, False), ("embeddings+pos", None, False), ("all", None, True),
])
def test_only_a_tuned_alpha_predicts_the_training_texts(genre_a, genre_b, monkeypatch,
                                                        features, alpha, in_sample):
    """A fixed alpha, or one feature family, needs no predictions on the
    training texts, so training costs no more than the training itself."""
    predicted = []
    real = evaluation.predict_texts

    def recording(bundles, texts, *args, **kwargs):
        predicted.append({t.id for t in texts})
        return real(bundles, texts, *args, **kwargs)

    monkeypatch.setattr(evaluation, "predict_texts", recording)
    train_ids, test_ids = ({t.id for t in c} for c in (genre_a, genre_b))
    train_segmenter(genre_a, "rcnn", features, small_config(alpha))
    assert predicted == [train_ids] * in_sample
    predicted.clear()
    robustness_eval(genre_a, genre_b, small_config(alpha), variant="rcnn",
                    feature_set=features)
    assert predicted == [train_ids] * in_sample + [test_ids]


def test_robustness_refuses_a_test_corpus_without_prosody(genre_a, monkeypatch):
    monkeypatch.setattr(evaluation, "train_model", None)  # no training may start
    no_prosody = Corpus([replace(t, id=f"x-{t.id}", prosody=None) for t in genre_a], "flat")
    with pytest.raises(ContractError, match="corpus 'flat' has none"):
        robustness_eval(genre_a, no_prosody, small_config(), feature_set="all")


@pytest.mark.parametrize("features", ["all", "embeddings+pos"])
def test_robustness_refuses_an_empty_test_corpus(genre_a, monkeypatch, features):
    """An empty test set would score as a model with F1 0; it is refused
    before any training, ahead of the prosody check it would also fail."""
    monkeypatch.setattr(evaluation, "train_model", None)  # no training may start
    with pytest.raises(ContractError, match="corpus 'empty' has no texts"):
        robustness_eval(genre_a, Corpus([], "empty"), small_config(), feature_set=features)
