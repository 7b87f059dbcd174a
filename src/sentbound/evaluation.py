"""Boundary-class metrics, the all-B baseline, and evaluation drivers.

Scoring ignores the NB class entirely: precision, recall, and F1 are
computed for boundary predictions at exact token positions. Counts are
pooled by summing tp/fp/fn (micro-averaging) because per-fold boundary
counts are small.

A split trains one ModelBundle per active feature family (_train_pair),
and the split's bundles predict texts together (model.predict_texts, the
path the segmenter uses too) as (p_lex, p_pros, gold) rows; an absent
family's probabilities are None and its fusion weight 0. The drivers
are built from three pieces:

- out_of_fold_rows trains one split per fold and keeps each text's row
  from the fold that held it out. cross_validated_eval reads those rows.
- _fit_in_sample trains one split on every text of a corpus and resolves
  the fusion weight on those same texts. robustness_eval and
  train_segmenter use it; it is the one place the weight is chosen
  in-sample.
- count_table fuses each text's row once, at the run's weight, into one
  row of counts[text, (tp, fp, fn)]. An EvalReport holds that table; each
  of its figures is scores() of all its rows or of one fold's.
"""

from dataclasses import dataclass, field

import numpy as np

from .corpus import LABEL_B
from .errors import ContractError
from .features import EmbeddingTable, fit_prosody_stats
from .model import (
    Hyperparams,
    TrainedSegmenter,
    boundary_counts,
    check_alpha,
    fuse,
    parse_feature_set,
    predict_texts,
    prf_from_counts,
)
from .training import (
    TrainConfig,
    kfold_split,
    make_lexical_bundle,
    make_prosodic_bundle,
    train_model,
    tune_alpha_from_probs,
)


_SCORES = ("tp", "fp", "fn", "precision", "recall", "f1")


def scores(rows):
    """{tp, fp, fn, precision, recall, f1} of count-table rows summed; the
    counts are Python ints."""
    tp, fp, fn = (int(n) for n in rows.sum(0))
    return dict(zip(_SCORES, (tp, fp, fn, *prf_from_counts(tp, fp, fn))))


@dataclass(eq=False)
class EvalReport:
    """A run's count table, counts[text, (tp, fp, fn)] with texts in id order;
    each text's fold, or None for a run without folds; and the config. tp
    to f1 are scores() of all rows, per_fold of each fold's rows."""

    counts: np.ndarray
    folds: tuple | None = None
    config: dict = field(default_factory=dict)

    tp, fp, fn, precision, recall, f1 = (
        property(lambda self, k=k: scores(self.counts)[k]) for k in _SCORES)

    @property
    def per_fold(self):
        """{fold, tp, fp, fn, precision, recall, f1, alpha} per fold, in
        fold order; alpha is the run's."""
        return [{"fold": fold, **scores(self.counts[np.equal(self.folds, fold)]),
                 "alpha": self.config["alpha"]} for fold in sorted(set(self.folds or ()))]


def prf_boundary(gold, pred, config=None):
    """Precision/recall/F1 for the boundary class only."""
    return EvalReport(np.array([boundary_counts(gold, pred)]), config=config or {})


def all_boundary_baseline(gold):
    """The degenerate classifier that labels every word B.

    Recall is exactly 1; precision equals the boundary rate, so
    F1 = 2P / (P + 1).
    """
    if len(gold) == 0:
        raise ContractError("empty gold labels")
    return EvalReport(np.array([boundary_counts(gold, [LABEL_B] * len(gold))]),
                      config={"baseline": "all-B"})


_ROW = "{:8s}{precision:8.3f}{recall:8.3f}{f1:8.3f}{tp:6d}{fp:6d}{fn:6d}"


def render_table(report):
    """The config, then one row per fold and the pooled row."""
    lines = []
    cfg = " ".join(f"{k}={v}" for k, v in report.config.items())
    if cfg:
        lines.append(cfg)
    lines.append(f"{'':8s}{'P':>8s}{'R':>8s}{'F1':>8s}{'tp':>6s}{'fp':>6s}{'fn':>6s}")
    lines += [_ROW.format(f"fold {entry['fold']:<3d}", **entry) for entry in report.per_fold]
    lines.append(_ROW.format("pooled", **scores(report.counts)))
    return "\n".join(lines)


def machine_line(report):
    """corpus<TAB>variant<TAB>features<TAB>alpha<TAB>P<TAB>R<TAB>F1"""
    cfg = report.config
    alpha = cfg.get("alpha")
    alpha_str = "-" if alpha is None else f"{alpha:g}"
    return "\t".join(
        [
            str(cfg.get("corpus", "-")),
            str(cfg.get("variant", "-")),
            str(cfg.get("features", "-")),
            alpha_str,
            f"{report.precision:.4f}",
            f"{report.recall:.4f}",
            f"{report.f1:.4f}",
        ]
    )


# ------------------------------------------------------------------ drivers


@dataclass
class EvalConfig:
    """Everything a cross-validated or robustness run needs."""

    train: TrainConfig = field(default_factory=TrainConfig)
    lexical_hp: Hyperparams = field(default_factory=Hyperparams.lexical)
    prosodic_hp: Hyperparams = field(default_factory=Hyperparams.prosodic)
    folds: int = 5
    alpha: float | None = None  # fixed fusion weight; None tunes on the grid
    word_table: EmbeddingTable | None = None  # pretrained init, else per-run random

    def __post_init__(self):
        if type(self.folds) is not int:
            raise ContractError(f"folds must be an int, got {self.folds!r}")
        if self.folds < 2:
            raise ContractError(f"need at least 2 folds, got {self.folds}")
        if self.alpha is not None:
            check_alpha(self.alpha)


def _check_feature_set(feature_set, *corpora):
    if isinstance(feature_set, str):
        feature_set = parse_feature_set(feature_set)
    for corpus in corpora:
        if not len(corpus):
            raise ContractError(f"corpus {corpus.name!r} has no texts")
        if feature_set.prosody and not corpus.has_prosody:
            raise ContractError(
                f"feature set {feature_set.name!r} needs prosody but corpus "
                f"{corpus.name!r} has none"
            )
    return feature_set


def _fold_rng(seed, fold, stream):
    return np.random.default_rng([seed, fold, stream])


def _train_pair(variant, feature_set, train_texts, config, fold_index, logs=None):
    """Train the lexical and/or prosodic model for one split.

    Returns (lexical_bundle, prosodic_bundle); an absent one is None.
    AD-group texts train the lexical model only. `logs` may map
    "lexical" / "prosodic" to per-epoch log callbacks.
    """
    logs = logs or {}
    lex_bundle = pros_bundle = None
    if feature_set.prosody:
        pros_texts = [t for t in train_texts if t.group != "AD"]
        if not pros_texts:
            raise ContractError("no non-AD text to train the prosodic model on")
    if feature_set.has_lexical:
        rng = _fold_rng(config.train.seed, fold_index, 0)
        word_table = config.word_table if feature_set.words else None
        if feature_set.words and word_table is None:
            tokens = [tok for t in train_texts for tok in t.tokens]
            word_table = EmbeddingTable.from_tokens(tokens, config.lexical_hp.word_dim, rng)
        tag_table = None
        if feature_set.tags:
            tags = [tag for t in train_texts for tag in t.pos_tags]
            tag_table = EmbeddingTable.from_tokens(tags, config.lexical_hp.tag_dim, rng)
        lex_bundle = make_lexical_bundle(variant, config.lexical_hp, word_table, tag_table, rng)
        train_model(lex_bundle, train_texts, config.train, rng, log=logs.get("lexical"))
    if feature_set.prosody:
        rng = _fold_rng(config.train.seed, fold_index, 1)
        stats = fit_prosody_stats(pros_texts)
        pros_bundle = make_prosodic_bundle(variant, config.prosodic_hp, stats, rng)
        train_model(pros_bundle, pros_texts, config.train, rng, log=logs.get("prosodic"))
    return lex_bundle, pros_bundle


def _predictions(models, texts, config):
    """(p_lex, p_pros, gold) per text from _train_pair's models, which
    predict_texts runs together; an absent model gives None. Nothing runs
    until the first triple is asked for."""
    present = iter(predict_texts([m for m in models if m is not None], texts,
                                 config.train.batch_size))
    probs = [[None] * len(texts) if m is None else next(present) for m in models]
    yield from zip(*probs, (t.labels for t in texts))


def resolve_alpha(feature_set, config, predictions):
    """The fusion weight of a run.

    1.0 or 0.0 when only the lexical or only the prosodic family is
    active; else config.alpha when set; else the value tune_alpha_from_probs
    picks on `predictions`, (p_lex, p_pros, gold) triples that are only
    consumed in that last case.
    """
    if not (feature_set.has_lexical and feature_set.prosody):
        return 1.0 if feature_set.has_lexical else 0.0
    if config.alpha is not None:
        return config.alpha
    return tune_alpha_from_probs(*zip(*predictions))


def count_table(rows, alpha):
    """counts[text, (tp, fp, fn)], an int64 array with one row per
    (p_lex, p_pros, gold) row, in order, fused at alpha."""
    counts = [boundary_counts(gold, fuse(p_lex, p_pros, alpha)[0])
              for p_lex, p_pros, gold in rows]
    return np.array(counts, dtype=np.int64).reshape(-1, 3)


def out_of_fold_rows(corpus, variant, feature_set, config: EvalConfig):
    """{text id: (fold, (p_lex, p_pros, gold))} for every text, in id order.

    Folds run one after another, each on its own rng streams; a fold's
    models predict the texts it holds out.
    """
    feature_set = _check_feature_set(feature_set, corpus)
    plan = kfold_split(corpus, config.folds, config.train.seed)
    by_id = {t.id: t for t in corpus}
    rows = {}
    for fold in range(plan.k):
        train_texts = [by_id[tid] for tid in sorted(plan.train_ids(fold))]
        test_texts = [by_id[tid] for tid in sorted(plan.test_ids(fold))]
        models = _train_pair(variant, feature_set, train_texts, config, fold)
        for t, row in zip(test_texts, _predictions(models, test_texts, config)):
            rows[t.id] = (fold, row)
        del models  # frees them before the next fold trains
    return dict(sorted(rows.items()))


def cross_validated_eval(corpus, variant, feature_set, config: EvalConfig):
    """K-fold evaluation of out_of_fold_rows: the report of their count table.

    One fusion weight (resolve_alpha) scores every fold; when it is tuned,
    it is tuned on the pooled out-of-fold rows.
    """
    feature_set = _check_feature_set(feature_set, corpus)
    rows = out_of_fold_rows(corpus, variant, feature_set, config)
    folds, text_rows = zip(*rows.values())
    alpha = resolve_alpha(feature_set, config, text_rows)
    return EvalReport(
        count_table(text_rows, alpha), folds,
        config={"corpus": corpus.name, "variant": variant, "features": feature_set.name,
                "alpha": alpha, "folds": config.folds, "seed": config.train.seed},
    )


def _fit_in_sample(corpus, variant, feature_set, config, logs=None):
    """The pair trained on every text of `corpus`, in id order, as split 0,
    and its fusion weight, resolved on the training texts' own
    predictions (which run only when the weight is tuned)."""
    texts = sorted(corpus, key=lambda t: t.id)
    models = _train_pair(variant, feature_set, texts, config, fold_index=0, logs=logs)
    return models, resolve_alpha(feature_set, config, _predictions(models, texts, config))


def robustness_eval(train_corpus, test_corpus, config: EvalConfig,
                    variant="rcnn", feature_set="embeddings"):
    """Train on all of corpus A, evaluate on all of corpus B.

    Test tokens missing from A's vocabulary fall to the OOV row. The
    fusion weight is taken from the config or tuned in-sample on A.
    """
    feature_set = _check_feature_set(feature_set, train_corpus, test_corpus)
    models, alpha = _fit_in_sample(train_corpus, variant, feature_set, config)
    test_texts = sorted(test_corpus, key=lambda t: t.id)
    return EvalReport(
        count_table(_predictions(models, test_texts, config), alpha),
        config={"corpus": f"{train_corpus.name}->{test_corpus.name}", "variant": variant,
                "features": feature_set.name, "alpha": alpha, "seed": config.train.seed},
    )


def train_segmenter(corpus, variant, feature_set, config: EvalConfig, logs=None):
    """Train on the whole corpus and package a TrainedSegmenter.

    Without a fixed config.alpha the fusion weight is tuned on the
    training texts themselves (no held-out split at train time).
    """
    feature_set = _check_feature_set(feature_set, corpus)
    if not feature_set.has_lexical:
        raise ContractError("a segmenter needs a lexical model")
    (lexical, prosodic), alpha = _fit_in_sample(corpus, variant, feature_set, config, logs)
    return TrainedSegmenter(lexical=lexical, alpha=alpha, prosodic=prosodic)
