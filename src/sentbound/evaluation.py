"""Boundary-class metrics, the all-B baseline, and evaluation drivers.

Scoring ignores the NB class entirely: precision, recall, and F1 are
computed for boundary predictions at exact token positions. Fold results
are pooled by summing tp/fp/fn counts (micro-averaging) because per-fold
boundary counts are small.
"""

from dataclasses import dataclass, field

import numpy as np

from .corpus import LABEL_B
from .errors import ContractError
from .features import EmbeddingTable, LexicalEncoder, ProsodicEncoder, fit_prosody_stats
from .model import (
    Hyperparams,
    TrainedSegmenter,
    boundary_counts,
    fuse,
    labels_from_probs,
    parse_feature_set,
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


@dataclass
class EvalReport:
    """Boundary precision/recall/F1 with raw counts and per-fold breakdown."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    per_fold: list = field(default_factory=list)
    config: dict = field(default_factory=dict)


def _report_from_counts(tp, fp, fn, per_fold=None, config=None):
    precision, recall, f1 = prf_from_counts(tp, fp, fn)
    return EvalReport(
        tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1,
        per_fold=per_fold or [], config=config or {},
    )


def prf_boundary(gold, pred, config=None):
    """Precision/recall/F1 for the boundary class only."""
    tp, fp, fn = boundary_counts(gold, pred)
    return _report_from_counts(tp, fp, fn, config=config)


def all_boundary_baseline(gold):
    """The degenerate classifier that labels every word B.

    Recall is exactly 1; precision equals the boundary rate, so
    F1 = 2P / (P + 1).
    """
    if len(gold) == 0:
        raise ContractError("empty gold labels")
    n_b = sum(1 for g in gold if g == LABEL_B)
    return _report_from_counts(
        tp=n_b, fp=len(gold) - n_b, fn=0, config={"baseline": "all-B"}
    )


def render_table(report):
    """Small human-readable rendition of a report."""
    lines = []
    cfg = " ".join(f"{k}={v}" for k, v in report.config.items())
    if cfg:
        lines.append(cfg)
    lines.append(f"{'':8s}{'P':>8s}{'R':>8s}{'F1':>8s}{'tp':>6s}{'fp':>6s}{'fn':>6s}")
    for entry in report.per_fold:
        lines.append(
            f"fold {entry['fold']:<3d}{entry['precision']:8.3f}{entry['recall']:8.3f}"
            f"{entry['f1']:8.3f}{entry['tp']:6d}{entry['fp']:6d}{entry['fn']:6d}"
        )
    lines.append(
        f"{'pooled':8s}{report.precision:8.3f}{report.recall:8.3f}{report.f1:8.3f}"
        f"{report.tp:6d}{report.fp:6d}{report.fn:6d}"
    )
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


def _check_feature_set(feature_set, corpus):
    if isinstance(feature_set, str):
        feature_set = parse_feature_set(feature_set)
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

    Returns (lexical_bundle, lex_encoder, prosodic_bundle, pros_encoder,
    prosody_stats); absent parts are None. `logs` may map "lexical" /
    "prosodic" to per-epoch log callbacks.
    """
    logs = logs or {}
    lex_bundle = lex_enc = pros_bundle = pros_enc = stats = None
    if feature_set.has_lexical:
        rng = _fold_rng(config.train.seed, fold_index, 0)
        word_table = None
        if feature_set.words:
            if config.word_table is not None:
                word_table = config.word_table
            else:
                tokens = [tok for t in train_texts for tok in t.tokens]
                word_table = EmbeddingTable.from_tokens(
                    tokens, config.lexical_hp.word_dim, rng
                )
        tag_table = None
        if feature_set.tags:
            tags = [tag for t in train_texts for tag in t.pos_tags]
            tag_table = EmbeddingTable.from_tokens(tags, config.lexical_hp.tag_dim, rng)
        lex_bundle = make_lexical_bundle(
            variant, config.lexical_hp, word_table, tag_table, rng
        )
        lex_enc = LexicalEncoder(
            lex_bundle.word_table() if feature_set.words else None,
            lex_bundle.tag_table() if feature_set.tags else None,
        )
        # encoder tables above share vocab with the bundle; vectors are the
        # bundle's live parameters, but the encoder only uses the vocab
        train_model(
            lex_bundle, train_texts, lex_enc, config.train, rng,
            model_kind="lexical", log=logs.get("lexical"),
        )
    if feature_set.prosody:
        rng = _fold_rng(config.train.seed, fold_index, 1)
        non_ad = [t for t in train_texts if t.group != "AD"]
        stats = fit_prosody_stats(non_ad)
        pros_bundle = make_prosodic_bundle(variant, config.prosodic_hp, rng)
        pros_enc = ProsodicEncoder(stats)
        train_model(
            pros_bundle, train_texts, pros_enc, config.train, rng,
            model_kind="prosodic", log=logs.get("prosodic"),
        )
    return lex_bundle, lex_enc, pros_bundle, pros_enc, stats


def _predict_probs(bundle, encoder, text):
    probs, _ = bundle.net.forward(bundle.params, encoder.encode(text))
    return probs


def _predictions(models, texts):
    """(p_lex, p_pros, gold) per text from _train_pair's models; an absent
    model gives None."""
    lex_bundle, lex_enc, pros_bundle, pros_enc, _ = models
    for t in texts:
        p_lex = None if lex_bundle is None else _predict_probs(lex_bundle, lex_enc, t)
        p_pros = None if pros_bundle is None else _predict_probs(pros_bundle, pros_enc, t)
        yield p_lex, p_pros, t.labels


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
    lex_probs, pros_probs, gold = zip(*predictions)
    return tune_alpha_from_probs(lex_probs, pros_probs, gold, config.train.alpha_grid)


def _labels_for(p_lex, p_pros, feature_set, alpha):
    if feature_set.has_lexical and feature_set.prosody:
        labels, _ = fuse(p_lex, p_pros, alpha)
    elif feature_set.has_lexical:
        labels = labels_from_probs(p_lex)
    else:
        labels = labels_from_probs(p_pros)
    return labels


def cross_validated_eval(corpus, variant, feature_set, config: EvalConfig):
    """K-fold training and evaluation; counts pooled across folds.

    Folds run one after another, each on its own rng streams. One fusion
    weight (resolve_alpha) scores every fold; when it is tuned, it is
    tuned on the pooled out-of-fold predictions.
    """
    feature_set = _check_feature_set(feature_set, corpus)
    plan = kfold_split(corpus, config.folds, config.train.seed)
    by_id = {t.id: t for t in corpus}
    oof = {}  # text id -> (fold, (p_lex, p_pros, gold))
    for fold in range(plan.k):
        train_texts = [by_id[tid] for tid in sorted(plan.train_ids(fold))]
        test_texts = [by_id[tid] for tid in sorted(plan.test_ids(fold))]
        models = _train_pair(variant, feature_set, train_texts, config, fold)
        for t, triple in zip(test_texts, _predictions(models, test_texts)):
            oof[t.id] = (fold, triple)
    alpha = resolve_alpha(feature_set, config, (oof[tid][1] for tid in sorted(oof)))
    per_fold_counts = [[0, 0, 0] for _ in range(plan.k)]
    for tid in sorted(oof):
        fold, (p_lex, p_pros, gold) = oof[tid]
        tp, fp, fn = boundary_counts(gold, _labels_for(p_lex, p_pros, feature_set, alpha))
        per_fold_counts[fold][0] += tp
        per_fold_counts[fold][1] += fp
        per_fold_counts[fold][2] += fn
    per_fold = []
    for fold, (tp, fp, fn) in enumerate(per_fold_counts):
        sub = _report_from_counts(tp, fp, fn)
        per_fold.append(
            {
                "fold": fold, "tp": tp, "fp": fp, "fn": fn,
                "precision": sub.precision, "recall": sub.recall, "f1": sub.f1,
                "alpha": alpha,
            }
        )
    tp, fp, fn = (sum(c[i] for c in per_fold_counts) for i in range(3))
    return _report_from_counts(
        tp, fp, fn, per_fold=per_fold,
        config={
            "corpus": corpus.name,
            "variant": variant,
            "features": feature_set.name,
            "alpha": alpha,
            "folds": plan.k,
            "seed": config.train.seed,
        },
    )


def robustness_eval(train_corpus, test_corpus, config: EvalConfig,
                    variant="rcnn", feature_set="embeddings"):
    """Train on all of corpus A, evaluate on all of corpus B.

    Test tokens missing from A's vocabulary fall to the OOV row. The
    fusion weight is taken from the config or tuned in-sample on A.
    """
    feature_set = _check_feature_set(feature_set, train_corpus)
    if feature_set.prosody and not test_corpus.has_prosody:
        raise ContractError(
            f"test corpus {test_corpus.name!r} lacks the prosody the "
            "feature set requires"
        )
    train_texts = sorted(train_corpus, key=lambda t: t.id)
    models = _train_pair(variant, feature_set, train_texts, config, fold_index=0)
    alpha = resolve_alpha(feature_set, config, _predictions(models, train_texts))
    tp = fp = fn = 0
    test_texts = sorted(test_corpus, key=lambda t: t.id)
    for p_lex, p_pros, gold in _predictions(models, test_texts):
        pred = _labels_for(p_lex, p_pros, feature_set, alpha)
        a, b, c = boundary_counts(gold, pred)
        tp, fp, fn = tp + a, fp + b, fn + c
    return _report_from_counts(
        tp, fp, fn,
        config={
            "corpus": f"{train_corpus.name}->{test_corpus.name}",
            "variant": variant,
            "features": feature_set.name,
            "alpha": alpha,
            "seed": config.train.seed,
        },
    )


def train_segmenter(corpus, variant, feature_set, config: EvalConfig, logs=None):
    """Train on the whole corpus and package a TrainedSegmenter.

    Without a fixed config.alpha the fusion weight is tuned on the
    training texts themselves (no held-out split at train time).
    """
    feature_set = _check_feature_set(feature_set, corpus)
    if not feature_set.has_lexical:
        raise ContractError("a segmenter needs a lexical model")
    texts = sorted(corpus, key=lambda t: t.id)
    models = _train_pair(variant, feature_set, texts, config, fold_index=0, logs=logs)
    lex_bundle, _, pros_bundle, _, stats = models
    return TrainedSegmenter(
        lexical=lex_bundle,
        alpha=resolve_alpha(feature_set, config, _predictions(models, texts)),
        prosodic=pros_bundle,
        prosody_stats=stats,
    )
