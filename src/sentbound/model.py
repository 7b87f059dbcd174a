"""Model assembly, probability fusion, boundary scoring, and the model container.

A trained segmenter couples a lexical model (word/tag embeddings in front
of the sequence network) with an optional prosodic model (dense 13-dim
inputs) and a fusion weight alpha in [0, 1]: per-word boundary
probabilities are combined as

    fused = alpha * p_lexical + (1 - alpha) * p_prosodic

and the predicted label is the argmax of the fused row, with exact ties
resolved to NB (the majority class).

Each model is a ModelBundle that owns its whole input identity (its
vocabularies as token lists in row order, or its prosody statistics)
and the encoder built from it. Its net is SequenceNet(variant, hp,
input sizes), and the variant and Hyperparams hp (re-exported here) live
on the net alone: a new bundle (training.make_lexical_bundle and
make_prosodic_bundle) and a loaded one (load_model) both build the net
that way.
predict_texts is the one place that turns texts into probabilities, for
the segmenter and the evaluation runs alike, under one or more bundles
at once: nets whose LSTMs have one width run as one pass per block, so
the lexical and prosodic LSTMs advance in one loop (lockstep_groups).
The LSTM and output weights are prepared for inference where the nets
that run together live: a TrainedSegmenter prepares them once and keeps
them in passes, with the lexical net's pass alone, on views of its
half, for requests at alpha = 1, so a request builds nothing that
depends only on the model; an evaluation run prepares them once per
call of predict_texts. Bundles hold no prepared weights, so training in
place leaves none stale. A prediction keeps no backward state.
"""

import json
import struct
import zlib
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .corpus import LABEL_B, LABEL_NB, PROSODY_DIM
from .errors import ContractError, ModelFileError
from .features import LexicalEncoder, ProsodicEncoder, ProsodyStats
from .numerics import Hyperparams, NetBatch, SequenceNet
from .numerics.network import blocks as row_blocks

MAGIC = b"DBND"
FORMAT_VERSION = 1


FEATURE_PARTS = ("embeddings", "pos", "prosody")


@dataclass(frozen=True)
class FeatureSet:
    """Which inputs feed the models: embedding and/or PoS and/or prosody."""

    words: bool
    tags: bool
    prosody: bool

    @property
    def has_lexical(self):
        return self.words or self.tags

    @property
    def name(self):
        """The parts in FEATURE_PARTS order joined by '+'; "all" for all three."""
        flags = (self.words, self.tags, self.prosody)
        parts = [part for part, on in zip(FEATURE_PARTS, flags) if on]
        return "all" if len(parts) == len(FEATURE_PARTS) else "+".join(parts)


def parse_feature_set(name):
    """The FeatureSet of distinct FEATURE_PARTS joined by '+' in any order,
    case and spacing, or of "all"."""
    parts = [part.strip() for part in name.lower().split("+")]
    if parts == ["all"]:
        parts = list(FEATURE_PARTS)
    if not set(parts) <= set(FEATURE_PARTS) or len(set(parts)) != len(parts):
        raise ContractError(
            f"unknown feature set {name!r}; join distinct parts of "
            f"{', '.join(FEATURE_PARTS)} with '+', or use 'all'"
        )
    return FeatureSet(*(part in parts for part in FEATURE_PARTS))


@dataclass
class ModelBundle:
    """One trained (or initialised) network with its input identity: the
    vocabularies of a lexical model, each a token list in row order of
    its embedding params, or the prosody statistics of a prosodic one.
    params are views of one vector in the net's layout, as
    SequenceNet.init_params and load_model make them."""

    net: SequenceNet
    params: dict
    word_tokens: list | None = None
    tag_tokens: list | None = None
    prosody_stats: ProsodyStats | None = None

    def __post_init__(self):
        if self.net.dense_dim and self.prosody_stats is None:
            raise ContractError("a prosodic model needs prosody statistics")

    @cached_property
    def encoder(self):
        """ProsodicEncoder over the stats, else LexicalEncoder over the
        vocabularies (built once: indexing a vocabulary is not free)."""
        if self.prosody_stats is not None:
            return ProsodicEncoder(self.prosody_stats)
        return LexicalEncoder(self.word_tokens, self.tag_tokens)


def lockstep_groups(bundles):
    """The passes that predict texts with bundles: one per group of nets
    with LSTMs of one width, whose LSTMs run in one loop, and one per
    other net. Returns (indices, prepared) per pass, in order of first
    index: the bundles' indices, ascending, and the PassWeights of their
    nets in that order (SequenceNet.prepare). The prepared weights stay
    valid while the bundles' params do."""
    groups = {}
    for i, bundle in enumerate(bundles):
        net = bundle.net
        key = ("lstm", net.hp.rec_units) if net.has_lstm else ("alone", i)
        groups.setdefault(key, []).append(i)
    passes = []
    for indices in groups.values():
        first, *rest = (bundles[i] for i in indices)
        partners = [(b.net, b.params) for b in rest]
        passes.append((tuple(indices), first.net.prepare(first.params, partners)))
    return passes


def predict_texts(bundles, texts, batch_size=1, passes=None):
    """The (m, 2) probability rows of each text under each bundle: one
    list per bundle, in order.

    passes, lockstep_groups(bundles) when not given, says which nets run
    together and holds their prepared weights. The texts, each encoded
    as a one-text NetBatch, go through the network batch_size at a time
    like a training batch, so that a block's transient arrays (the conv
    window stack above all) grow no larger than in training; each batch
    is stacked into blocks of at most BLOCK_ROWS padded rows (blocks of
    its texts' lengths), one SequenceNet.forward per pass and block, and
    each text's live prefix is cut out of its block's probs.
    """
    if passes is None:
        passes = lockstep_groups(bundles)
    encoded = [[bundle.encoder.encode(text) for text in texts] for bundle in bundles]
    lengths = [len(block) for block in encoded[0]]
    out = [[] for _ in bundles]
    for indices, prepared in passes:
        first, *rest = (bundles[k] for k in indices)
        for lo in range(0, len(lengths), batch_size):
            batch = lengths[lo : lo + batch_size]
            for start, stop in row_blocks(batch):
                stacked = [NetBatch.stack(encoded[k][lo + start : lo + stop])
                           for k in indices]
                partners = [(b.net, b.params, block) for b, block in zip(rest, stacked[1:])]
                probs, _ = first.net.forward(first.params, stacked[0], prepared=prepared,
                                             partners=partners)
                for k, p in zip(indices, probs if partners else [probs]):
                    out[k].extend(p[:m, b].copy() for b, m in enumerate(batch[start:stop]))
    return out


# ------------------------------------------------------------------ fusion


def labels_from_probs(probs):
    """Argmax labels with exact ties going to NB."""
    probs = np.asarray(probs)
    return [LABEL_B if b else LABEL_NB for b in (probs[:, 1] > probs[:, 0]).tolist()]


def check_alpha(alpha, has_prosodic=True):
    """ContractError unless alpha is a number in [0, 1], and 1 without a prosodic model."""
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0 <= alpha <= 1:
        raise ContractError(f"alpha must be in [0, 1], got {alpha!r}")
    if not has_prosodic and alpha < 1.0:
        raise ContractError("alpha < 1 needs a prosodic model")


def fuse(p_lex, p_pros, alpha):
    """Convex combination of the two models' probability rows.

    Returns (labels, fused). Either matrix may be None where its weight
    is 0; the endpoints alpha = 1 and alpha = 0 reproduce the lexical and
    prosodic rows bit for bit.
    """
    check_alpha(alpha, p_pros is not None)
    if p_lex is None and alpha > 0.0:
        raise ContractError("alpha > 0 needs a lexical model")
    if p_lex is not None and p_pros is not None:
        check_same_shape(p_lex, p_pros)
    if alpha == 1.0:
        fused = np.array(p_lex, dtype=np.float64)
    elif alpha == 0.0:
        fused = np.array(p_pros, dtype=np.float64)
    else:
        p_pros = np.asarray(p_pros, dtype=np.float64)
        fused = p_pros + alpha * (np.asarray(p_lex, dtype=np.float64) - p_pros)
    return labels_from_probs(fused), fused


def check_same_shape(p_lex, p_pros):
    """ContractError unless two probability matrices share one shape."""
    if np.shape(p_lex) != np.shape(p_pros):
        raise ContractError(
            f"probability shapes disagree: {np.shape(p_lex)} vs {np.shape(p_pros)}"
        )


# ----------------------------------------------------------------- scoring


def boundary_counts(gold, pred):
    """(tp, fp, fn) of the boundary class over parallel label sequences."""
    check_same_length(gold, pred)
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        if p == LABEL_B and g == LABEL_B:
            tp += 1
        elif p == LABEL_B:
            fp += 1
        elif g == LABEL_B:
            fn += 1
    return tp, fp, fn


def check_same_length(gold, pred):
    """ContractError unless two label sequences share one length."""
    if len(gold) != len(pred):
        raise ContractError(
            f"label sequences disagree in length: {len(gold)} vs {len(pred)}"
        )


def prf_from_counts(tp, fp, fn):
    """Boundary (precision, recall, F1); a zero denominator gives 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# --------------------------------------------------------------- segmenter


@dataclass
class TrainedSegmenter:
    """Lexical model, optional prosodic model, and fusion weight."""

    lexical: ModelBundle
    alpha: float = 1.0
    prosodic: ModelBundle | None = None

    def __post_init__(self):
        check_alpha(self.alpha, self.prosodic is not None)

    @cached_property
    def passes(self):
        """The passes of a request, built once per segmenter: (alone,
        joint). joint is lockstep_groups of the lexical and prosodic
        bundles, which prepares their weights once; alone runs the lexical
        bundle by itself, on views of its part of joint's first pass, in
        which the lexical net comes first."""
        joint = lockstep_groups([b for b in (self.lexical, self.prosodic) if b is not None])
        _, prepared = joint[0]
        return [((0,), prepared.first(1))], joint

    def predict_probs(self, text, alpha=None):
        """Per-word fused probabilities for one text. Returns (labels, fused);
        the prosodic model runs only when its weight 1 - alpha is nonzero.
        The prepared weights (passes) are kept while the params stay as
        they are."""
        alpha = self.alpha if alpha is None else alpha
        check_alpha(alpha, self.prosodic is not None)  # fuse's check, before any net runs
        alone, joint = self.passes
        if alpha < 1.0:  # so there is a prosodic model (check_alpha)
            [p_lex], [p_pros] = predict_texts((self.lexical, self.prosodic), [text],
                                              passes=joint)
        else:
            [[p_lex]] = predict_texts((self.lexical,), [text], passes=alone)
            p_pros = None
        return fuse(p_lex, p_pros, alpha)


# ------------------------------------------------------------- persistence


def _pack_block(name, array):
    array = np.asarray(array, dtype=np.float64)
    if array.ndim == 1:
        rows, cols = -1, array.shape[0]
    elif array.ndim == 2:
        rows, cols = array.shape
    else:
        raise ContractError(f"cannot serialise {array.ndim}-D parameter {name!r}")
    encoded = name.encode("utf-8")
    header = struct.pack("<H", len(encoded)) + encoded + struct.pack("<iI", rows, cols)
    return header + array.astype("<f8").tobytes(order="C")


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise ModelFileError("model file ends unexpectedly")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u16(self):
        return struct.unpack("<H", self.take(2))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def i32(self):
        return struct.unpack("<i", self.take(4))[0]


_BUNDLE_META_KEYS = {"variant", "hyperparams", "word_tokens", "tag_tokens", "dense_dim"}


def _bundle_meta(bundle):
    return {
        "variant": bundle.net.variant,
        "hyperparams": asdict(bundle.net.hp),
        "word_tokens": bundle.word_tokens,
        "tag_tokens": bundle.tag_tokens,
        "dense_dim": bundle.net.dense_dim,
    }


def save_model(segmenter: TrainedSegmenter, path):
    """Write the binary container: DBND magic, version, meta, blocks, CRC."""
    meta = {
        "alpha": segmenter.alpha,
        "lexical": _bundle_meta(segmenter.lexical),
        "prosodic": None if segmenter.prosodic is None else _bundle_meta(segmenter.prosodic),
    }
    blocks = []
    for name, value in segmenter.lexical.params.items():
        blocks.append(_pack_block(f"lexical/{name}", value))
    if segmenter.prosodic is not None:
        for name, value in segmenter.prosodic.params.items():
            blocks.append(_pack_block(f"prosodic/{name}", value))
        blocks.append(_pack_block("stats/mean", segmenter.prosodic.prosody_stats.mean))
        blocks.append(_pack_block("stats/std", segmenter.prosodic.prosody_stats.std))
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = (
        MAGIC
        + struct.pack("<I", FORMAT_VERSION)
        + struct.pack("<I", len(meta_bytes))
        + meta_bytes
        + struct.pack("<I", len(blocks))
        + b"".join(blocks)
    )
    body += struct.pack("<I", zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(body)


def _rebuild_bundle(meta, blocks, prefix, stats=None):
    if not isinstance(meta, dict) or not _BUNDLE_META_KEYS <= meta.keys():
        raise ModelFileError(f"{prefix} meta lacks one of {sorted(_BUNDLE_META_KEYS)}")
    stored = meta["hyperparams"]
    if isinstance(stored, dict):
        # containers written before the unread epochs field was dropped
        stored = {key: value for key, value in stored.items() if key != "epochs"}
    try:
        hp = Hyperparams(**stored)
    except (TypeError, ContractError) as exc:
        raise ModelFileError(f"{prefix} meta has bad hyperparams: {exc}") from exc
    word_tokens = meta["word_tokens"]
    tag_tokens = meta["tag_tokens"]
    for key, tokens in (("word_tokens", word_tokens), ("tag_tokens", tag_tokens)):
        if tokens is not None and not (
            isinstance(tokens, list) and all(isinstance(tok, str) for tok in tokens)
        ):
            raise ModelFileError(f"{prefix} meta {key} is neither null nor a list of strings")
        if tokens is not None and len(set(tokens)) != len(tokens):
            # a vocabulary maps each token to one row
            raise ModelFileError(f"{prefix} meta {key} repeats a token")
    # a prosodic model reads the dense prosody vectors, a lexical one none
    dense_dim = 0 if stats is None else PROSODY_DIM
    if type(meta["dense_dim"]) is not int or meta["dense_dim"] != dense_dim:
        raise ModelFileError(
            f"{prefix} meta has dense_dim {meta['dense_dim']!r}, expected {dense_dim}"
        )
    rows = [0 if tokens is None else len(tokens) + 1 for tokens in (word_tokens, tag_tokens)]
    try:
        net = SequenceNet(meta["variant"], hp, *rows, dense_dim)
    except ContractError as exc:
        raise ModelFileError(f"{prefix} meta describes no valid net: {exc}") from exc
    params = net.views(np.empty(net.size))
    for name, view in params.items():
        key = f"{prefix}/{name}"
        if key not in blocks:
            raise ModelFileError(f"missing parameter block {key!r}")
        value = blocks[key]
        if value.shape != view.shape:
            raise ModelFileError(
                f"parameter {key!r} has shape {value.shape}, expected {view.shape}"
            )
        view[...] = value
    return ModelBundle(net, params, word_tokens, tag_tokens, stats)


def load_model(path) -> TrainedSegmenter:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != MAGIC:
        raise ModelFileError(f"{path}: not a model container (bad magic)")
    version = struct.unpack("<I", data[4:8])[0]
    if version > FORMAT_VERSION:
        raise ModelFileError(
            f"{path}: format version {version} is newer than supported {FORMAT_VERSION}"
        )
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ModelFileError(f"{path}: checksum mismatch (corrupt or truncated file)")
    reader = _Reader(data[:-4])
    reader.take(8)  # magic + version
    try:
        meta = json.loads(reader.take(reader.u32()).decode("utf-8"))
    except ValueError as exc:  # includes UnicodeDecodeError
        raise ModelFileError(f"{path}: unreadable meta: {exc}") from exc
    if not isinstance(meta, dict) or not {"alpha", "lexical", "prosodic"} <= meta.keys():
        raise ModelFileError(f"{path}: meta needs alpha, lexical and prosodic entries")
    alpha = meta["alpha"]
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ModelFileError(f"{path}: meta alpha {alpha!r} is not a number")
    blocks = {}
    for _ in range(reader.u32()):
        try:
            name = reader.take(reader.u16()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFileError(f"{path}: a parameter block name is not UTF-8") from exc
        rows = reader.i32()
        cols = reader.u32()
        count = cols if rows < 0 else rows * cols
        flat = np.frombuffer(reader.take(count * 8), dtype="<f8").astype(np.float64)
        if not np.isfinite(flat).all():
            raise ModelFileError(f"{path}: parameter block {name!r} is not finite")
        blocks[name] = flat if rows < 0 else flat.reshape(rows, cols)
    lexical = _rebuild_bundle(meta["lexical"], blocks, "lexical")
    prosodic = None
    if meta["prosodic"] is not None:
        if not {"stats/mean", "stats/std"} <= blocks.keys():
            raise ModelFileError(f"{path}: prosodic model without prosody statistics")
        try:
            stats = ProsodyStats(blocks["stats/mean"], blocks["stats/std"])
        except ContractError as exc:
            raise ModelFileError(f"{path}: bad prosody statistics: {exc}") from exc
        prosodic = _rebuild_bundle(meta["prosodic"], blocks, "prosodic", stats)
    try:
        return TrainedSegmenter(lexical=lexical, alpha=alpha, prosodic=prosodic)
    except ContractError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
