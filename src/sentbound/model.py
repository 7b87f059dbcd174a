"""Model assembly, probability fusion, boundary scoring, and the model container.

A trained segmenter couples a lexical model (word/tag embeddings in front
of the sequence network) with an optional prosodic model (dense 13-dim
inputs) and a fusion weight alpha in [0, 1]: per-word boundary
probabilities are combined as

    fused = alpha * p_lexical + (1 - alpha) * p_prosodic

and the predicted label is the argmax of the fused row, with exact ties
resolved to NB (the majority class).
"""

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .corpus import LABEL_B, LABEL_NB, PROSODY_DIM
from .errors import ContractError, ModelFileError
from .features import EmbeddingTable, LexicalEncoder, ProsodicEncoder, ProsodyStats
from .numerics import NetConfig, SequenceNet

MAGIC = b"DBND"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class Hyperparams:
    """Architecture and optimizer settings of one sequence model."""

    word_dim: int = 50
    tag_dim: int = 10
    conv_filters: int = 100
    conv_width: int = 7
    pool_width: int = 3
    rec_units: int = 100
    mlp_hidden: int = 100
    gamma: float = 0.9
    eta: float = 0.001
    dropout_rate: float = 0.5
    epochs: int = 20

    def __post_init__(self):
        positive = (
            self.word_dim, self.tag_dim, self.conv_filters, self.conv_width,
            self.pool_width, self.rec_units, self.mlp_hidden, self.eta, self.epochs,
        )
        if any(v <= 0 for v in positive):
            raise ContractError("hyperparameters must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise ContractError("gamma must be in (0, 1)")

    @classmethod
    def lexical(cls, **overrides):
        return cls(**overrides)

    @classmethod
    def prosodic(cls, **overrides):
        overrides.setdefault("conv_filters", 8)
        overrides.setdefault("conv_width", 5)
        return cls(**overrides)

    def to_dict(self):
        return {
            "word_dim": self.word_dim, "tag_dim": self.tag_dim,
            "conv_filters": self.conv_filters, "conv_width": self.conv_width,
            "pool_width": self.pool_width, "rec_units": self.rec_units,
            "mlp_hidden": self.mlp_hidden, "gamma": self.gamma, "eta": self.eta,
            "dropout_rate": self.dropout_rate, "epochs": self.epochs,
        }


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
        parts = []
        if self.words:
            parts.append("embeddings")
        if self.tags:
            parts.append("pos")
        if self.prosody:
            parts.append("prosody")
        if len(parts) == 3:
            return "all"
        return "+".join(parts)


FEATURE_SETS = {
    "embeddings": FeatureSet(True, False, False),
    "pos": FeatureSet(False, True, False),
    "prosody": FeatureSet(False, False, True),
    "embeddings+pos": FeatureSet(True, True, False),
    "pos+prosody": FeatureSet(False, True, True),
    "embeddings+prosody": FeatureSet(True, False, True),
    "all": FeatureSet(True, True, True),
}


def parse_feature_set(name):
    key = "+".join(sorted(part.strip() for part in name.lower().split("+")))
    aliases = {
        "embeddings": "embeddings", "pos": "pos", "prosody": "prosody",
        "embeddings+pos": "embeddings+pos", "pos+prosody": "pos+prosody",
        "embeddings+prosody": "embeddings+prosody",
        "embeddings+pos+prosody": "all", "all": "all",
    }
    if key not in aliases:
        raise ContractError(
            f"unknown feature set {name!r}; choose from {sorted(FEATURE_SETS)}"
        )
    return FEATURE_SETS[aliases[key]]


# ----------------------------------------------------------- configurations


def lexical_config(variant, hp, n_word_rows, n_tag_rows):
    """NetConfig of a lexical model over embedding tables (rows incl. OOV)."""
    if not (n_word_rows or n_tag_rows):
        raise ContractError("lexical model needs at least one embedding table")
    return NetConfig(
        variant=variant,
        conv_filters=hp.conv_filters,
        conv_width=hp.conv_width,
        pool_width=hp.pool_width,
        rec_units=hp.rec_units,
        hidden_units=hp.mlp_hidden,
        dropout=hp.dropout_rate,
        word_vocab=n_word_rows,
        word_dim=hp.word_dim if n_word_rows else 0,
        tag_vocab=n_tag_rows,
        tag_dim=hp.tag_dim if n_tag_rows else 0,
    )


def prosodic_config(variant, hp):
    """NetConfig of a prosodic model over dense 13-dim inputs."""
    return NetConfig(
        variant=variant,
        conv_filters=hp.conv_filters,
        conv_width=hp.conv_width,
        pool_width=hp.pool_width,
        rec_units=hp.rec_units,
        hidden_units=hp.mlp_hidden,
        dropout=hp.dropout_rate,
        dense_dim=PROSODY_DIM,
    )


@dataclass
class ModelBundle:
    """One trained (or initialised) network with its input identity."""

    net: SequenceNet
    params: dict
    hyperparams: Hyperparams
    word_tokens: list | None = None
    tag_tokens: list | None = None

    @property
    def variant(self):
        return self.net.cfg.variant

    def word_table(self):
        if self.word_tokens is None:
            return None
        return EmbeddingTable.from_rows(self.word_tokens, self.params["emb_word"])

    def tag_table(self):
        if self.tag_tokens is None:
            return None
        return EmbeddingTable.from_rows(self.tag_tokens, self.params["emb_tag"])


# ------------------------------------------------------------------ fusion


def labels_from_probs(probs):
    """Argmax labels with exact ties going to NB."""
    probs = np.asarray(probs)
    return [LABEL_B if row[1] > row[0] else LABEL_NB for row in probs]


def fuse(p_lex, p_pros=None, alpha=1.0):
    """Convex combination of the two models' probability rows.

    Returns (labels, fused). A missing prosodic matrix forces alpha = 1;
    the endpoints alpha = 1 and alpha = 0 reproduce the lexical and
    prosodic rows bit for bit.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha must be in [0, 1], got {alpha}")
    p_lex = np.asarray(p_lex, dtype=np.float64)
    if p_pros is None:
        if alpha != 1.0:
            raise ContractError("alpha < 1 needs a prosodic model")
        fused = p_lex.copy()
    else:
        p_pros = np.asarray(p_pros, dtype=np.float64)
        if p_pros.shape != p_lex.shape:
            raise ContractError(
                f"probability shapes disagree: {p_lex.shape} vs {p_pros.shape}"
            )
        if alpha == 1.0:
            fused = p_lex.copy()
        elif alpha == 0.0:
            fused = p_pros.copy()
        else:
            fused = p_pros + alpha * (p_lex - p_pros)
    return labels_from_probs(fused), fused


# ----------------------------------------------------------------- scoring


def boundary_counts(gold, pred):
    """(tp, fp, fn) of the boundary class over parallel label sequences."""
    if len(gold) != len(pred):
        raise ContractError(
            f"label sequences disagree in length: {len(gold)} vs {len(pred)}"
        )
    tp = fp = fn = 0
    for g, p in zip(gold, pred):
        if p == LABEL_B and g == LABEL_B:
            tp += 1
        elif p == LABEL_B:
            fp += 1
        elif g == LABEL_B:
            fn += 1
    return tp, fp, fn


def prf_from_counts(tp, fp, fn):
    """Boundary (precision, recall, F1); a zero denominator gives 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# --------------------------------------------------------------- segmenter


@dataclass
class TrainedSegmenter:
    """Lexical model, optional prosodic model, fusion weight, and stats."""

    lexical: ModelBundle
    alpha: float = 1.0
    prosodic: ModelBundle | None = None
    prosody_stats: ProsodyStats | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ContractError("alpha must be in [0, 1]")
        if self.prosodic is None and self.alpha < 1.0:
            raise ContractError("alpha < 1 needs a prosodic model")
        if self.prosodic is not None and self.prosody_stats is None:
            raise ContractError("a prosodic model needs prosody statistics")

    def encode_lexical(self, text):
        return LexicalEncoder(self.lexical.word_table(), self.lexical.tag_table()).encode(text)

    def predict_probs(self, text, alpha=None):
        """Per-word fused probabilities for one text. Returns (labels, fused)."""
        alpha = self.alpha if alpha is None else alpha
        p_lex, _ = self.lexical.net.forward(self.lexical.params, self.encode_lexical(text))
        p_pros = None
        if self.prosodic is not None and alpha < 1.0:
            if text.prosody is None:
                raise ContractError(
                    f"text {text.id!r} has no prosody but the model fuses a "
                    "prosodic component; pass alpha=1.0 for lexical-only use"
                )
            enc = ProsodicEncoder(self.prosody_stats)
            p_pros, _ = self.prosodic.net.forward(self.prosodic.params, enc.encode(text))
        return fuse(p_lex, p_pros, alpha if p_pros is not None else 1.0)

    def predict(self, text, alpha=None):
        labels, _ = self.predict_probs(text, alpha=alpha)
        return labels


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
        "variant": bundle.variant,
        "hyperparams": bundle.hyperparams.to_dict(),
        "word_tokens": bundle.word_tokens,
        "tag_tokens": bundle.tag_tokens,
        "dense_dim": bundle.net.cfg.dense_dim,
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
        blocks.append(_pack_block("stats/mean", segmenter.prosody_stats.mean))
        blocks.append(_pack_block("stats/std", segmenter.prosody_stats.std))
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


def _rebuild_bundle(meta, blocks, prefix):
    if not isinstance(meta, dict) or not _BUNDLE_META_KEYS <= meta.keys():
        raise ModelFileError(f"{prefix} meta lacks one of {sorted(_BUNDLE_META_KEYS)}")
    try:
        hp = Hyperparams(**meta["hyperparams"])
    except TypeError as exc:
        raise ModelFileError(f"{prefix} meta has bad hyperparams: {exc}") from exc
    word_tokens = meta["word_tokens"]
    tag_tokens = meta["tag_tokens"]
    if meta["dense_dim"]:
        cfg = prosodic_config(meta["variant"], hp)
    else:
        cfg = lexical_config(
            meta["variant"],
            hp,
            len(word_tokens) + 1 if word_tokens is not None else 0,
            len(tag_tokens) + 1 if tag_tokens is not None else 0,
        )
    net = SequenceNet(cfg)
    params = {}
    for name, shape in net.param_shapes().items():
        key = f"{prefix}/{name}"
        if key not in blocks:
            raise ModelFileError(f"missing parameter block {key!r}")
        value = blocks[key]
        if value.shape != shape:
            raise ModelFileError(
                f"parameter {key!r} has shape {value.shape}, expected {shape}"
            )
        params[name] = value
    return ModelBundle(net, params, hp, word_tokens=word_tokens, tag_tokens=tag_tokens)


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
    blocks = {}
    for _ in range(reader.u32()):
        name = reader.take(reader.u16()).decode("utf-8")
        rows = reader.i32()
        cols = reader.u32()
        count = cols if rows < 0 else rows * cols
        flat = np.frombuffer(reader.take(count * 8), dtype="<f8").astype(np.float64)
        blocks[name] = flat if rows < 0 else flat.reshape(rows, cols)
    lexical = _rebuild_bundle(meta["lexical"], blocks, "lexical")
    prosodic = None
    stats = None
    if meta["prosodic"] is not None:
        prosodic = _rebuild_bundle(meta["prosodic"], blocks, "prosodic")
        if not {"stats/mean", "stats/std"} <= blocks.keys():
            raise ModelFileError(f"{path}: prosodic model without prosody statistics")
        stats = ProsodyStats(blocks["stats/mean"], blocks["stats/std"])
    return TrainedSegmenter(
        lexical=lexical, alpha=meta["alpha"], prosodic=prosodic, prosody_stats=stats
    )
