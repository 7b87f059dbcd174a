"""Numeric inputs for the models: embedding lookup and prosodic scaling.

The lexical model consumes word and tag embedding rows concatenated per
token (word first, tag second); the prosodic model consumes z-scored
13-dim vectors. Scaling statistics and vocabularies are always fit on
training data only and applied unchanged at test time.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import LABEL_B, PROSODY_DIM
from .errors import ContractError, ParseError
from .numerics import NetInput, glorot_init

# Seed of the shared out-of-vocabulary vector drawn when a pretrained
# table is loaded; fixed so the row is identical across process runs.
OOV_SEED = 0x00B5EED


class EmbeddingTable:
    """Token-to-vector lookup with a dedicated out-of-vocabulary row."""

    def __init__(self, vocab, vectors):
        self.vocab = dict(vocab)
        self.vectors = np.asarray(vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise ContractError("embedding vectors must be a nonempty 2-D array")
        if len(self.vocab) + 1 != self.vectors.shape[0]:
            raise ContractError(
                f"vocab has {len(self.vocab)} entries but table has "
                f"{self.vectors.shape[0]} rows (need vocab + 1 for OOV)"
            )
        if any(not 0 <= row < self.oov_row for row in self.vocab.values()):
            raise ContractError("vocab row indices out of range")

    @property
    def dim(self):
        return self.vectors.shape[1]

    @property
    def oov_row(self):
        return self.vectors.shape[0] - 1

    def lookup(self, token):
        return self.vocab.get(token, self.oov_row)

    def encode(self, tokens):
        return np.array([self.lookup(t) for t in tokens], dtype=np.intp)

    def sorted_tokens(self):
        """Tokens in row order, used when persisting a trained model."""
        ordered = [None] * len(self.vocab)
        for token, row in self.vocab.items():
            ordered[row] = token
        return ordered

    @classmethod
    def from_tokens(cls, tokens, dim, rng):
        """Fresh table over the given tokens, Glorot-initialised (plus OOV)."""
        unique = sorted(set(tokens))
        vocab = {tok: i for i, tok in enumerate(unique)}
        vectors = glorot_init(len(unique) + 1, dim, rng)
        return cls(vocab, vectors)

    @classmethod
    def from_rows(cls, tokens_in_row_order, vectors):
        vocab = {tok: i for i, tok in enumerate(tokens_in_row_order)}
        return cls(vocab, vectors)


def load_embeddings(path):
    """Read a pretrained table: header "<count> <dim>", then "word v1..vd".

    Keys are lowercased; an OOV row drawn from the fixed OOV_SEED is
    appended so unknown words share one deterministic vector.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ParseError("expected header '<vocab_size> <dim>'", str(path), 1)
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ParseError(f"bad header: {exc}", str(path), 1) from exc
        if count < 1 or dim < 1:
            raise ParseError("vocab size and dim must be positive", str(path), 1)
        vocab = {}
        vectors = np.empty((count + 1, dim))
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != dim + 1:
                raise ParseError(
                    f"expected 1 word + {dim} values, got {len(parts)} fields",
                    str(path),
                    line_no,
                )
            word = parts[0].lower()
            if word in vocab:
                raise ParseError(f"duplicate word {word!r}", str(path), line_no)
            row = len(vocab)
            if row >= count:
                raise ParseError(
                    f"more than the declared {count} words", str(path), line_no
                )
            try:
                vectors[row] = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise ParseError(f"bad value: {exc}", str(path), line_no) from exc
            vocab[word] = row
    if len(vocab) != count:
        raise ParseError(f"declared {count} words, found {len(vocab)}", str(path))
    oov_rng = np.random.default_rng(OOV_SEED)
    vectors[count] = oov_rng.normal(0.0, np.sqrt(2.0 / (1 + dim)), size=dim)
    return EmbeddingTable(vocab, vectors)


# ---------------------------------------------------------- input building


def encode_labels(labels):
    return np.array([1 if lab == LABEL_B else 0 for lab in labels], dtype=np.intp)


def build_lexical_input(text, word_table=None, tag_table=None):
    """Word-then-tag embedding concatenation, one row per token."""
    if word_table is None and tag_table is None:
        raise ContractError("need at least one embedding table")
    parts = []
    if word_table is not None:
        parts.append(word_table.vectors[word_table.encode(text.tokens)])
    if tag_table is not None:
        parts.append(tag_table.vectors[tag_table.encode(text.pos_tags)])
    return parts[0].copy() if len(parts) == 1 else np.concatenate(parts, axis=1)


@dataclass(frozen=True)
class ProsodyStats:
    """Per-dimension mean and scale of a training split's prosodic vectors."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != (PROSODY_DIM,) or self.std.shape != (PROSODY_DIM,):
            raise ContractError(f"stats must have {PROSODY_DIM} dimensions")
        if np.any(self.std < 0):
            raise ContractError("negative standard deviation")


def fit_prosody_stats(training_texts):
    """Mean/std over every word position of every training text.

    Dimensions that are constant on the training set get std 1 so the
    scaled value is 0 rather than undefined.
    """
    rows = [t.prosody for t in training_texts if t.prosody is not None]
    if not rows:
        raise ContractError("no prosody in the training texts")
    stacked = np.concatenate(rows, axis=0)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return ProsodyStats(mean, std)


def build_prosodic_input(text, stats):
    """Z-scored prosodic matrix for one text."""
    if text.prosody is None:
        raise ContractError(
            f"text {text.id!r} has no prosody; use the lexical-only mode (alpha=1)"
        )
    return (text.prosody - stats.mean) / stats.std


# --------------------------------------------------------------- encoders


class LexicalEncoder:
    """Turns texts into embedding-id network inputs for the lexical model."""

    def __init__(self, word_table=None, tag_table=None):
        if word_table is None and tag_table is None:
            raise ContractError("lexical encoder needs at least one table")
        self.word_table = word_table
        self.tag_table = tag_table

    def encode(self, text):
        word_ids = None if self.word_table is None else self.word_table.encode(text.tokens)
        tag_ids = None if self.tag_table is None else self.tag_table.encode(text.pos_tags)
        return NetInput(
            word_ids=word_ids,
            tag_ids=tag_ids,
            label01=encode_labels(text.labels),
        )


class ProsodicEncoder:
    """Turns texts into z-scored dense inputs for the prosodic model."""

    def __init__(self, stats):
        self.stats = stats

    def encode(self, text):
        return NetInput(
            dense=build_prosodic_input(text, self.stats),
            label01=encode_labels(text.labels),
        )
