"""Numeric inputs for the models: the two encoders and the embedding seed.

The lexical model consumes word and tag embedding rows concatenated per
token (word first, tag second), whose ids LexicalEncoder looks up in
token lists; the prosodic model consumes 13-dim vectors that
ProsodicEncoder z-scores. An encoder turns a text into a NetBatch of
that one text, (m, 1) ids or (m, 1, 13) vectors, and builds inputs
only: the training loss is the one reader of gold labels, so
train_model encodes them (encode_labels). Scaling statistics and
vocabularies are always fit on training data only and applied
unchanged at test time.
"""

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .corpus import LABEL_B, PROSODY_DIM, text_lines
from .errors import ContractError, ParseError
from .numerics import NetBatch, glorot_init

# Seed of the shared out-of-vocabulary vector drawn when a pretrained
# table is loaded; fixed so the row is identical across process runs.
OOV_SEED = 0x00B5EED


class EmbeddingTable:
    """The seed of a new model's embedding rows: its tokens in row order and
    their vectors, with one out-of-vocabulary row after the tokens'."""

    def __init__(self, tokens, vectors):
        self.tokens = list(tokens)
        self.vectors = np.asarray(vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[1] < 1:
            raise ContractError("embedding vectors must be a nonempty 2-D array")
        if len(self.tokens) + 1 != self.vectors.shape[0]:
            raise ContractError(
                f"{len(self.tokens)} tokens but the table has "
                f"{self.vectors.shape[0]} rows (need one per token + 1 for OOV)"
            )
        if len(set(self.tokens)) != len(self.tokens):
            raise ContractError("a token repeats; each token has one row")

    @property
    def dim(self):
        return self.vectors.shape[1]

    @classmethod
    def from_tokens(cls, tokens, dim, rng):
        """Fresh table over the given tokens, Glorot-initialised (plus OOV)."""
        unique = sorted(set(tokens))
        return cls(unique, glorot_init(len(unique) + 1, dim, rng))


def load_embeddings(path):
    """Read a pretrained table: header "<count> <dim>", then "word v1..vd".

    Keys are lowercased; an OOV row drawn from the fixed OOV_SEED is
    appended so unknown words share one deterministic vector.
    """
    lines = text_lines(path)
    header = next(lines, "").split()
    if len(header) != 2:
        raise ParseError("expected header '<vocab_size> <dim>'", str(path), 1)
    try:
        count, dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"bad header: {exc}", str(path), 1) from exc
    if count < 1 or dim < 1:
        raise ParseError("vocab size and dim must be positive", str(path), 1)
    # The table grows with the rows read, never from the header's count.
    vectors = {}  # word -> row, in file order
    for line_no, line in enumerate(lines, start=2):
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
        if word in vectors:
            raise ParseError(f"duplicate word {word!r}", str(path), line_no)
        if len(vectors) >= count:
            raise ParseError(
                f"more than the declared {count} words", str(path), line_no
            )
        try:
            row = np.array([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ParseError(f"bad value: {exc}", str(path), line_no) from exc
        if not np.isfinite(row).all():
            raise ParseError("embedding values must be finite", str(path), line_no)
        vectors[word] = row
    if len(vectors) != count:
        raise ParseError(f"declared {count} words, found {len(vectors)}", str(path))
    oov = np.random.default_rng(OOV_SEED).normal(0.0, np.sqrt(2.0 / (1 + dim)), size=dim)
    return EmbeddingTable(list(vectors), np.array([*vectors.values(), oov]))


# ---------------------------------------------------------- input building


def encode_labels(labels):
    return np.array([1 if lab == LABEL_B else 0 for lab in labels], dtype=np.intp)


@dataclass(frozen=True)
class ProsodyStats:
    """Per-dimension mean and scale of a training split's prosodic vectors;
    every scale is finite and positive, so z-scoring never divides by 0."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=np.float64))
        if self.mean.shape != (PROSODY_DIM,) or self.std.shape != (PROSODY_DIM,):
            raise ContractError(f"stats must have {PROSODY_DIM} dimensions")
        if not np.all(np.isfinite(self.std) & (self.std > 0.0)):
            raise ContractError("standard deviations must be finite and positive")


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


# --------------------------------------------------------------- encoders


def _row_ids(rows, tokens):
    """The (m, 1) column of each token's row in rows (token -> row), or of
    the OOV row len(rows) for a token outside it; None without rows."""
    if rows is None:
        return None
    ids = map(rows.get, tokens, repeat(len(rows)))
    return np.fromiter(ids, dtype=np.intp, count=len(tokens))[:, None]


class LexicalEncoder:
    """Turns texts into one-text blocks of embedding ids for the lexical
    model: a token's id is its row in its vocabulary, a token list in row
    order, or else the OOV row after them (token -> row dicts built once)."""

    def __init__(self, word_tokens=None, tag_tokens=None):
        if word_tokens is None and tag_tokens is None:
            raise ContractError("lexical encoder needs at least one vocabulary")
        self.word_rows, self.tag_rows = (
            None if tokens is None else {tok: row for row, tok in enumerate(tokens)}
            for tokens in (word_tokens, tag_tokens)
        )

    def encode(self, text):
        return NetBatch(
            np.array([len(text)], dtype=np.intp),
            word_ids=_row_ids(self.word_rows, text.tokens),
            tag_ids=_row_ids(self.tag_rows, text.pos_tags),
        )


class ProsodicEncoder:
    """Turns texts into one-text blocks of z-scored dense inputs for the
    prosodic model; a text without prosody is refused."""

    def __init__(self, stats):
        self.stats = stats

    def encode(self, text):
        if text.prosody is None:
            raise ContractError(
                f"text {text.id!r} has no prosody; use the lexical-only mode (alpha=1)"
            )
        z = (text.prosody - self.stats.mean) / self.stats.std
        return NetBatch(np.array([len(text)], dtype=np.intp), dense=z[:, None])
