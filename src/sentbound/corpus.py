"""Transcript corpora: reading, writing, labeling, and synthesis.

A transcript is a flat token sequence where each token carries a binary
label: B if the word precedes a sentence boundary, NB otherwise. Boundary
status is derived from the punctuation marks . ! ? : ; which are removed
from the token stream in the process; all marks collapse into the single
B class.

File formats
------------
tsv     one token per line: token<TAB>pos<TAB>prosody<TAB>label where
        prosody is 13 space-separated finite reals or a single "-". Each
        text is preceded by a header line "#id <text-id> group <GROUP>";
        texts are separated by blank lines. read_corpus reads it, from one
        file or from a directory of *.tsv files, and write_corpus writes it.
tokens  one text per file, tokens and inline punctuation separated by
        whitespace; no tags or prosody. The segment command reads it
        (labels_from_punctuation drops the marks), and the file's stem is
        the text id.

Every text input (these, embedding, config and manifest files) is UTF-8;
text_lines refuses a file that is not with a ParseError (CLI exit 2).
"""

import math
import zlib
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError

LABEL_B = "B"
LABEL_NB = "NB"
GROUPS = ("CTL", "MCI", "AD", "OTHER")
BOUNDARY_MARKS = frozenset(".!?:;")
PROSODY_DIM = 13
PAUSE_INDEX = 12  # the pause-duration slot of the prosodic vector
TAGSET_SIZE = 25
# The largest mean sentence length and mean sentence count per text that
# SynthSpec accepts. numpy's Poisson sampler refuses means above about
# 9.2e18; this cap is far below that and far above any corpus that fits
# in memory (the benchmark draws one text of ~1,300 sentences).
MAX_SYNTH_MEAN = 1e6
_BAD_TOKEN = "bad token {!r} (empty, whitespace, or uppercase)"


def _valid_token(token):
    """Whether token can be a word of a text: non-empty, lowercase, no whitespace."""
    return token.split() == [token] and token == token.lower()


@dataclass
class LabeledText:
    """One transcript with parallel tokens, tags, labels, optional prosody."""

    id: str
    tokens: list
    pos_tags: list
    labels: list
    prosody: np.ndarray | None = None
    group: str = "OTHER"

    def __post_init__(self):
        m = len(self.tokens)
        if m < 1:
            raise ContractError(f"text {self.id!r} is empty")
        if len(self.pos_tags) != m or len(self.labels) != m:
            raise ContractError(
                f"text {self.id!r}: parallel sequences disagree "
                f"({m} tokens, {len(self.pos_tags)} tags, {len(self.labels)} labels)"
            )
        for tok in self.tokens:
            if not _valid_token(tok):
                raise ContractError(f"text {self.id!r}: {_BAD_TOKEN.format(tok)}")
        bad = set(self.labels) - {LABEL_B, LABEL_NB}
        if bad:
            raise ContractError(f"text {self.id!r}: unknown labels {sorted(bad)}")
        if self.prosody is not None:
            self.prosody = np.asarray(self.prosody, dtype=np.float64)
            if self.prosody.shape != (m, PROSODY_DIM):
                raise ContractError(
                    f"text {self.id!r}: prosody shape {self.prosody.shape}, "
                    f"expected ({m}, {PROSODY_DIM})"
                )
            if not np.isfinite(self.prosody).all():
                raise ContractError(f"text {self.id!r}: prosody values must be finite")
        if self.group not in GROUPS:
            raise ContractError(f"text {self.id!r}: unknown group {self.group!r}")

    def __len__(self):
        return len(self.tokens)

    @property
    def n_boundaries(self):
        return sum(1 for lab in self.labels if lab == LABEL_B)


@dataclass
class Corpus:
    texts: list
    name: str = "corpus"

    def __post_init__(self):
        ids = [t.id for t in self.texts]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ContractError(f"corpus {self.name!r}: duplicate text ids {dupes}")

    def __len__(self):
        return len(self.texts)

    def __iter__(self):
        return iter(self.texts)

    @property
    def has_prosody(self):
        """True when every text carries prosody (and there is at least one)."""
        return bool(self.texts) and all(t.prosody is not None for t in self.texts)


def _split_trailing_marks(token):
    """Split a raw token into its word core and trailing punctuation marks."""
    core = token
    trailing = []
    while core and not core[-1].isalnum():
        trailing.append(core[-1])
        core = core[:-1]
    trailing.reverse()
    return core, trailing


def labels_from_punctuation(raw_tokens):
    """Derive tokens and B/NB labels from a stream with inline punctuation.

    Any of . ! ? : ; marks the preceding word as B; every other mark is
    dropped silently, as are marks with no preceding word. Words are
    lowercased. Returns (tokens, labels).
    """
    tokens = []
    labels = []
    for raw in raw_tokens:
        core, marks = _split_trailing_marks(raw.lower())
        if core:
            tokens.append(core)
            labels.append(LABEL_NB)
        if tokens and any(mark in BOUNDARY_MARKS for mark in marks):
            labels[-1] = LABEL_B
    if not tokens:
        raise ContractError("token stream is empty after punctuation removal")
    return tokens, labels


# ------------------------------------------------------------------------ io

PLACEHOLDER_TAG = "<notag>"


def _fmt_real(value):
    return repr(float(value))


def _text_to_tsv_lines(text):
    lines = [f"#id {text.id} group {text.group}"]
    for i, token in enumerate(text.tokens):
        if text.prosody is None:
            pros = "-"
        else:
            pros = " ".join(_fmt_real(v) for v in text.prosody[i])
        lines.append(f"{token}\t{text.pos_tags[i]}\t{pros}\t{text.labels[i]}")
    return lines


def text_lines(path):
    """Yield the lines of a UTF-8 text file as text mode reads them, with
    every line end (CR LF, CR or LF) turned into LF. A file that is not
    UTF-8 raises ParseError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})", str(path)) from exc


def _parse_tsv_stream(lines, path):
    texts = []
    header = None
    rows = []

    def flush(line_no):
        if header is None:
            return
        if not rows:
            raise ParseError("header with no token lines", path, line_no)
        text_id, group = header
        tokens = [r[0] for r in rows]
        tags = [r[1] for r in rows]
        labels = [r[3] for r in rows]
        pros_rows = [r[2] for r in rows]
        prosody = None if pros_rows[0] is None else np.array(pros_rows, dtype=np.float64)
        try:
            texts.append(
                LabeledText(text_id, tokens, tags, labels, prosody=prosody, group=group)
            )
        except ContractError as exc:
            raise ParseError(str(exc), path, line_no) from exc

    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            flush(line_no)
            header, rows = None, []
            continue
        if line.startswith("#id"):
            flush(line_no)
            rows = []
            parts = line.split()
            if len(parts) != 4 or parts[2] != "group":
                raise ParseError(f"malformed header {line!r}", path, line_no)
            if parts[3] not in GROUPS:
                raise ParseError(f"unknown group {parts[3]!r}", path, line_no)
            header = (parts[1], parts[3])
            continue
        if header is None:
            raise ParseError("token line before '#id' header", path, line_no)
        cols = line.split("\t")
        if len(cols) != 4:
            raise ParseError(
                f"expected 4 tab-separated columns, got {len(cols)}", path, line_no
            )
        token, tag, pros_field, label = cols
        if not _valid_token(token):
            raise ParseError(_BAD_TOKEN.format(token), path, line_no)
        if label not in (LABEL_B, LABEL_NB):
            raise ParseError(f"unknown label symbol {label!r}", path, line_no)
        if pros_field.strip() == "-":
            pros = None
        else:
            values = pros_field.split()
            if len(values) != PROSODY_DIM:
                raise ParseError(
                    f"expected {PROSODY_DIM} prosodic values, got {len(values)}",
                    path,
                    line_no,
                )
            try:
                pros = [float(v) for v in values]
            except ValueError as exc:
                raise ParseError(f"bad prosodic value: {exc}", path, line_no) from exc
            if not all(map(math.isfinite, pros)):
                raise ParseError("prosody values must be finite", path, line_no)
        if rows and (pros is None) != (rows[0][2] is None):
            raise ParseError(
                f"text {header[0]!r} mixes '-' and numeric prosody", path, line_no
            )
        rows.append((token, tag, pros, label))
    flush(len(lines) + 1)
    return texts


def read_corpus(path):
    """Read a tsv corpus from a file or a directory of *.tsv files."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.tsv"))
        if not files:
            raise ParseError("no *.tsv files found", str(path))
    elif path.exists():
        files = [path]
    else:
        raise ParseError("no such file or directory", str(path))
    texts = []
    for f in files:
        texts.extend(_parse_tsv_stream(list(text_lines(f)), str(f)))
    corpus = Corpus(texts, name=path.stem if path.is_file() else path.name)
    if any(t.prosody is not None for t in corpus) and not corpus.has_prosody:
        raise ParseError("prosody must be present for all texts or none", str(path))
    return corpus


def write_corpus(corpus, path, one_file_per_text=False):
    """Write a corpus in tsv format to a file, or one file per text to a dir."""
    path = Path(path)
    if one_file_per_text:
        path.mkdir(parents=True, exist_ok=True)
        for text in corpus:
            content = "\n".join(_text_to_tsv_lines(text)) + "\n"
            (path / f"{text.id}.tsv").write_text(content, encoding="utf-8")
    else:
        chunks = ["\n".join(_text_to_tsv_lines(t)) for t in corpus]
        path.write_text("\n\n".join(chunks) + "\n", encoding="utf-8")


def corpus_checksum(corpus):
    """Stable content hash used by run manifests."""
    h = sha256()
    for text in corpus:
        for line in _text_to_tsv_lines(text):
            h.update(line.encode("utf-8"))
            h.update(b"\n")
    return h.hexdigest()


# -------------------------------------------------------------- statistics


@dataclass(frozen=True)
class CorpusStats:
    n_texts: int
    avg_sentences_per_text: float
    avg_words_per_sentence: float
    boundary_rate: float


def corpus_stats(corpus):
    """Totals-over-totals averages; sentences are counted as B labels."""
    if len(corpus) == 0:
        raise ContractError("empty corpus")
    n_words = sum(len(t) for t in corpus)
    n_sentences = sum(t.n_boundaries for t in corpus)
    return CorpusStats(
        n_texts=len(corpus),
        avg_sentences_per_text=n_sentences / len(corpus),
        avg_words_per_sentence=n_words / n_sentences if n_sentences else float("nan"),
        boundary_rate=n_sentences / n_words,
    )


# --------------------------------------------------------------- synthesis


@dataclass(frozen=True)
class SynthSpec:
    """Controls for generating a synthetic corpus with plantable cues.

    Each sentence's final word is the boundary; with probability
    cue_reliability the word cue_offset positions before the boundary is
    replaced by boundary_cue_token (offset clipped to the sentence start).
    Prosody is standard normal noise with the pause dimension shifted by
    prosody_cue_strength at boundary words. The cue token never occurs as
    a filler word, and each word maps to a fixed PoS tag from a 25-symbol
    tagset. Both means are at most MAX_SYNTH_MEAN.
    """

    n_texts: int
    mean_sentence_len: float = 13.0
    boundary_cue_token: str = "então"
    cue_reliability: float = 1.0
    prosody_cue_strength: float = 0.0
    vocab_size: int = 50
    seed: int = 0
    cue_offset: int = 0
    mean_sentences_per_text: float = 8.0
    name: str = "synth"

    def __post_init__(self):
        if self.n_texts < 1:
            raise ContractError("n_texts must be >= 1")
        # NaN fails both comparisons
        if not 2 <= self.mean_sentence_len <= MAX_SYNTH_MEAN:
            raise ContractError(
                f"mean_sentence_len must be finite, >= 2 and <= {MAX_SYNTH_MEAN:g}")
        if not 0 <= self.mean_sentences_per_text <= MAX_SYNTH_MEAN:
            raise ContractError(
                f"mean_sentences_per_text must be finite, >= 0 and <= {MAX_SYNTH_MEAN:g}")
        if not math.isfinite(self.prosody_cue_strength):
            raise ContractError("prosody_cue_strength must be finite")
        if not 0.0 <= self.cue_reliability <= 1.0:
            raise ContractError("cue_reliability must be in [0, 1]")
        if self.vocab_size < 2:
            raise ContractError("vocab_size must be >= 2")
        if self.cue_offset < 0:
            raise ContractError("cue_offset must be >= 0")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")


def _filler_word(index):
    """Deterministic short pseudo-words: a, b, ..., z, aa, ab, ..."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    word = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, 26)
        word = letters[rem] + word
    return word


def _tag_of(word):
    return f"t{zlib.crc32(word.encode('utf-8')) % TAGSET_SIZE:02d}"


def synth_generate(spec: SynthSpec) -> Corpus:
    """Generate a deterministic synthetic corpus from a SynthSpec."""
    rng = np.random.default_rng(spec.seed)
    fillers = []
    i = 0
    while len(fillers) < spec.vocab_size:
        w = _filler_word(i)
        i += 1
        if w != spec.boundary_cue_token:
            fillers.append(w)
    texts = []
    for text_idx in range(spec.n_texts):
        n_sentences = max(1, int(rng.poisson(spec.mean_sentences_per_text)))
        tokens = []
        labels = []
        for _ in range(n_sentences):
            length = 2 + int(rng.poisson(spec.mean_sentence_len - 2.0))
            words = [fillers[k] for k in rng.integers(0, len(fillers), size=length)]
            if rng.random() < spec.cue_reliability:
                words[max(0, length - 1 - spec.cue_offset)] = spec.boundary_cue_token
            tokens.extend(words)
            labels.extend([LABEL_NB] * (length - 1) + [LABEL_B])
        m = len(tokens)
        prosody = rng.standard_normal((m, PROSODY_DIM))
        is_boundary = np.array([lab == LABEL_B for lab in labels])
        prosody[is_boundary, PAUSE_INDEX] += spec.prosody_cue_strength
        texts.append(
            LabeledText(
                id=f"{spec.name}-{text_idx:03d}",
                tokens=tokens,
                pos_tags=[_tag_of(w) for w in tokens],
                labels=labels,
                prosody=prosody,
            )
        )
    return Corpus(texts, name=spec.name)
