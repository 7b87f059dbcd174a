"""Tests for embedding seeds, the encoders' vocabulary lookup and OOV
rows, and prosodic scaling."""

from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from sentbound.corpus import LabeledText
from sentbound.errors import ContractError, ParseError
from sentbound.features import (
    EmbeddingTable,
    LexicalEncoder,
    ProsodicEncoder,
    ProsodyStats,
    encode_labels,
    fit_prosody_stats,
    load_embeddings,
)
from sentbound.numerics import Hyperparams
from sentbound.training import make_lexical_bundle


def write_embedding_file(path, words, dim, seed=0):
    rng = np.random.default_rng(seed)
    lines = [f"{len(words)} {dim}"]
    for word in words:
        values = " ".join(repr(float(v)) for v in rng.standard_normal(dim))
        lines.append(f"{word} {values}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadEmbeddings:
    def test_table_shape_includes_oov_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embedding_file(path, ["casa", "ele", "viu"], 50)
        table = load_embeddings(path)
        assert table.vectors.shape == (4, 50)
        assert table.dim == 50
        assert table.tokens == ["casa", "ele", "viu"]  # file order
        assert word_ids(table.tokens, ["viu", "fora"]).tolist() == [2, 3]

    def test_absent_word_maps_to_stable_oov_row(self, tmp_path):
        path = tmp_path / "emb.txt"
        write_embedding_file(path, ["casa"], 8)
        table = load_embeddings(path)
        npt.assert_array_equal(word_ids(table.tokens, ["inexistente", "outra"]), [1, 1])

    def test_oov_vector_identical_across_loads(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_embedding_file(a, ["um"], 8, seed=1)
        write_embedding_file(b, ["dois", "tres"], 8, seed=2)
        ta = load_embeddings(a)
        tb = load_embeddings(b)
        npt.assert_array_equal(ta.vectors[len(ta.tokens)], tb.vectors[len(tb.tokens)])

    def test_duplicate_word_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 2\ncasa 1.0 2.0\ncasa 3.0 4.0\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_embeddings(path)

    def test_keys_are_lowercased(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("1 2\nCasa 1.0 2.0\n")
        table = load_embeddings(path)
        assert table.tokens == ["casa"]
        assert word_ids(table.tokens, ["casa", "Casa"]).tolist() == [0, 1]

    def test_inconsistent_dimension_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("2 3\na 1.0 2.0 3.0\nb 1.0 2.0\n")
        with pytest.raises(ParseError) as err:
            load_embeddings(path)
        assert ":3:" in str(err.value)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("3 2\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(ParseError, match="declared 3"):
            load_embeddings(path)


class TestEmbeddingTable:
    def test_from_tokens_is_sorted_and_deterministic(self):
        rng = np.random.default_rng(5)
        table = EmbeddingTable.from_tokens(["b", "a", "b", "c"], 4, rng)
        assert table.tokens == ["a", "b", "c"]
        again = EmbeddingTable.from_tokens(["c", "b", "a"], 4, np.random.default_rng(5))
        npt.assert_array_equal(table.vectors, again.vectors)

    def test_vocab_size_must_match_rows(self):
        with pytest.raises(ContractError, match="1 tokens"):
            EmbeddingTable(["a"], np.zeros((1, 3)))

    def test_a_repeated_token_is_refused(self):
        with pytest.raises(ContractError, match="repeats"):
            EmbeddingTable(["a", "b", "a"], np.zeros((4, 3)))

    def test_encode(self):
        """The encoder gives a table's tokens their rows, an unknown one
        the OOV row."""
        table = EmbeddingTable(["a", "b"], np.arange(9.0).reshape(3, 3))
        npt.assert_array_equal(word_ids(table.tokens, ["b", "zzz", "a"]), [1, 2, 0])

    def test_encode_matches_lookup_on_known_and_oov_tokens(self, rng):
        table = EmbeddingTable.from_tokens([f"w{i}" for i in range(50)], 3, rng)
        vocab = {tok: row for row, tok in enumerate(table.tokens)}
        tokens = [f"w{i}" for i in rng.integers(0, 80, size=200)] + ["", "W1"]
        ids = word_ids(table.tokens, tokens)
        assert ids.dtype == np.intp
        npt.assert_array_equal(ids, [vocab.get(t, len(vocab)) for t in tokens])
        assert (ids == len(vocab)).sum() > 10  # the mix holds both kinds
        assert word_ids(table.tokens, []).shape == (0,)


def word_ids(vocabulary, tokens):
    """LexicalEncoder's word ids of tokens under one word vocabulary, the
    column of its one-text block; the encoder reads only a text's length,
    tokens and tags."""
    text = TokenText(tokens=tokens, pos_tags=tokens)
    return LexicalEncoder(vocabulary).encode(text).word_ids[:, 0]


class TokenText(SimpleNamespace):
    """A text of tokens and tags alone, of any length, 0 included."""

    def __len__(self):
        return len(self.tokens)


def demo_text(m=3, with_prosody=False):
    prosody = np.arange(m * 13, dtype=float).reshape(m, 13) if with_prosody else None
    return LabeledText(
        "demo",
        [f"w{i % 2}" for i in range(m)],
        [f"t{i % 2:02d}" for i in range(m)],
        ["NB"] * (m - 1) + ["B"],
        prosody=prosody,
    )


def lexical_rows(text, words=None, tags=None):
    """The (m, d) rows a lexical net reads for one text: bundle.encoder's
    ids through SequenceNet._assemble_input, for a bundle seeded by the
    word and tag tables."""
    bundle = make_lexical_bundle("rcnn", Hyperparams(tag_dim=tags.dim if tags else 1),
                                 words, tags, np.random.default_rng(0))
    return bundle.net._assemble_input(bundle.params, bundle.encoder.encode(text))[:, 0]


class TestBuildLexicalInput:
    def test_dimension_is_word_plus_tag(self, rng):
        words = EmbeddingTable.from_tokens(["w0", "w1"], 50, rng)
        tags = EmbeddingTable.from_tokens(["t00", "t01"], 10, rng)
        x = lexical_rows(demo_text(4), words, tags)
        assert x.shape == (4, 60)

    def test_identical_positions_get_identical_rows(self, rng):
        words = EmbeddingTable.from_tokens(["w0", "w1"], 6, rng)
        tags = EmbeddingTable.from_tokens(["t00", "t01"], 3, rng)
        x = lexical_rows(demo_text(5), words, tags)
        npt.assert_array_equal(x[0], x[2])
        npt.assert_array_equal(x[1], x[3])
        assert not np.array_equal(x[0], x[1])

    def test_single_token(self, rng):
        words = EmbeddingTable.from_tokens(["w0"], 50, rng)
        tags = EmbeddingTable.from_tokens(["t00"], 10, rng)
        assert lexical_rows(demo_text(1), words, tags).shape == (1, 60)
        assert lexical_rows(demo_text(1), words).shape == (1, 50)
        assert lexical_rows(demo_text(1), tags=tags).shape == (1, 10)

    def test_word_then_tag_order(self, rng):
        words = EmbeddingTable.from_tokens(["w0", "w1"], 2, rng)
        tags = EmbeddingTable.from_tokens(["t00", "t01"], 3, rng)
        x = lexical_rows(demo_text(3), words, tags)
        npt.assert_array_equal(x[:, :2], words.vectors[[0, 1, 0]])
        npt.assert_array_equal(x[:, 2:], tags.vectors[[0, 1, 0]])
        text = LabeledText("oov", ["w0", "novo"], ["t00", "t99"], ["NB", "B"])
        npt.assert_array_equal(lexical_rows(text, words, tags)[1],
                               np.concatenate([words.vectors[2], tags.vectors[2]]))

    def test_needs_a_table(self):
        with pytest.raises(ContractError, match="at least one vocabulary"):
            LexicalEncoder()


class TestProsody:
    def test_identity_stats(self):
        stats = ProsodyStats(np.zeros(13), np.ones(13))
        text = demo_text(3, with_prosody=True)
        npt.assert_array_equal(ProsodicEncoder(stats).encode(text).dense[:, 0], text.prosody)

    def test_output_dimension_is_thirteen(self):
        stats = ProsodyStats(np.zeros(13), np.ones(13))
        assert ProsodicEncoder(stats).encode(demo_text(2, True)).dense.shape == (2, 1, 13)

    def test_constant_feature_scales_to_zero(self):
        rows = np.tile(np.arange(13.0), (4, 1))
        text = LabeledText("t", ["a"] * 4, ["t00"] * 4, ["NB"] * 4, prosody=rows)
        stats = fit_prosody_stats([text])
        out = ProsodicEncoder(stats).encode(text).dense
        npt.assert_array_equal(out, np.zeros((4, 1, 13)))
        npt.assert_array_equal(stats.std, np.ones(13))

    def test_two_point_stats(self):
        a = LabeledText("a", ["x"], ["t00"], ["B"], prosody=np.zeros((1, 13)))
        b = LabeledText("b", ["x"], ["t00"], ["B"], prosody=np.full((1, 13), 2.0))
        stats = fit_prosody_stats([a, b])
        npt.assert_array_equal(stats.mean, np.ones(13))
        npt.assert_array_equal(stats.std, np.ones(13))

    def test_stats_are_a_pure_function_of_the_inputs(self):
        a = LabeledText("a", ["x"], ["t00"], ["B"], prosody=np.ones((1, 13)))
        first = fit_prosody_stats([a])
        second = fit_prosody_stats([a])
        npt.assert_array_equal(first.mean, second.mean)
        npt.assert_array_equal(first.std, second.std)

    def test_missing_prosody_points_to_lexical_mode(self):
        stats = ProsodyStats(np.zeros(13), np.ones(13))
        with pytest.raises(ContractError, match="lexical-only"):
            ProsodicEncoder(stats).encode(demo_text(2, with_prosody=False))

    def test_no_prosody_anywhere(self):
        with pytest.raises(ContractError):
            fit_prosody_stats([demo_text(2)])


class TestEncoders:
    def test_labels_encoding(self):
        assert encode_labels(["NB", "B", "NB"]).tolist() == [0, 1, 0]

    def test_lexical_encoder_roundtrip(self, rng):
        words = EmbeddingTable.from_tokens(["w0", "w1"], 4, rng)
        tags = EmbeddingTable.from_tokens(["t00", "t01"], 2, rng)
        enc = LexicalEncoder(words.tokens, tags.tokens)
        block = enc.encode(demo_text(3))
        assert block.word_ids.tolist() == [[0], [1], [0]]
        assert block.tag_ids.tolist() == [[0], [1], [0]]
        assert block.lengths.tolist() == [3]
        assert block.label01 is None  # only training encodes gold labels

    def test_prosodic_encoder(self):
        stats = ProsodyStats(np.zeros(13), np.ones(13))
        block = ProsodicEncoder(stats).encode(demo_text(2, True))
        assert block.dense.shape == (2, 1, 13)
        assert block.lengths.tolist() == [2]
        assert block.word_ids is None

    @pytest.mark.parametrize("m", [1, 2, 7, 300])
    def test_an_encoded_text_is_as_long_as_the_text(self, rng, m):
        """Both encoders give a one-text block whose step count is the
        text's length, the length a batch is blocked and padded by."""
        text = demo_text(m, with_prosody=True)
        words = EmbeddingTable.from_tokens(["w0", "w1"], 4, rng)
        stats = ProsodyStats(np.zeros(13), np.ones(13))
        for encoder in (LexicalEncoder(words.tokens), LexicalEncoder(None, ["t00"]),
                        ProsodicEncoder(stats)):
            assert len(encoder.encode(text)) == len(text) == m
