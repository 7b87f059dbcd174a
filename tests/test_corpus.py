"""Tests for transcript io, labeling, statistics, and synthesis."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentbound.corpus import (
    BOUNDARY_MARKS,
    MAX_SYNTH_MEAN,
    TAGSET_SIZE,
    Corpus,
    LabeledText,
    SynthSpec,
    corpus_checksum,
    corpus_stats,
    labels_from_punctuation,
    read_corpus,
    synth_generate,
    write_corpus,
)
from sentbound import evaluation
from sentbound.errors import ContractError, ParseError


class TestLabelsFromPunctuation:
    def test_direct_rule_application(self):
        tokens, labels = labels_from_punctuation("ela correu . ela caiu .".split())
        assert tokens == ["ela", "correu", "ela", "caiu"]
        assert labels == ["NB", "B", "NB", "B"]

    def test_single_word(self):
        assert labels_from_punctuation(["fim", "!"]) == (["fim"], ["B"])

    def test_no_punctuation_all_nb(self):
        tokens, labels = labels_from_punctuation(["a", "b", "c"])
        assert tokens == ["a", "b", "c"]
        assert labels == ["NB", "NB", "NB"]

    def test_attached_punctuation_is_split(self):
        tokens, labels = labels_from_punctuation(["ela", "caiu."])
        assert tokens == ["ela", "caiu"]
        assert labels == ["NB", "B"]

    def test_consecutive_marks_collapse(self):
        tokens, labels = labels_from_punctuation(["fim", "!", "!", "?"])
        assert (tokens, labels) == (["fim"], ["B"])

    def test_commas_are_dropped_without_labeling(self):
        tokens, labels = labels_from_punctuation(["a", ",", "b", "."])
        assert tokens == ["a", "b"]
        assert labels == ["NB", "B"]

    def test_initial_punctuation_dropped(self):
        tokens, labels = labels_from_punctuation([".", "a"])
        assert (tokens, labels) == (["a"], ["NB"])

    def test_lowercasing(self):
        tokens, _ = labels_from_punctuation(["Ela", "CAIU."])
        assert tokens == ["ela", "caiu"]

    def test_all_five_marks_label_b(self):
        for mark in ".!?:;":
            _, labels = labels_from_punctuation(["a", mark])
            assert labels == ["B"], mark

    def test_punctuation_only_stream_rejected(self):
        with pytest.raises(ContractError):
            labels_from_punctuation([".", "!", ","])

    @given(
        st.lists(
            st.sampled_from(["casa", "ele", "correu", ".", "!", ",", "?", "viu."]),
            min_size=1,
            max_size=30,
        ).filter(lambda s: any(any(ch.isalnum() for ch in tok) for tok in s))
    )
    def test_output_never_contains_marks(self, stream):
        tokens, labels = labels_from_punctuation(stream)
        assert len(tokens) == len(labels)
        for token in tokens:
            assert not (set(token) & BOUNDARY_MARKS)
        # a label may only be B if some mark followed the word in the stream
        assert set(labels) <= {"B", "NB"}


class TestLabeledText:
    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            LabeledText("t", ["a", "b"], ["t1"], ["NB", "B"])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            LabeledText("t", [], [], [])

    def test_unknown_label(self):
        with pytest.raises(ContractError):
            LabeledText("t", ["a"], ["t1"], ["X"])

    def test_uppercase_token_rejected(self):
        with pytest.raises(ContractError):
            LabeledText("t", ["A"], ["t1"], ["NB"])

    def test_prosody_shape_enforced(self):
        with pytest.raises(ContractError):
            LabeledText("t", ["a"], ["t1"], ["NB"], prosody=np.zeros((1, 12)))

    def test_bad_group(self):
        with pytest.raises(ContractError):
            LabeledText("t", ["a"], ["t1"], ["NB"], group="XYZ")

    def test_duplicate_ids_rejected(self):
        text = LabeledText("t", ["a"], ["t1"], ["NB"])
        other = LabeledText("t", ["b"], ["t1"], ["NB"])
        with pytest.raises(ContractError):
            Corpus([text, other])


def small_corpus(with_prosody=True, n=3, seed=0):
    rng = np.random.default_rng(seed)
    texts = []
    for i in range(n):
        m = int(rng.integers(2, 7))
        tokens = [f"w{j}" for j in range(m)]
        tags = [f"t{j % 3:02d}" for j in range(m)]
        labels = ["NB"] * (m - 1) + ["B"]
        prosody = rng.standard_normal((m, 13)) if with_prosody else None
        group = ["CTL", "MCI", "AD", "OTHER"][i % 4]
        texts.append(LabeledText(f"text-{i}", tokens, tags, labels, prosody, group))
    return Corpus(texts, name="small")


class TestCorpusIO:
    def test_single_file_round_trip(self, tmp_path):
        corpus = small_corpus()
        path = tmp_path / "corpus.tsv"
        write_corpus(corpus, path)
        back = read_corpus(path)
        assert len(back) == len(corpus)
        for a, b in zip(corpus, back):
            assert a.id == b.id and a.tokens == b.tokens
            assert a.pos_tags == b.pos_tags and a.labels == b.labels
            assert a.group == b.group
            npt.assert_array_equal(a.prosody, b.prosody)  # bitwise

    def test_directory_round_trip(self, tmp_path):
        corpus = small_corpus(with_prosody=False)
        write_corpus(corpus, tmp_path / "c", one_file_per_text=True)
        back = read_corpus(tmp_path / "c")
        assert [t.id for t in back] == [t.id for t in corpus]
        assert all(t.prosody is None for t in back)

    def test_file_level_round_trip_is_identity(self, tmp_path):
        corpus = small_corpus()
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        write_corpus(corpus, first)
        write_corpus(read_corpus(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_tokens_that_start_like_a_header_round_trip(self, tmp_path):
        """Only "#id" then a space opens a header, so #id and #idea are words."""
        text = LabeledText("x", ["#id", "#idea", "fim"], ["t01"] * 3, ["NB", "NB", "B"],
                           group="MCI")
        path = tmp_path / "c.tsv"
        write_corpus(Corpus([text], name="c"), path)
        [back] = read_corpus(path)
        assert (back.id, back.tokens, back.labels, back.group) == \
            ("x", ["#id", "#idea", "fim"], ["NB", "NB", "B"], "MCI")

    def test_three_line_tsv(self, tmp_path):
        path = tmp_path / "t.tsv"
        pros = " ".join(["0.25"] * 13)
        path.write_text(
            "#id demo group CTL\n"
            f"ela\tt01\t{pros}\tNB\n"
            f"caiu\tt02\t{pros}\tB\n"
            f"fim\tt03\t{pros}\tB\n"
        )
        corpus = read_corpus(path)
        assert len(corpus) == 1 and len(corpus.texts[0]) == 3
        assert corpus.texts[0].group == "CTL"

    def test_wrong_prosody_width(self, tmp_path):
        path = tmp_path / "t.tsv"
        pros12 = " ".join(["0.1"] * 12)
        path.write_text(f"#id x group CTL\na\tt01\t{pros12}\tNB\n")
        with pytest.raises(ParseError, match="expected 13 prosodic values"):
            read_corpus(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_prosody(self, tmp_path, value):
        path = tmp_path / "t.tsv"
        pros = " ".join(["0.1"] * 12 + [value])
        path.write_text(f"#id x group CTL\na\tt01\t{pros}\tNB\n")
        with pytest.raises(ParseError, match=r"t\.tsv:2: prosody values must be finite"):
            read_corpus(path)

    @pytest.mark.parametrize("token", ["", "a b", "A"])
    def test_bad_token_names_its_line(self, tmp_path, token):
        path = tmp_path / "t.tsv"
        path.write_text(f"#id x group CTL\n{token}\tt01\t-\tNB\nb\tt01\t-\tB\n")
        with pytest.raises(ParseError, match=r"t\.tsv:2: bad token"):
            read_corpus(path)

    def test_unknown_label_symbol(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#id x group CTL\na\tt01\t-\tQ\n")
        with pytest.raises(ParseError, match="unknown label"):
            read_corpus(path)

    def test_mixed_prosody_within_text(self, tmp_path):
        """The refusal names the first token line whose prosody kind
        differs from the text's first token, either way round."""
        path = tmp_path / "t.tsv"
        pros = " ".join(["0.1"] * 13)
        for first, rest in ((pros, "-"), ("-", pros)):
            path.write_text(f"#id x group CTL\na\tt01\t{first}\tNB\n"
                            f"b\tt01\t{rest}\tNB\nc\tt01\t{rest}\tB\n\n")
            with pytest.raises(ParseError, match=r"t\.tsv:3: text 'x' mixes"):
                read_corpus(path)

    def test_mixed_prosody_across_corpus(self, tmp_path):
        pros = " ".join(["0.1"] * 13)
        path = tmp_path / "t.tsv"
        path.write_text(
            f"#id x group CTL\na\tt01\t{pros}\tNB\n"
            "\n"
            "#id y group CTL\nb\tt01\t-\tB\n"
        )
        with pytest.raises(ParseError, match="all texts or none"):
            read_corpus(path)

    @pytest.mark.parametrize("missing", [0, 1])
    def test_has_prosody_checks_every_text(self, missing):
        texts = [
            LabeledText(i, ["a"], ["t01"], ["B"], prosody=np.zeros((1, 13)))
            for i in ("x", "y")
        ]
        texts[missing].prosody = None
        assert not Corpus(texts).has_prosody
        texts[missing].prosody = np.zeros((1, 13))
        assert Corpus(texts).has_prosody

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("#id x team CTL\na\tt01\t-\tNB\n")
        with pytest.raises(ParseError, match="malformed header"):
            read_corpus(path)

    @pytest.mark.parametrize("content", ["", "\n\n"])
    def test_a_file_or_directory_without_text_is_refused(self, tmp_path, content):
        folder = tmp_path / "empty"
        folder.mkdir()
        (folder / "t.tsv").write_text(content)
        for path in (folder / "t.tsv", folder):
            with pytest.raises(ParseError, match=f"{path}: no text"):
                read_corpus(path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(ParseError):
            read_corpus(tmp_path / "nope.tsv")

    def test_checksum_is_content_stable(self, tmp_path):
        corpus = small_corpus()
        assert corpus_checksum(corpus) == corpus_checksum(small_corpus())
        assert corpus_checksum(corpus) != corpus_checksum(small_corpus(seed=1))


def _totals_corpus(n_texts, n_sentences, n_words):
    """Deterministic corpus with exactly the given totals."""
    per_text = [n_sentences // n_texts] * n_texts
    for i in range(n_sentences - sum(per_text)):
        per_text[i] += 1
    base_len = n_words // n_sentences
    extras = n_words - base_len * n_sentences
    lengths = [base_len + (1 if i < extras else 0) for i in range(n_sentences)]
    texts = []
    cursor = 0
    for i, count in enumerate(per_text):
        tokens, labels = [], []
        for length in lengths[cursor : cursor + count]:
            tokens.extend(["w"] * (length - 1) + ["x"])
            labels.extend(["NB"] * (length - 1) + ["B"])
        cursor += count
        texts.append(LabeledText(f"t{i}", tokens, ["t00"] * len(tokens), labels))
    return Corpus(texts)


class TestCorpusStats:
    def test_spontaneous_narrative_totals(self):
        stats = corpus_stats(_totals_corpus(60, 1843, 23807))
        assert round(stats.avg_sentences_per_text, 2) == 30.72
        assert round(stats.avg_words_per_sentence, 2) == 12.92

    def test_prepared_speech_totals(self):
        stats = corpus_stats(_totals_corpus(357, 2698, 63275))
        assert round(stats.avg_sentences_per_text, 2) == 7.56
        assert round(stats.avg_words_per_sentence, 2) == 23.45

    def test_single_two_word_sentence(self):
        tokens, labels = labels_from_punctuation(["a", "b", "."])
        text = LabeledText("t", tokens, ["t00"] * 2, labels)
        stats = corpus_stats(Corpus([text]))
        assert stats.avg_sentences_per_text == 1
        assert stats.avg_words_per_sentence == 2
        assert stats.boundary_rate == 0.5

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            corpus_stats(Corpus([]))


class TestSynthGenerate:
    def test_tokens_share_their_tag_strings_and_the_corpus_is_unchanged(self):
        """A synth corpus keeps its pinned content, and its tags are no
        more string objects than the tagset has symbols."""
        corpus = synth_generate(SynthSpec(n_texts=5, seed=3, vocab_size=700,
                                          cue_reliability=0.5))
        assert corpus_checksum(corpus) == (
            "34beeb3da7c116b90d4debfabc13c1829dc3911baf2ec0f85e3ef7432293d275")
        tags = [tag for text in corpus for tag in text.pos_tags]
        assert len(tags) > 500 and len({id(tag) for tag in tags}) <= TAGSET_SIZE

    def test_deterministic_per_seed(self):
        spec = SynthSpec(n_texts=5, seed=42)
        a = synth_generate(spec)
        b = synth_generate(spec)
        for ta, tb in zip(a, b):
            assert ta.tokens == tb.tokens and ta.labels == tb.labels
            npt.assert_array_equal(ta.prosody, tb.prosody)

    def test_full_reliability_places_cue_at_every_boundary(self):
        spec = SynthSpec(n_texts=4, cue_reliability=1.0, prosody_cue_strength=0.0, seed=1)
        for text in synth_generate(spec):
            for token, label in zip(text.tokens, text.labels):
                if label == "B":
                    assert token == spec.boundary_cue_token

    def test_boundary_rate_matches_mean_sentence_length(self):
        spec = SynthSpec(n_texts=60, mean_sentence_len=13.0, seed=7)
        stats = corpus_stats(synth_generate(spec))
        assert abs(stats.boundary_rate - 1.0 / 13.0) <= 0.02

    def test_cue_never_appears_off_plant(self):
        spec = SynthSpec(n_texts=6, cue_reliability=0.0, seed=3)
        for text in synth_generate(spec):
            assert spec.boundary_cue_token not in text.tokens

    def test_pause_dimension_carries_the_cue(self):
        spec = SynthSpec(n_texts=20, prosody_cue_strength=2.0, seed=5)
        boundary_pause, other_pause = [], []
        for text in synth_generate(spec):
            for i, label in enumerate(text.labels):
                (boundary_pause if label == "B" else other_pause).append(
                    text.prosody[i, 12]
                )
        assert abs(np.mean(boundary_pause) - 2.0) < 0.2
        assert abs(np.mean(other_pause)) < 0.2

    def test_cue_offset_displaces_the_cue(self):
        spec = SynthSpec(n_texts=10, cue_reliability=1.0, cue_offset=2, seed=2)
        seen = 0
        for text in synth_generate(spec):
            boundary_positions = [i for i, lab in enumerate(text.labels) if lab == "B"]
            for b in boundary_positions:
                if text.tokens[b - 2 : b - 1] == [spec.boundary_cue_token]:
                    seen += 1
                assert text.tokens[b] != spec.boundary_cue_token or b < 2
        assert seen > 0

    def test_tags_are_a_function_of_the_word(self):
        corpus = synth_generate(SynthSpec(n_texts=6, seed=4))
        seen = {}
        for text in corpus:
            for token, tag in zip(text.tokens, text.pos_tags):
                assert seen.setdefault(token, tag) == tag
        assert all(tag.startswith("t") for tag in seen.values())

    def test_spec_validation(self):
        with pytest.raises(ContractError):
            SynthSpec(n_texts=0)
        with pytest.raises(ContractError):
            SynthSpec(n_texts=1, mean_sentence_len=1.0)
        with pytest.raises(ContractError):
            SynthSpec(n_texts=1, cue_reliability=1.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(ContractError, match="mean_sentence_len must be finite"):
                SynthSpec(n_texts=1, mean_sentence_len=bad)
            with pytest.raises(ContractError, match="prosody_cue_strength must be finite"):
                SynthSpec(n_texts=1, prosody_cue_strength=bad)
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ContractError, match="mean_sentences_per_text must be"):
                SynthSpec(n_texts=1, mean_sentences_per_text=bad)

    @pytest.mark.parametrize("field, value", [
        ("n_texts", 2.5), ("n_texts", "3"), ("seed", 1.5), ("vocab_size", 3.0),
        ("cue_offset", True), ("cue_reliability", "1"), ("name", None),
        ("boundary_cue_token", 7),
    ])
    def test_a_setting_of_another_type_is_refused(self, field, value):
        """Refused, by name, when the spec is made, not by a TypeError or
        AttributeError in synth_generate or in the spec's own checks."""
        with pytest.raises(ContractError, match=f"synth setting {field} must be of type"):
            SynthSpec(**{"n_texts": 1, field: value})

    @pytest.mark.parametrize("field, value", [
        ("name", "my corpus"), ("name", "a\tb"), ("name", "#ab"), ("name", "a/b"),
        ("boundary_cue_token", "#xy"),
    ])
    def test_names_its_readers_would_mangle_are_refused(self, field, value):
        """A text id holds no whitespace and a file name no '/'; a manifest
        value that starts with '#' reads as a comment."""
        with pytest.raises(ContractError, match=f"{field} .* must not"):
            SynthSpec(n_texts=1, **{field: value})

    @pytest.mark.parametrize("field", ["mean_sentence_len", "mean_sentences_per_text"])
    def test_means_above_the_cap_are_refused(self, field):
        """A finite mean above MAX_SYNTH_MEAN is refused before numpy's
        Poisson sampler sees it; the cap itself is accepted."""
        SynthSpec(n_texts=1, **{field: MAX_SYNTH_MEAN})
        for bad in (1e300, math.nextafter(MAX_SYNTH_MEAN, math.inf)):
            with pytest.raises(ContractError, match=f"{field} must be finite, .* <= 1e"):
                SynthSpec(n_texts=1, **{field: bad})


@pytest.mark.parametrize("missing", [0, -1])
def test_mixed_prosody_corpus_is_refused_before_training(missing, monkeypatch):
    texts = list(synth_generate(SynthSpec(n_texts=6, mean_sentences_per_text=2.0)))
    bare = texts[missing]
    texts[missing] = LabeledText(bare.id, bare.tokens, bare.pos_tags, bare.labels)

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(evaluation, "train_model", no_training)
    with pytest.raises(ContractError, match="needs prosody"):
        evaluation.cross_validated_eval(
            Corpus(texts, name="mixed"), "rcnn", "all", evaluation.EvalConfig(folds=2)
        )
