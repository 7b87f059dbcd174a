"""Tests for probability fusion and the DBND model container: round trip
and half-valid files."""

import dataclasses
import json
import re
import struct
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sentbound import SentboundError, cli, evaluation, features, training
from sentbound.corpus import (
    LABEL_B,
    LABEL_NB,
    LabeledText,
    SynthSpec,
    read_corpus,
    synth_generate,
    write_corpus,
)
from sentbound.errors import ContractError, ModelFileError
from sentbound.features import EmbeddingTable, LexicalEncoder, ProsodyStats, load_embeddings
from sentbound.model import (
    FORMAT_VERSION,
    MAGIC,
    Hyperparams,
    ModelBundle,
    TrainedSegmenter,
    _bundle_meta,
    _pack_block,
    fuse,
    labels_from_probs,
    load_model,
    lockstep_groups,
    parse_feature_set,
    predict_texts,
    save_model,
)
from sentbound.numerics import lstm as lstm_ops
from sentbound.numerics import network
from sentbound.training import (
    TrainConfig,
    make_lexical_bundle,
    make_prosodic_bundle,
    train_model,
)


def prob_rows(seed, m=64):
    """Rows whose boundary probabilities span 20 orders of magnitude."""
    p_b = 10.0 ** -np.random.default_rng(seed).uniform(0.0, 20.0, m)
    return np.stack([1.0 - p_b, p_b], axis=1)


@pytest.mark.parametrize("spelling, words, tags, prosody, name", [
    ("embeddings", True, False, False, "embeddings"),
    ("pos", False, True, False, "pos"),
    ("prosody", False, False, True, "prosody"),
    ("embeddings+pos", True, True, False, "embeddings+pos"),
    ("Pos + Embeddings", True, True, False, "embeddings+pos"),
    ("prosody+pos", False, True, True, "pos+prosody"),
    ("embeddings+prosody", True, False, True, "embeddings+prosody"),
    ("prosody+pos+embeddings", True, True, True, "all"),
    ("all", True, True, True, "all"),
    ("ALL", True, True, True, "all"),
    (" all ", True, True, True, "all"),
])
def test_parse_feature_set_accepts_every_spelling(spelling, words, tags, prosody, name):
    feature_set = parse_feature_set(spelling)
    assert (feature_set.words, feature_set.tags, feature_set.prosody) == (words, tags, prosody)
    assert feature_set.name == name
    assert parse_feature_set(name) == feature_set


@pytest.mark.parametrize("spelling", [
    "", "+", "pos+", "pos+pos", "all+pos", "all+all", "words", "embedding", "pos,prosody",
])
def test_parse_feature_set_rejects_other_spellings(spelling):
    with pytest.raises(ContractError, match="unknown feature set"):
        parse_feature_set(spelling)


def test_fuse_endpoints_reproduce_their_rows_bit_for_bit():
    p_lex, p_pros = prob_rows(0), prob_rows(1)
    # the general formula is off in the last bit here, so only a true
    # endpoint passes
    assert not np.array_equal(p_pros + 1.0 * (p_lex - p_pros), p_lex)
    for alpha, want in ((1.0, p_lex), (0.0, p_pros)):
        labels, fused = fuse(p_lex, p_pros, alpha)
        np.testing.assert_array_equal(fused, want)
        assert labels == labels_from_probs(want)
        assert fused is not want


def test_fuse_takes_none_only_where_its_weight_is_zero():
    p_lex, p_pros = prob_rows(0), prob_rows(1)
    np.testing.assert_array_equal(fuse(p_lex, None, 1.0)[1], p_lex)
    np.testing.assert_array_equal(fuse(None, p_pros, 0.0)[1], p_pros)
    for args in ((p_lex, None, 0.5), (p_lex, None, 0.0),
                 (None, p_pros, 0.5), (None, p_pros, 1.0)):
        with pytest.raises(ContractError, match="needs a"):
            fuse(*args)


def test_fuse_rejects_mismatched_shapes_and_bad_alpha():
    p_lex, p_pros = prob_rows(0), prob_rows(1)
    for alpha in (0.0, 0.5, 1.0):
        with pytest.raises(ContractError, match="shapes disagree"):
            fuse(p_lex, p_pros[:-1], alpha)
    with pytest.raises(ContractError, match="alpha must be in"):
        fuse(p_lex, p_pros, 1.5)


def tiny_segmenter():
    """An untrained lexical + prosodic segmenter with two-unit layers."""
    rng = np.random.default_rng(0)
    hp = Hyperparams(word_dim=2, tag_dim=2, conv_filters=2, rec_units=2)
    words = EmbeddingTable.from_tokens(["a", "b"], hp.word_dim, rng)
    tags = EmbeddingTable.from_tokens(["t01"], hp.tag_dim, rng)
    return TrainedSegmenter(
        lexical=make_lexical_bundle("rcnn", hp, words, tags, rng),
        alpha=0.5,
        prosodic=make_prosodic_bundle(
            "rcnn", hp, ProsodyStats(np.zeros(13), np.ones(13)), rng
        ),
    )


def sample_text(m, seed=1, tokens=("a", "b", "c"), tags=("t01",)):
    """A text of m words cycling through tokens and tags, every third a
    boundary, with random prosody."""
    return LabeledText(
        id=f"t{seed}", tokens=[tokens[i % len(tokens)] for i in range(m)],
        pos_tags=[tags[i % len(tags)] for i in range(m)],
        labels=[LABEL_B if i % 3 == 1 else LABEL_NB for i in range(m)],
        prosody=np.random.default_rng(seed).standard_normal((m, 13)),
    )


def with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body))


def container(meta, segmenter, with_stats=True, std=None):
    """The bytes save_model writes, but with the given meta and a valid CRC,
    and std, when given, in place of the stored prosody scales."""
    blocks = [
        _pack_block(f"{kind}/{name}", value)
        for kind, bundle in (("lexical", segmenter.lexical), ("prosodic", segmenter.prosodic))
        for name, value in bundle.params.items()
    ]
    if with_stats:
        stats = segmenter.prosodic.prosody_stats
        blocks.append(_pack_block("stats/mean", stats.mean))
        blocks.append(_pack_block("stats/std", stats.std if std is None else std))
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = (
        MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta_bytes)) + meta_bytes
        + struct.pack("<I", len(blocks)) + b"".join(blocks)
    )
    return with_crc(body)


def intact_meta(segmenter):
    return {
        "alpha": segmenter.alpha,
        "lexical": _bundle_meta(segmenter.lexical),
        "prosodic": _bundle_meta(segmenter.prosodic),
    }


def test_crafted_container_matches_save_model(tmp_path):
    """save_model writes the blocks in name order; load_model copies them
    into one parameter vector per model, and saving that gives the same
    bytes."""
    segmenter = tiny_segmenter()
    path = tmp_path / "m.dbnd"
    save_model(segmenter, path)
    assert path.read_bytes() == container(intact_meta(segmenter), segmenter)
    loaded = load_model(path)
    assert loaded.alpha == 0.5
    for name, value in segmenter.lexical.params.items():
        np.testing.assert_array_equal(loaded.lexical.params[name], value)
    for bundle in (loaded.lexical, loaded.prosodic):
        assert network.flat_vector(bundle.params).size == bundle.net.size
    save_model(loaded, tmp_path / "again.dbnd")
    assert (tmp_path / "again.dbnd").read_bytes() == path.read_bytes()


def test_container_with_the_retired_epochs_hyperparam_loads(tmp_path):
    """Containers written while Hyperparams had an (unread) epochs field
    store it in both models' meta; load_model ignores that key alone."""
    segmenter = tiny_segmenter()
    meta = intact_meta(segmenter)
    for kind in ("lexical", "prosodic"):
        meta[kind]["hyperparams"]["epochs"] = 20
    path = tmp_path / "old.dbnd"
    path.write_bytes(container(meta, segmenter))
    loaded = load_model(path)
    assert loaded.lexical.net.hp == segmenter.lexical.net.hp
    np.testing.assert_array_equal(network.flat_vector(loaded.lexical.params),
                                  network.flat_vector(segmenter.lexical.params))
    save_model(loaded, tmp_path / "new.dbnd")
    assert (tmp_path / "new.dbnd").read_bytes() == container(intact_meta(segmenter), segmenter)


def _alpha_only(meta):
    return {"alpha": 1.0}, True


def _unknown_hyperparam(meta):
    meta["lexical"]["hyperparams"]["bogus"] = 1
    return meta, True


def _no_stats_blocks(meta):
    return meta, False


def _no_token_lists(meta):
    meta["lexical"]["word_tokens"] = meta["lexical"]["tag_tokens"] = None
    return meta, True


def _set(path, value):
    def craft(meta):
        node = meta
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return meta, True

    craft.__name__ = "_".join(["set"] + [str(key) for key in path])
    return craft


@pytest.mark.parametrize(
    "craft, message",
    [
        (_alpha_only, "meta needs alpha, lexical and prosodic"),
        (_unknown_hyperparam, "bad hyperparams"),
        (_no_stats_blocks, "without prosody statistics"),
        (_set(("alpha",), "x"), "alpha 'x' is not a number"),
        (_set(("alpha",), None), "alpha None is not a number"),
        (_set(("alpha",), True), "alpha True is not a number"),
        (_set(("lexical", "word_tokens"), 5), "word_tokens is neither null nor a list"),
        (_set(("lexical", "tag_tokens"), ["t01", 3]), "tag_tokens is neither null nor"),
        (_set(("lexical", "word_tokens"), ["a", "a"]), "word_tokens repeats a token"),
        (_set(("lexical", "tag_tokens"), ["t01", "t01"]), "tag_tokens repeats a token"),
        (_set(("prosodic", "dense_dim"), "13"), "dense_dim '13', expected 13"),
        (_set(("lexical", "dense_dim"), 13), "dense_dim 13, expected 0"),
        (_set(("lexical", "hyperparams", "conv_width"), 7.0), "bad hyperparams"),
        (_set(("prosodic", "hyperparams", "dropout_rate"), "0.5"), "bad hyperparams"),
        (_set(("lexical", "variant"), "lstm"), "no valid net: unknown variant 'lstm'"),
        (_no_token_lists, "no valid net: network needs at least one input feature"),
        (_set(("prosodic", "hyperparams", "dropout_rate"), 1.5), "no valid net: dropout"),
        (_set(("alpha",), 1.5), r"alpha must be in \[0, 1\]"),
    ],
)
def test_half_valid_container_raises_model_file_error(tmp_path, craft, message):
    segmenter = tiny_segmenter()
    meta, with_stats = craft(intact_meta(segmenter))
    path = tmp_path / "m.dbnd"
    path.write_bytes(container(meta, segmenter, with_stats))
    with pytest.raises(ModelFileError, match=message):
        load_model(path)


def _one_std(value):
    std = np.ones(13)
    std[3] = value
    return std


@pytest.mark.parametrize("std, message", [
    (_one_std(0.0), "bad prosody statistics: .* finite and positive"),
    (_one_std(-1.0), "bad prosody statistics: .* finite and positive"),
    (_one_std(np.nan), "'stats/std' is not finite"),
    (np.ones(12), "bad prosody statistics: stats must have 13 dimensions"),
])
def test_bad_prosody_statistics_are_a_model_file_error(tmp_path, std, message):
    """A zero scale would make every prosodic prediction divide by zero."""
    segmenter = tiny_segmenter()
    path = tmp_path / "m.dbnd"
    path.write_bytes(container(intact_meta(segmenter), segmenter, std=std))
    with pytest.raises(ModelFileError, match=message):
        load_model(path)


def test_non_finite_parameter_is_a_model_file_error(tmp_path):
    segmenter = tiny_segmenter()
    segmenter.prosodic.params["out_b"][0] = np.nan
    path = tmp_path / "m.dbnd"
    save_model(segmenter, path)
    with pytest.raises(ModelFileError, match="'prosodic/out_b' is not finite"):
        load_model(path)


def test_requests_build_the_encoders_once(monkeypatch):
    """The vocabularies are indexed on the first request only, and later
    requests predict bit-identically."""
    segmenter = tiny_segmenter()
    text = sample_text(4)
    first = segmenter.predict_probs(text)
    built = []
    init = LexicalEncoder.__init__
    monkeypatch.setattr(LexicalEncoder, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    for _ in range(3):
        labels, fused = segmenter.predict_probs(text)
        assert labels == first[0]
        np.testing.assert_array_equal(fused, first[1])
    assert built == []
    tiny_segmenter().predict_probs(text)
    assert len(built) == 1  # a new segmenter's first request builds its one


def test_block_name_that_is_not_utf8_is_a_model_file_error(tmp_path):
    segmenter = tiny_segmenter()
    body = container(intact_meta(segmenter), segmenter)[:-4]
    assert body.count(b"lexical/out_b") == 1
    path = tmp_path / "m.dbnd"
    path.write_bytes(with_crc(body.replace(b"lexical/out_b", b"\xff\xfexical/out_b")))
    with pytest.raises(ModelFileError, match="block name is not UTF-8"):
        load_model(path)


FUZZ_SEGMENTER = tiny_segmenter()
FUZZ_META = intact_meta(FUZZ_SEGMENTER)
FUZZ_BODY = container(FUZZ_META, FUZZ_SEGMENTER)[:-4]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 300) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner),
    max_leaves=4,
)


def meta_paths(node, path=()):
    """The key path of every entry below node, list items included."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from meta_paths(child, path + (key,))


@st.composite
def mutated_containers(draw):
    """A valid container with one meta entry replaced by any JSON value,
    or with a few body bytes overwritten, or cut short; CRC recomputed."""
    how = draw(st.sampled_from(("meta", "bytes", "cut")))
    if how == "meta":
        meta = json.loads(json.dumps(FUZZ_META))
        path = draw(st.sampled_from(list(meta_paths(meta))))
        return container(_set(path, draw(JSON_VALUES))(meta)[0], FUZZ_SEGMENTER)
    body = bytearray(FUZZ_BODY)
    if how == "cut":
        return with_crc(bytes(body[: draw(st.integers(0, len(body) - 1))]))
    offsets = st.integers(0, len(body) - 1)
    for at, byte in draw(st.lists(st.tuples(offsets, st.integers(0, 255)), min_size=1,
                                  max_size=4)):
        body[at] = byte
    return with_crc(bytes(body))


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_containers())
def test_mutated_container_loads_and_predicts_or_raises_a_sentbound_error(tmp_path, data):
    path = tmp_path / "m.dbnd"
    path.write_bytes(data)
    try:
        load_model(path).predict_probs(sample_text(5))
    except SentboundError:
        pass


# ------------------------------------------------------ bad text input

FUZZ_CORPUS = synth_generate(SynthSpec(n_texts=2, mean_sentences_per_text=1.5,
                                       prosody_cue_strength=2.0, seed=4))
FUZZ_EMBEDDINGS = "3 4\nthe 0.1 -0.2 0.3 0.4\na 1e-3 2.5 -1 0\nentão 0 0 0.5 -0.5\n"
FUZZ_CONFIG = """# an eval run
epochs = 1
folds = 2
conv_filters = 4
rec_units = 4
eta = 0.001
alpha = 0.5
features = all
variant = rcnn
log_level = warning
seed = 3
"""
# What a field of a text input is replaced by: a missing value, values
# that are not finite or not float64, and stray separators.
FIELD_VALUES = ("-", "nan", "inf", "-inf", "1e309", "1e308", "99999999999999999999", "",
                "\t", "a\tb", "=")


@st.composite
def mutated_text(draw, text):
    """The UTF-8 bytes of text with a few bytes overwritten, cut short, one
    whitespace-separated field replaced by a FIELD_VALUES entry, or a
    stray tab inserted."""
    data = bytearray(text.encode("utf-8"))
    how = draw(st.sampled_from(("bytes", "cut", "field", "tab")))
    offsets = st.integers(0, len(data) - 1)
    if how == "cut":
        return bytes(data[: draw(offsets)])
    if how == "field":
        start, stop = draw(st.sampled_from([m.span() for m in re.finditer(rb"\S+", data)]))
        data[start:stop] = draw(st.sampled_from(FIELD_VALUES)).encode("utf-8")
    elif how == "tab":
        at = draw(offsets)
        data[at:at] = b"\t"
    else:
        for at, byte in draw(st.lists(st.tuples(offsets, st.integers(0, 255)),
                                      min_size=1, max_size=4)):
            data[at] = byte
    return bytes(data)


def fuzz_tsv():
    """FUZZ_CORPUS as one tsv file's text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.tsv"
        write_corpus(FUZZ_CORPUS, path)
        return path.read_text(encoding="utf-8")


TEXT_FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@TEXT_FUZZ
@given(data=mutated_text(fuzz_tsv()))
def test_mutated_tsv_loads_or_raises_a_sentbound_error(tmp_path, data):
    path = tmp_path / "c.tsv"
    path.write_bytes(data)
    try:
        corpus = read_corpus(path)
    except SentboundError:
        return
    assert all(t.prosody is None or np.isfinite(t.prosody).all() for t in corpus)


@TEXT_FUZZ
@given(data=mutated_text(FUZZ_EMBEDDINGS))
def test_mutated_embeddings_load_or_raise_a_sentbound_error(tmp_path, data):
    path = tmp_path / "e.vec"
    path.write_bytes(data)
    try:
        table = load_embeddings(path)
    except SentboundError:
        return
    assert np.isfinite(table.vectors).all()


class ReachedTraining(Exception):
    """Raised in place of training: the run got past every check."""


def reached_training(*args, **kwargs):
    raise ReachedTraining


@pytest.fixture(scope="module")
def fuzz_corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-corpus")
    write_corpus(FUZZ_CORPUS, root, one_file_per_text=True)
    return root


@TEXT_FUZZ
@given(data=mutated_text(FUZZ_CONFIG))
def test_mutated_config_reaches_training_or_exits_with_an_error(
        tmp_path, fuzz_corpus_dir, monkeypatch, data):
    """An eval run with the config file either gets as far as training or
    exits 1 (usage) or 2 (data), without a traceback."""
    monkeypatch.setattr(evaluation, "train_model", reached_training)
    path = tmp_path / "run.conf"
    path.write_bytes(data)
    try:
        code = cli.main(["eval", "--corpus", str(fuzz_corpus_dir), "--config", str(path)])
    except ReachedTraining:
        return
    assert code in (cli.EXIT_USAGE, cli.EXIT_DATA)


# ------------------------------------------------------ inference state


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_saturating_gates_predict_without_warnings(tmp_path):
    """LSTM gate weights of +-1e300 drive exp(-z) in the sigmoid to
    overflow: the gates saturate to exactly 0 or 1, and a request on the
    loaded container gives finite probabilities and no RuntimeWarning."""
    segmenter = tiny_segmenter()
    rng = np.random.default_rng(5)
    for bundle in (segmenter.lexical, segmenter.prosodic):
        for name, value in bundle.params.items():
            if name.rpartition("_")[2] in lstm_ops.GATES:
                value[...] = 1e300 * rng.choice([-1.0, 1.0], size=value.shape)
    save_model(segmenter, tmp_path / "big.dbnd")
    loaded = load_model(tmp_path / "big.dbnd")
    for seed in range(3):
        _, fused = loaded.predict_probs(sample_text(7, seed))
        assert np.isfinite(fused).all()


def test_a_segmenter_prepares_its_lstm_weights_once(monkeypatch):
    """Over 10 requests the segmenter prepares the LSTM weights of both
    bundles once, in one call over their four directions, and no
    inference pass asks the max-pool for its argmax."""
    segmenter = tiny_segmenter()
    prepared, argmax_asked = [], []
    prepare = lstm_ops.prepare_weights
    pool = network.maxpool1d_same
    monkeypatch.setattr(lstm_ops, "prepare_weights",
                        lambda weights: prepared.append(len(weights)) or prepare(weights))
    monkeypatch.setattr(network, "maxpool1d_same", lambda c, h_m, return_argmax=False: (
        argmax_asked.append(return_argmax) or pool(c, h_m, return_argmax)
    ))
    for seed in range(10):
        segmenter.predict_probs(sample_text(4 + seed, seed))
    assert prepared == [4]  # lexical and prosodic, two directions each
    assert argmax_asked == [False] * 20


def test_a_warm_request_reads_only_the_prepared_weights(monkeypatch):
    """Once a segmenter has served a request, later ones build nothing
    that depends only on the model: no parameter vector check
    (flat_vector), no name -> view dict (views), no direction weight dicts
    (lstm_weights) and no prepared weights, at any alpha and length."""
    segmenter = tiny_segmenter()
    segmenter.predict_probs(sample_text(5))
    calls = []
    for owner, name in ((network, "flat_vector"), (network.SequenceNet, "views"),
                        (network.SequenceNet, "lstm_weights"), (lstm_ops, "prepare_weights")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _name=name, _original=original: (
            calls.append(_name) or _original(*args)))
    for seed, m in enumerate((1, 2, 9, 30)):
        for alpha in (None, 0.0, 0.5, 1.0):
            segmenter.predict_probs(sample_text(m, seed), alpha=alpha)
    assert calls == []


def counted_lstm_calls(monkeypatch):
    """(directions, steps, prepared) of every direction_forward call."""
    calls = []
    direction_forward = network.lstm_ops.direction_forward

    def counted(*xs, **kwargs):
        calls.append((len(xs), len(xs[0]), kwargs["prepared"]))
        return direction_forward(*xs, **kwargs)

    monkeypatch.setattr(network.lstm_ops, "direction_forward", counted)
    return calls


def test_a_two_net_request_runs_one_lstm_loop(monkeypatch):
    """The lexical and prosodic LSTMs of one width advance in one loop:
    one direction_forward call of four directions over the text's steps."""
    segmenter = tiny_segmenter()
    calls = counted_lstm_calls(monkeypatch)
    segmenter.predict_probs(sample_text(7))
    assert [(dirs, steps) for dirs, steps, _ in calls] == [(4, 7)]


def test_a_lexical_only_segmenter_refuses_alpha_below_one_before_any_net_runs(monkeypatch):
    segmenter = TrainedSegmenter(lexical=tiny_segmenter().lexical)
    calls = counted_lstm_calls(monkeypatch)
    with pytest.raises(ContractError, match="alpha < 1 needs a prosodic model"):
        segmenter.predict_probs(sample_text(5), alpha=0.5)
    assert calls == []


def test_a_request_at_alpha_one_runs_the_lexical_net_alone(monkeypatch):
    """At alpha = 1 the loop runs the lexical net's two directions on a
    view of its half of the segmenter's prepared weights, and gives the
    rows of the lexical bundle predicting alone."""
    segmenter = tiny_segmenter()
    text = sample_text(6)
    calls = counted_lstm_calls(monkeypatch)
    _, fused = segmenter.predict_probs(text, alpha=1.0)
    [(dirs, steps, prepared)] = calls
    assert (dirs, steps) == (2, 6)
    _, [(indices, joint)] = segmenter.passes
    assert indices == (0, 1)
    assert np.shares_memory(prepared[2], joint.lstm[2]) and len(prepared[2]) == 2
    assert prepared[2].ctypes.data == joint.lstm[2].ctypes.data
    [[want]] = predict_texts([segmenter.lexical], [text])
    np.testing.assert_array_equal(fused, want)


@pytest.mark.parametrize("variant, units, groups, loops", [
    ("rcnn", 4, [(0, 1)], 1),
    ("rnn", 4, [(0, 1)], 1),
    ("rcnn", 3, [(0,), (1,)], 2),
    ("cnn", 4, [(0,), (1,)], 1),
    ("mlp", 4, [(0,), (1,)], 1),
])
def test_bundles_predict_together_as_each_alone(variant, units, groups, loops, monkeypatch):
    """Nets with LSTMs of one width share a loop; one of another width,
    or without an LSTM, runs alone. Either way each bundle's rows equal
    those it predicts alone, and each batch block runs one loop per
    group with an LSTM."""
    rng = np.random.default_rng(3)
    hp = Hyperparams(word_dim=3, tag_dim=2, conv_filters=4, rec_units=4)
    lexical = make_lexical_bundle(
        "rcnn", hp, EmbeddingTable.from_tokens(["a", "b"], hp.word_dim, rng), None, rng
    )
    prosodic = make_prosodic_bundle(
        variant, Hyperparams(conv_filters=4, rec_units=units),
        ProsodyStats(np.zeros(13), np.ones(13)), rng,
    )
    bundles = [lexical, prosodic]
    assert [indices for indices, _ in lockstep_groups(bundles)] == groups
    texts = [sample_text(m, seed) for seed, m in enumerate((5, 9, 2, 7, 4))]
    calls = counted_lstm_calls(monkeypatch)
    together = predict_texts(bundles, texts, batch_size=2)
    assert len(calls) == 3 * loops  # LSTM loops per block, three blocks of two texts at most
    for bundle, rows in zip(bundles, together):
        [alone] = predict_texts([bundle], texts, batch_size=2)
        for got, want in zip(rows, alone, strict=True):
            np.testing.assert_array_equal(got, want)


def test_training_drops_the_prepared_weights():
    """After train_model a bundle predicts like a fresh bundle on its
    trained params, not from LSTM weights prepared before training."""
    bundle = tiny_segmenter().lexical
    texts = [sample_text(m, seed) for seed, m in enumerate((6, 9, 4))]
    [before] = predict_texts([bundle], texts)
    train_model(bundle, texts, TrainConfig(epochs=1, batch_size=2), np.random.default_rng(0))
    fresh = ModelBundle(
        bundle.net, bundle.net.views(network.flat_vector(bundle.params).copy()),
        bundle.word_tokens, bundle.tag_tokens,
    )
    [after], [fresh_rows] = predict_texts([bundle], texts), predict_texts([fresh], texts)
    for old, got, want in zip(before, after, fresh_rows):
        assert not np.array_equal(got, old)
        np.testing.assert_array_equal(got, want)


def test_a_request_holds_no_backward_state():
    """A warm 200-token request to default-size models stays under 3 MB
    of traced memory; keeping the backward state took 5.7 MB."""
    rng = np.random.default_rng(0)
    words = EmbeddingTable.from_tokens(["a", "b", "c"], Hyperparams().word_dim, rng)
    tags = EmbeddingTable.from_tokens(["t01"], Hyperparams().tag_dim, rng)
    segmenter = TrainedSegmenter(
        lexical=make_lexical_bundle("rcnn", Hyperparams.lexical(), words, tags, rng),
        alpha=0.5,
        prosodic=make_prosodic_bundle(
            "rcnn", Hyperparams.prosodic(), ProsodyStats(np.zeros(13), np.ones(13)), rng
        ),
    )
    text = sample_text(200)
    segmenter.predict_probs(text)
    tracemalloc.start()
    try:
        segmenter.predict_probs(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_a_one_text_block_is_a_read_only_view(monkeypatch):
    """An encoded text is the block its passes run on, as NetBatch.stack
    returns a lone block as it is, and nothing writes through it: with
    its arrays read-only, a lexical + prosodic request and a B = 1
    training pass give what they give on a copied block."""
    segmenter = tiny_segmenter()
    text = sample_text(11)
    bundles = (segmenter.lexical, segmenter.prosodic)
    parts = ("word_ids", "tag_ids", "dense", "label01")
    blocks, copies = [], []
    for bundle in bundles:
        block = dataclasses.replace(bundle.encoder.encode(text),
                                    label01=features.encode_labels(text.labels)[:, None])
        assert network.NetBatch.stack([block]) is block
        arrays = {name: getattr(block, name) for name in parts
                  if getattr(block, name) is not None}
        copies.append(dataclasses.replace(
            block, **{name: array.copy() for name, array in arrays.items()}))
        for array in arrays.values():
            array.flags.writeable = False
        blocks.append(block)

    def train_pass(bundle, block):
        loss, grad, _ = bundle.net.loss_and_grads(
            bundle.params, block, np.array([0.7, 5.0]), rng=np.random.default_rng(4))
        return loss, grad

    runs = []
    for encoded in (blocks, copies):
        for bundle, block in zip(bundles, encoded):
            monkeypatch.setattr(bundle.encoder, "encode", lambda text, block=block: block)
        runs.append((segmenter.predict_probs(text),
                     [train_pass(bundle, block) for bundle, block in zip(bundles, encoded)]))
    ((labels, probs), passes), ((want_labels, want_probs), want_passes) = runs
    assert labels == want_labels
    np.testing.assert_array_equal(probs, want_probs)
    for (loss, grad), (want_loss, want_grad) in zip(passes, want_passes, strict=True):
        assert loss == want_loss
        np.testing.assert_array_equal(grad, want_grad)


def test_only_training_encodes_gold_labels(monkeypatch):
    """Requests and predictions read no gold labels: with encode_labels
    refusing, they still answer. train_model encodes each training
    text's labels once."""
    segmenter = tiny_segmenter()
    texts = [sample_text(m, seed) for seed, m in enumerate((5, 9, 4))]
    bundles = [segmenter.lexical, segmenter.prosodic]
    want = predict_texts(bundles, texts)
    encode_labels = features.encode_labels

    def refuse(labels):
        raise AssertionError("a prediction encoded gold labels")

    monkeypatch.setattr(features, "encode_labels", refuse)
    monkeypatch.setattr(training, "encode_labels", refuse)
    for text in texts:
        labels, probs = segmenter.predict_probs(text)
        assert len(labels) == len(probs) == len(text)
    for got, want_rows in zip(predict_texts(bundles, texts), want, strict=True):
        for rows, want_row in zip(got, want_rows, strict=True):
            np.testing.assert_array_equal(rows, want_row)
    calls = []

    def counted(labels):
        calls.append(labels)
        return encode_labels(labels)

    monkeypatch.setattr(training, "encode_labels", counted)
    train_model(segmenter.lexical, texts, TrainConfig(epochs=2, batch_size=2),
                np.random.default_rng(3))
    assert calls == [text.labels for text in texts]
