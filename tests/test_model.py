"""Tests for probability fusion and the DBND model container: round trip
and half-valid files."""

import json
import struct
import zlib

import numpy as np
import pytest

from sentbound.errors import ContractError, ModelFileError
from sentbound.features import EmbeddingTable, ProsodyStats
from sentbound.model import (
    FORMAT_VERSION,
    MAGIC,
    Hyperparams,
    TrainedSegmenter,
    _bundle_meta,
    _pack_block,
    fuse,
    labels_from_probs,
    load_model,
    save_model,
)
from sentbound.training import make_lexical_bundle, make_prosodic_bundle


def prob_rows(seed, m=64):
    """Rows whose boundary probabilities span 20 orders of magnitude."""
    p_b = 10.0 ** -np.random.default_rng(seed).uniform(0.0, 20.0, m)
    return np.stack([1.0 - p_b, p_b], axis=1)


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


def container(meta, segmenter, with_stats=True):
    """The bytes save_model writes, but with the given meta and a valid CRC."""
    blocks = [
        _pack_block(f"{kind}/{name}", value)
        for kind, bundle in (("lexical", segmenter.lexical), ("prosodic", segmenter.prosodic))
        for name, value in bundle.params.items()
    ]
    if with_stats:
        stats = segmenter.prosodic.prosody_stats
        blocks.append(_pack_block("stats/mean", stats.mean))
        blocks.append(_pack_block("stats/std", stats.std))
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = (
        MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta_bytes)) + meta_bytes
        + struct.pack("<I", len(blocks)) + b"".join(blocks)
    )
    return body + struct.pack("<I", zlib.crc32(body))


def intact_meta(segmenter):
    return {
        "alpha": segmenter.alpha,
        "lexical": _bundle_meta(segmenter.lexical),
        "prosodic": _bundle_meta(segmenter.prosodic),
    }


def test_crafted_container_matches_save_model(tmp_path):
    segmenter = tiny_segmenter()
    path = tmp_path / "m.dbnd"
    save_model(segmenter, path)
    assert path.read_bytes() == container(intact_meta(segmenter), segmenter)
    loaded = load_model(path)
    assert loaded.alpha == 0.5
    for name, value in segmenter.lexical.params.items():
        np.testing.assert_array_equal(loaded.lexical.params[name], value)


def _alpha_only(meta):
    return {"alpha": 1.0}, True


def _unknown_hyperparam(meta):
    meta["lexical"]["hyperparams"]["bogus"] = 1
    return meta, True


def _no_stats_blocks(meta):
    return meta, False


@pytest.mark.parametrize(
    "craft, message",
    [
        (_alpha_only, "meta needs alpha, lexical and prosodic"),
        (_unknown_hyperparam, "bad hyperparams"),
        (_no_stats_blocks, "without prosody statistics"),
    ],
)
def test_half_valid_container_raises_model_file_error(tmp_path, craft, message):
    segmenter = tiny_segmenter()
    meta, with_stats = craft(intact_meta(segmenter))
    path = tmp_path / "m.dbnd"
    path.write_bytes(container(meta, segmenter, with_stats))
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
    from sentbound.corpus import LABEL_B, LABEL_NB, LabeledText

    segmenter = tiny_segmenter()
    text = LabeledText(
        id="t", tokens=["a", "b", "c", "a"], pos_tags=["t01"] * 4,
        labels=[LABEL_NB, LABEL_B, LABEL_NB, LABEL_B],
        prosody=np.random.default_rng(1).standard_normal((4, 13)),
    )
    first = segmenter.predict_probs(text)
    built = []
    from_rows = EmbeddingTable.from_rows.__func__
    monkeypatch.setattr(EmbeddingTable, "from_rows", classmethod(
        lambda cls, *args: built.append(args) or from_rows(cls, *args)
    ))
    for _ in range(3):
        labels, fused = segmenter.predict_probs(text)
        assert labels == first[0]
        np.testing.assert_array_equal(fused, first[1])
    assert built == []
