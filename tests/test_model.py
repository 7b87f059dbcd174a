"""Tests for the DBND model container: round trip and half-valid files."""

import json
import struct
import zlib

import numpy as np
import pytest

from sentbound.errors import ModelFileError
from sentbound.features import EmbeddingTable, ProsodyStats
from sentbound.model import (
    FORMAT_VERSION,
    MAGIC,
    Hyperparams,
    TrainedSegmenter,
    _bundle_meta,
    _pack_block,
    load_model,
    save_model,
)
from sentbound.training import make_lexical_bundle, make_prosodic_bundle


def tiny_segmenter():
    """An untrained lexical + prosodic segmenter with two-unit layers."""
    rng = np.random.default_rng(0)
    hp = Hyperparams(word_dim=2, tag_dim=2, conv_filters=2, rec_units=2)
    words = EmbeddingTable.from_tokens(["a", "b"], hp.word_dim, rng)
    tags = EmbeddingTable.from_tokens(["t01"], hp.tag_dim, rng)
    return TrainedSegmenter(
        lexical=make_lexical_bundle("rcnn", hp, words, tags, rng),
        alpha=0.5,
        prosodic=make_prosodic_bundle("rcnn", hp, rng),
        prosody_stats=ProsodyStats(np.zeros(13), np.ones(13)),
    )


def container(meta, segmenter, with_stats=True):
    """The bytes save_model writes, but with the given meta and a valid CRC."""
    blocks = [
        _pack_block(f"{kind}/{name}", value)
        for kind, bundle in (("lexical", segmenter.lexical), ("prosodic", segmenter.prosodic))
        for name, value in bundle.params.items()
    ]
    if with_stats:
        blocks.append(_pack_block("stats/mean", segmenter.prosody_stats.mean))
        blocks.append(_pack_block("stats/std", segmenter.prosody_stats.std))
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
