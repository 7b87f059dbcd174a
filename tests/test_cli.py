"""Exit codes of the command-line interface on a tiny synthetic corpus.

0 success, 1 usage error, 2 data or contract error.
"""

import json
import struct
import zlib

import pytest

from sentbound import cli
from sentbound.model import FORMAT_VERSION, MAGIC

SMALL_MODEL = ["--epochs", "1", "--conv-filters", "4", "--rec-units", "4"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthesised corpus and a model trained on it, made through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    assert cli.main([
        "synth", "--texts", "6", "--sentences-per-text", "2",
        "--prosody-cue-strength", "2.0", "--out", str(root / "corpus"),
    ]) == 0
    assert cli.main([
        "train", "--corpus", str(root / "corpus"), "--out", str(root / "m.dbnd"),
        *SMALL_MODEL,
    ]) == 0
    (root / "input.txt").write_text("então a b c então d e\n", encoding="utf-8")
    return root


def test_synth_and_train_write_their_files(workdir):
    assert len(list((workdir / "corpus").glob("*.tsv"))) == 6
    assert (workdir / "corpus" / "synth.manifest").exists()
    assert (workdir / "m.dbnd").exists()
    assert "features = all" in (workdir / "m.dbnd.manifest").read_text()


def test_train_truncates_its_epoch_logs(workdir):
    out = workdir / "again.dbnd"
    args = ["train", "--corpus", str(workdir / "corpus"), "--out", str(out),
            "--features", "all", *SMALL_MODEL, "--epochs", "2", "--alpha", "0.5"]
    for _ in range(2):
        assert cli.main(args) == 0
    for kind in ("lexical", "prosodic"):
        lines = (workdir / f"again.dbnd.{kind}.log").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == ["0", "1"]


def test_segment_lexical_only(workdir, capsys):
    code = cli.main([
        "segment", "--model", str(workdir / "m.dbnd"),
        "--input", str(workdir / "input.txt"), "--alpha", "1.0", "--emit", "tsv",
    ])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[0] for row in rows] == "então a b c então d e".split()


def test_eval(workdir, capsys):
    code = cli.main([
        "eval", "--corpus", str(workdir / "corpus"), "--folds", "2", *SMALL_MODEL,
    ])
    assert code == 0
    last = capsys.readouterr().out.splitlines()[-1].split("\t")
    assert last[:3] == ["corpus", "rcnn", "embeddings+pos"]


@pytest.mark.parametrize("command", ["train", "segment", "eval", "synth"])
def test_jobs_flag_is_a_usage_error(workdir, command, capsys):
    args = {
        "train": ["--corpus", str(workdir / "corpus"), "--out", str(workdir / "j.dbnd")],
        "segment": ["--model", str(workdir / "m.dbnd"), "--input", str(workdir / "input.txt")],
        "eval": ["--corpus", str(workdir / "corpus")],
        "synth": ["--texts", "2", "--out", str(workdir / "j")],
    }[command]
    assert cli.main([command, *args, "--jobs", "2"]) == 1
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["jobs", "no_such_key"])
def test_unknown_config_key_is_a_usage_error(workdir, key, capsys):
    config = workdir / f"{key}.conf"
    config.write_text(f"{key} = 2\n", encoding="utf-8")
    code = cli.main([
        "eval", "--corpus", str(workdir / "corpus"), "--config", str(config),
    ])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def _flip_a_byte(data):
    return data[:20] + bytes([data[20] ^ 0xFF]) + data[21:]


def _meta_only(data):
    """A container with a valid CRC whose meta is only {"alpha": 1.0}."""
    meta = json.dumps({"alpha": 1.0}).encode("utf-8")
    body = MAGIC + struct.pack("<II", FORMAT_VERSION, len(meta)) + meta + struct.pack("<I", 0)
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("corrupt", [_flip_a_byte, _meta_only])
def test_corrupt_model_is_a_data_error(workdir, corrupt, capsys):
    bad = workdir / f"{corrupt.__name__}.dbnd"
    bad.write_bytes(corrupt((workdir / "m.dbnd").read_bytes()))
    code = cli.main([
        "segment", "--model", str(bad), "--input", str(workdir / "input.txt"),
        "--alpha", "1.0",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
