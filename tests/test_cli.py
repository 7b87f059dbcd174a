"""Exit codes of the command-line interface on a tiny synthetic corpus.

0 success, 1 usage error, 2 data or contract error, 3 numeric failure
during training.
"""

import json
import struct
import zlib

import pytest

from sentbound import cli
from sentbound.model import FORMAT_VERSION, MAGIC, load_model

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


def test_segment_reads_a_token_file(workdir, tmp_path, capsys):
    """Words are lower-cased, punctuation is stripped, and the file's stem
    names the text."""
    path = tmp_path / "story.txt"
    path.write_text("Então, A b. C! então d e.\n", encoding="utf-8")
    text = cli._read_segment_input(path)
    assert text.id == "story"
    assert text.prosody is None
    code = cli.main(["segment", "--model", str(workdir / "m.dbnd"),
                     "--input", str(path), "--alpha", "1.0", "--emit", "tsv"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[0] for row in rows] == "então a b c então d e".split()


@pytest.mark.parametrize("content, code", [("", 0), (" \n\t\n", 0), (". , !\n", 2)])
def test_segment_of_an_input_without_words(workdir, tmp_path, capsys, content, code):
    """No tokens at all prints nothing and succeeds; tokens that are all
    punctuation leave no word to label, which is a data error."""
    path = tmp_path / "input.txt"
    path.write_text(content, encoding="utf-8")
    args = ["segment", "--model", str(workdir / "m.dbnd"), "--input", str(path)]
    assert cli.main(args) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if code:
        assert "empty after punctuation removal" in captured.err


def test_default_train_then_segment_falls_back_to_lexical(workdir, capsys, caplog):
    """The fixture's model was trained with default flags, so it fuses
    (alpha < 1) and uses PoS tags; token input has neither prosody nor tags."""
    stored = load_model(workdir / "m.dbnd").alpha
    assert stored < 1.0
    args = ["segment", "--model", str(workdir / "m.dbnd"),
            "--input", str(workdir / "input.txt")]
    assert cli.main(args) == 0
    words = capsys.readouterr().out.replace(" .", "").split()
    assert words == "então a b c então d e".split()
    assert f"stored alpha {stored:g}" in caplog.text
    assert "trained with PoS tags" in caplog.text
    assert cli.main([*args, "--alpha", "0.5"]) == 2
    assert "has no prosody" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_train_is_a_numeric_failure(workdir, capsys):
    """Divergence exits 3 through softmax's NumericError, with finite norms
    and without numpy's overflow warnings on the way."""
    code = cli.main([
        "train", "--corpus", str(workdir / "corpus"), "--out", str(workdir / "d.dbnd"),
        "--eta", "1e300", "--epochs", "3", "--conv-filters", "4", "--rec-units", "4",
        "--alpha", "1.0",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "parameter norms" in err
    norms = err.split("parameter norms: ", 1)[1]
    assert "inf" not in norms and "nan" not in norms


def test_synth_manifest_regenerates_the_corpus(workdir, tmp_path):
    manifest = workdir / "corpus" / "synth.manifest"
    assert cli.main(["synth", "--from-manifest", str(manifest), "--out", str(tmp_path)]) == 0
    files = sorted(p.name for p in (workdir / "corpus").iterdir())
    assert files == sorted(p.name for p in tmp_path.iterdir())
    for name in files:
        assert (tmp_path / name).read_bytes() == (workdir / "corpus" / name).read_bytes()


def _drop_n_texts(lines):
    return [line for line in lines if not line.startswith("n_texts")]


def _vocab_size_lots(lines):
    return [("vocab_size = lots" if line.startswith("vocab_size") else line) for line in lines]


@pytest.mark.parametrize("edit", [_drop_n_texts, _vocab_size_lots])
def test_malformed_synth_manifest_is_a_data_error(workdir, tmp_path, edit, capsys):
    lines = (workdir / "corpus" / "synth.manifest").read_text().splitlines()
    bad = tmp_path / "bad.manifest"
    bad.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
    code = cli.main(["synth", "--from-manifest", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_eval(workdir, capsys):
    code = cli.main([
        "eval", "--corpus", str(workdir / "corpus"), "--folds", "2", *SMALL_MODEL,
    ])
    assert code == 0
    last = capsys.readouterr().out.splitlines()[-1].split("\t")
    assert last[:3] == ["corpus", "rcnn", "embeddings+pos"]


@pytest.fixture
def narrow_embeddings(tmp_path):
    """A pretrained table of 2 words and 3 dimensions, narrower than the
    default word_dim."""
    path = tmp_path / "vectors.txt"
    path.write_text("2 3\nentão 0.1 0.2 0.3\na -0.4 0.5 0.6\n", encoding="utf-8")
    return path


def test_train_then_segment_with_narrow_embeddings(workdir, narrow_embeddings, capsys):
    out = workdir / "narrow.dbnd"
    assert cli.main([
        "train", "--corpus", str(workdir / "corpus"), "--out", str(out),
        "--embeddings", str(narrow_embeddings), *SMALL_MODEL,
    ]) == 0
    lexical = load_model(out).lexical
    assert lexical.hyperparams.word_dim == 3
    assert lexical.params["emb_word"].shape == (3, 3)
    capsys.readouterr()
    assert cli.main(["segment", "--model", str(out), "--input",
                     str(workdir / "input.txt"), "--emit", "tsv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[0] for row in rows] == "então a b c então d e".split()


def test_eval_with_narrow_embeddings(workdir, narrow_embeddings, capsys):
    code = cli.main([
        "eval", "--corpus", str(workdir / "corpus"), "--folds", "2",
        "--embeddings", str(narrow_embeddings), *SMALL_MODEL,
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


@pytest.mark.parametrize("key", ["jobs", "no_such_key", "help"])
def test_unknown_config_key_is_a_usage_error(workdir, key, capsys):
    config = workdir / f"{key}.conf"
    config.write_text(f"{key} = 2\n", encoding="utf-8")
    code = cli.main([
        "eval", "--corpus", str(workdir / "corpus"), "--config", str(config),
    ])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_known_config_key_reaches_the_command(workdir, capsys):
    """folds = 1 from the config file gets past the key check and is
    refused by the CV run itself, a data error."""
    config = workdir / "folds.conf"
    config.write_text("folds = 1\n", encoding="utf-8")
    code = cli.main(["eval", "--corpus", str(workdir / "corpus"), "--config", str(config)])
    assert code == 2
    assert "2 folds" in capsys.readouterr().err


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
