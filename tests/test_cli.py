"""Exit codes of the command-line interface on a tiny synthetic corpus.

0 success, 1 usage error, 2 data or contract error, 3 numeric failure
during training.
"""

import json
import struct
import zlib

import pytest

from sentbound import cli, evaluation
from sentbound.errors import ContractError
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


def test_cross_corpus_eval_writes_its_report(workdir, tmp_path, capsys):
    """Train on one corpus, test on another; the report files hold what
    was printed."""
    other = tmp_path / "other"
    assert cli.main(["synth", "--texts", "3", "--sentences-per-text", "2", "--seed", "1",
                     "--out", str(other)]) == 0
    report = tmp_path / "r"
    code = cli.main(["eval", "--train-corpus", str(workdir / "corpus"),
                     "--test-corpus", str(other), "--report", str(report), *SMALL_MODEL])
    assert code == 0
    out = capsys.readouterr().out
    table, line = out.removesuffix("\n").rsplit("\n", 1)
    assert line.startswith("corpus->other\trcnn\tembeddings+pos\t")
    assert (tmp_path / "r.txt").read_text(encoding="utf-8") == table + "\n"
    assert (tmp_path / "r.tsv").read_text(encoding="utf-8") == line + "\n"


@pytest.mark.parametrize("corpora", [["--train-corpus"], ["--corpus", "--train-corpus"]])
def test_eval_corpus_flags_that_do_not_pair_are_a_usage_error(workdir, corpora, capsys):
    args = [arg for flag in corpora for arg in (flag, str(workdir / "corpus"))]
    assert cli.main(["eval", *args]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")


def test_segment_output_goes_to_the_file(workdir, tmp_path, capsys):
    args = ["segment", "--model", str(workdir / "m.dbnd"),
            "--input", str(workdir / "input.txt"), "--alpha", "1.0"]
    assert cli.main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert cli.main([*args, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed != ""


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
    refused by the evaluation config, a data error."""
    config = workdir / "folds.conf"
    config.write_text("folds = 1\n", encoding="utf-8")
    code = cli.main(["eval", "--corpus", str(workdir / "corpus"), "--config", str(config)])
    assert code == 2
    assert "2 folds" in capsys.readouterr().err


def test_config_value_is_a_string_until_its_option_types_it(workdir, capsys):
    """features takes no type, so "1" stays a string and is refused as a
    feature set; a guessed int would crash the command."""
    config = workdir / "features.conf"
    config.write_text("features = 1\n", encoding="utf-8")
    code = cli.main(["eval", "--corpus", str(workdir / "corpus"), "--config", str(config)])
    assert code == 2
    assert "unknown feature set '1'" in capsys.readouterr().err


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


def _segment(root, model="m.dbnd", tokens="input.txt"):
    return ["segment", "--model", str(root / model), "--input", str(root / tokens)]


def _eval(root):
    return ["eval", "--corpus", str(root / "corpus"), "--folds", "2", *SMALL_MODEL]


# Command lines that each name a path that cannot be read or written.
UNUSABLE_PATHS = {
    "missing_model": lambda root: _segment(root, model="missing.dbnd"),
    "directory_input": lambda root: _segment(root, tokens="corpus"),
    "missing_embeddings": lambda root: [*_eval(root), "--embeddings", str(root / "no.vec")],
    "missing_config": lambda root: [*_segment(root), "--config", str(root / "no.cfg")],
    "report_in_missing_dir": lambda root: [*_eval(root), "--report", str(root / "nodir/r")],
}


@pytest.mark.parametrize("case", UNUSABLE_PATHS)
def test_unusable_path_is_a_data_error(workdir, case, capsys):
    assert cli.main(UNUSABLE_PATHS[case](workdir)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Command lines that each read a text file, and that file's bytes; 0xff
# is never part of UTF-8 text.
NOT_UTF8_INPUTS = {
    "config": (b"epochs = 1\n\xff\n", lambda root, bad: [*_eval(root), "--config", str(bad)]),
    "corpus": (b"#id x group CTL\na\xff\tt01\t-\tB\n",
               lambda root, bad: ["eval", "--corpus", str(bad)]),
    "embeddings": (b"1 2\na\xff 0.1 0.2\n",
                   lambda root, bad: [*_eval(root), "--embeddings", str(bad)]),
    "manifest": (b"n_texts = 2\n\xff\n",
                 lambda root, bad: ["synth", "--from-manifest", str(bad),
                                    "--out", str(root / "never")]),
    "segment_input": (b"a b \xff\n", lambda root, bad: [
        "segment", "--model", str(root / "m.dbnd"), "--input", str(bad)]),
}


@pytest.mark.parametrize("case", NOT_UTF8_INPUTS)
def test_text_input_that_is_not_utf8_is_a_data_error(workdir, tmp_path, case, capsys):
    content, command = NOT_UTF8_INPUTS[case]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    assert cli.main(command(workdir, bad)) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


@pytest.mark.parametrize("flag, value", [
    ("--mean-sentence-len", "nan"),
    ("--mean-sentence-len", "inf"),
    ("--sentences-per-text", "nan"),
    ("--prosody-cue-strength", "nan"),
])
def test_non_finite_synth_setting_is_a_data_error(tmp_path, flag, value, capsys):
    code = cli.main(["synth", "--texts", "2", flag, value, "--out", str(tmp_path / "c")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("flag", ["--mean-sentence-len", "--sentences-per-text"])
def test_synth_mean_above_the_cap_is_a_data_error(tmp_path, flag, capsys):
    """A finite mean too large for the Poisson sampler, such as 1e300,
    exits 2 with one error line."""
    code = cli.main(["synth", "--texts", "2", flag, "1e300", "--out", str(tmp_path / "c")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "c").exists()


def test_embeddings_header_that_declares_a_huge_table_is_a_data_error(
        workdir, tmp_path, capsys):
    """The table is sized from the rows read, not from the header, so a
    header that declares 10^15 words is refused, not allocated."""
    huge = tmp_path / "huge.vec"
    huge.write_text("1000000000000000 300\nw " + " ".join(["0.1"] * 300) + "\n")
    assert cli.main([*_eval(workdir), "--embeddings", str(huge)]) == 2
    assert capsys.readouterr().err == (
        f"error: {huge}: declared 1000000000000000 words, found 1\n")


def _no_training(*args, **kwargs):
    raise AssertionError("a bad setting must be refused before any training")


@pytest.mark.parametrize("case", ["flag_nan", "flag_inf", "config_nan"])
def test_non_finite_eta_is_a_data_error_before_training(workdir, tmp_path, monkeypatch,
                                                        case, capsys):
    monkeypatch.setattr(evaluation, "train_model", _no_training)
    config = tmp_path / "eta.conf"
    config.write_text("eta = nan\n", encoding="utf-8")
    extra = {"flag_nan": ["--eta", "nan"], "flag_inf": ["--eta", "inf"],
             "config_nan": ["--config", str(config)]}[case]
    assert cli.main([*_eval(workdir), *extra]) == 2
    assert "hyperparameter eta must be finite" in capsys.readouterr().err


# Evaluation settings refused whatever the feature set, and the error
# each gives.
BAD_EVAL_SETTINGS = {
    "alpha_above_one": (["--features", "embeddings+pos", "--alpha", "1.5"], "alpha"),
    "alpha_nan": (["--features", "embeddings+pos", "--alpha", "nan"], "alpha"),
    "negative_alpha_with_prosody_only": (["--features", "prosody", "--alpha", "-3"], "alpha"),
    "fused_alpha_above_one": (["--features", "all", "--alpha", "1.5"], "alpha"),
    "one_fold": (["--folds", "1"], "2 folds"),
}


@pytest.mark.parametrize("case", BAD_EVAL_SETTINGS)
def test_bad_eval_setting_is_a_data_error_before_training(workdir, monkeypatch, case, capsys):
    monkeypatch.setattr(evaluation, "train_model", _no_training)
    extra, message = BAD_EVAL_SETTINGS[case]
    assert cli.main([*_eval(workdir), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("alpha", ["2", "nan"])
def test_train_with_a_bad_alpha_leaves_no_files(workdir, tmp_path, monkeypatch, alpha, capsys):
    monkeypatch.setattr(evaluation, "train_model", _no_training)
    out = tmp_path / "bad.dbnd"
    code = cli.main(["train", "--corpus", str(workdir / "corpus"), "--out", str(out),
                     *SMALL_MODEL, "--features", "all", "--alpha", alpha])
    assert code == 2
    assert "alpha must be in [0, 1]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, command", [
    ("log_level", "eval"), ("variant", "eval"), ("emit", "segment"),
])
def test_config_value_outside_its_choices_is_a_usage_error(workdir, tmp_path, monkeypatch,
                                                           key, command, capsys):
    """argparse checks only a flag's value against its choices; a config
    file's value is checked the same way."""
    monkeypatch.setattr(evaluation, "train_model", _no_training)
    config = tmp_path / "choice.conf"
    config.write_text(f"{key} = nan\n", encoding="utf-8")
    args = _segment(workdir) if command == "segment" else _eval(workdir)
    assert cli.main([*args, "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert "invalid choice: 'nan'" in captured.err and not captured.out


def test_net_too_large_to_allocate_is_a_data_error(workdir, monkeypatch, capsys):
    monkeypatch.setattr(evaluation, "train_model", _no_training)
    assert cli.main([*_eval(workdir), "--rec-units", "99999999999999999999"]) == 2
    assert "do not fit in memory" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--conf"], ["--config="]])
def test_an_abbreviated_config_flag_applies_the_file(workdir, tmp_path, monkeypatch, flag):
    """argparse accepts --conf for --config; either spelling, and the
    --config=path form, loads the file's values."""
    config = tmp_path / "run.cfg"
    config.write_text("epochs = 1\nfolds = 2\n", encoding="utf-8")
    seen = []

    def stop(corpus, variant, feature_set, eval_config):
        seen.append(eval_config)
        raise ContractError("stop")

    monkeypatch.setattr(cli, "cross_validated_eval", stop)
    path = [flag[0] + str(config)] if flag[0].endswith("=") else [*flag, str(config)]
    assert cli.main(["eval", "--corpus", str(workdir / "corpus"), *path]) == 2
    [used] = seen
    assert (used.train.epochs, used.folds) == (1, 2)


@pytest.mark.parametrize("command", ["train", "eval", "synth"])
def test_a_negative_seed_is_a_data_error_that_writes_nothing(workdir, tmp_path, monkeypatch,
                                                            command, capsys):
    monkeypatch.setattr(evaluation, "train_model", _no_training)
    args = {
        "train": ["train", "--corpus", str(workdir / "corpus"), "--out",
                  str(tmp_path / "m.dbnd"), *SMALL_MODEL],
        "eval": _eval(workdir),
        "synth": ["synth", "--texts", "2", "--out", str(tmp_path / "synth")],
    }[command]
    assert cli.main([*args, "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
