"""The summary of scripts/bench_pairs.py on canned result lines, the
second import, a tiny request A/A and the identity check of
scripts/bench_inprocess.py, and the digest of scripts/fingerprint.py on
a shrunken matrix; no benchmark runs."""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import sentbound
from sentbound import evaluation
from sentbound.corpus import LABEL_B, LABEL_NB, SynthSpec, synth_generate
from sentbound.evaluation import EvalConfig
from sentbound.model import Hyperparams
from sentbound.numerics import network
from sentbound.training import TrainConfig

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_script("bench_pairs")
bench_inprocess = load_script("bench_inprocess")
fingerprint = load_script("fingerprint")

METRICS = [{"name": "p90", "better": "lower"}, {"name": "f1", "better": "higher"},
           {"name": "gone", "better": "lower"}]


def result_line(**values):
    return json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": {
        name: {"value": value, "unit": "x"} for name, value in values.items()
    }})


def test_summary_counts_wins_in_each_metrics_direction():
    base = [result_line(p90=v, f1=0.5) for v in (100.0, 104.0, 96.0, 98.0, 102.0)]
    change = [result_line(p90=v, f1=f) for v, f in
              ((80.0, 0.5), (85.0, 0.6), (99.0, 0.4), (75.0, 0.5), (102.0, 0.5))]
    pairs = [(json.loads(b), json.loads(c)) for b, c in zip(base, change)]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert "gone" not in summary
    p90 = summary["p90"]
    assert (p90["wins"], p90["losses"], p90["ties"], p90["pairs"]) == (3, 1, 1, 5)
    assert p90["base"] == {"q1": 98.0, "median": 100.0, "q3": 102.0}
    assert p90["change"]["median"] == 85.0
    assert p90["median_change_pct"] == pytest.approx(-15.0)
    assert p90["gap_exceeds_base_iqr"]  # 15 > 102 - 98
    f1 = summary["f1"]
    assert (f1["wins"], f1["losses"], f1["ties"]) == (1, 1, 3)
    assert f1["median_change_pct"] == 0.0 and not f1["gap_exceeds_base_iqr"]


def test_summary_reports_quartiles_of_the_per_pair_ratios():
    """Ratios pair each change run with its own base run; a zero base
    gives no ratio."""
    values = ((100.0, 80.0), (104.0, 85.0), (96.0, 99.0), (98.0, 75.0), (102.0, 102.0),
              (0.0, 5.0))
    pairs = [(json.loads(result_line(p90=b, f1=0.0)), json.loads(result_line(p90=c, f1=0.0)))
             for b, c in values]
    summary = bench_pairs.summarize(pairs, METRICS)
    ratio = summary["p90"]["ratio"]  # sorted: 75/98, 0.8, 85/104, 1.0, 99/96
    assert ratio == {"q1": 0.8, "median": 85.0 / 104.0, "q3": 1.0}
    assert summary["f1"]["ratio"] is None


def test_summary_skips_pairs_that_lack_a_metric():
    pairs = [(json.loads(result_line(p90=10.0)), json.loads(result_line(p90=9.0))),
             (json.loads(result_line(p90=10.0)), json.loads(result_line()))]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["p90"]["pairs"] == 1
    assert summary["p90"]["base"] == {"q1": 10.0, "median": 10.0, "q3": 10.0}
    assert "f1" not in summary


@pytest.mark.parametrize("text", ["segment-rcnn", "segment-rcnn=0", "=3", "x=y"])
def test_pairs_argument_needs_a_workload_and_a_positive_count(text):
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.parse_pairs(text)
    assert bench_pairs.parse_pairs("segment-rcnn=10") == ("segment-rcnn", 10)


def test_pairs_keep_the_other_keys_of_their_file(tmp_path, monkeypatch):
    """A run replaces its own keys of --out and keeps the in_process
    readings that bench_inprocess.py merged into it."""
    out = tmp_path / "bench.json"
    in_process = {"segment-rcnn": {"ab": {"median": 1.0}}}
    out.write_text(json.dumps({"in_process": in_process, "workloads": {"old": {}}}))
    monkeypatch.setattr(bench_pairs, "export_base", lambda rev: ("0" * 40, tmp_path))
    monkeypatch.setattr(bench_pairs, "run_once", lambda tree, workload, seed, seconds: {
        "info": {"machine": "m"}, "result": json.loads(result_line(p90=1.0))})
    assert bench_pairs.main(["--seconds", "1", "--first-seed", "3",
                             "--pairs", "segment-rcnn=2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["in_process"] == in_process
    assert list(report["workloads"]) == ["segment-rcnn"]
    assert report["workloads"]["segment-rcnn"]["seeds"] == [3, 4]


@pytest.fixture
def second_import():
    """The working tree's sentbound imported again under another name;
    its modules leave sys.modules afterwards."""
    name = "sentbound_second"
    try:
        yield bench_inprocess.import_tree(name, ROOT / "src")
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]


def test_the_second_import_is_a_distinct_package(second_import):
    assert second_import is not sentbound
    assert second_import.__file__ == sentbound.__file__
    for mine, theirs in ((second_import.model, sentbound.model),
                         (second_import.numerics.lstm, sentbound.numerics.lstm)):
        assert mine is not theirs
        assert mine.__name__ == theirs.__name__.replace("sentbound", "sentbound_second", 1)
    assert second_import.numerics.lstm.direction_forward is not (
        sentbound.numerics.lstm.direction_forward)


@pytest.fixture
def tiny_model(tmp_path):
    """A tiny fused rcnn segmenter saved to a file, and its corpus."""
    corpus = synth_generate(SynthSpec(n_texts=4, mean_sentences_per_text=2.0,
                                      prosody_cue_strength=2.0, seed=1))
    hp = dict(conv_filters=4, rec_units=4)
    config = EvalConfig(
        train=TrainConfig(epochs=1, batch_size=2), lexical_hp=Hyperparams.lexical(**hp),
        prosodic_hp=Hyperparams.prosodic(**hp), folds=2, alpha=0.5)
    path = tmp_path / "m.dbnd"
    sentbound.model.save_model(evaluation.train_segmenter(corpus, "rcnn", "all", config), path)
    return path, corpus


def in_process_sides(second_import, path):
    """The sides of bench_inprocess.main, in its load order."""
    return {"base": second_import.model.load_model(path),
            "base_again": second_import.model.load_model(path),
            "change": sentbound.model.load_model(path)}


def test_a_tiny_in_process_a_a_completes(second_import, tiny_model):
    path, corpus = tiny_model
    result = bench_inprocess.compare(in_process_sides(second_import, path), corpus.texts,
                                     passes=2)
    assert list(result["ratios"]) == ["base_again", "change"]
    assert [len(v) for v in result["best_ms_per_1k_tok"].values()] == [4, 4, 4]
    for summary in result["ratios"].values():
        assert summary["texts"] == 4
        assert 0.0 < summary["q1"] <= summary["median"] <= summary["q3"]
        assert summary["wins"] + summary["losses"] + summary["ties"] == 4


def test_a_side_that_predicts_differently_is_refused(second_import, tiny_model):
    """A change whose output bias moved by 1e-6 is refused before any
    timing, on the first text."""
    path, corpus = tiny_model
    sides = in_process_sides(second_import, path)
    sides["change"].lexical.params["out_b"] += 1e-6
    with pytest.raises(SystemExit, match=f"change predicts {corpus.texts[0].id} differently"):
        bench_inprocess.compare(sides, corpus.texts, passes=1)


def test_the_fingerprint_repeats_and_sees_a_perturbed_fuse(monkeypatch):
    """A shrunken matrix gives one digest run after run, and another once
    the scorer's fuse flips each text's first label."""
    tiny = dict(variants=("cnn",), feature_sets=("all",), alphas=(None,), n_texts=8)
    first = fingerprint.digest(**tiny)
    assert fingerprint.digest(**tiny) == first
    fuse = evaluation.fuse

    def perturbed(p_lex, p_pros, alpha):
        labels, fused = fuse(p_lex, p_pros, alpha)
        return [LABEL_NB if labels[0] == LABEL_B else LABEL_B, *labels[1:]], fused

    monkeypatch.setattr(evaluation, "fuse", perturbed)
    assert fingerprint.digest(**tiny) != first


def test_the_fingerprint_sees_a_loss_that_changes_no_prediction(monkeypatch):
    """A loss value one ulp-scale off, with the same gradient, trains the
    same models; only the loss traces of the digest see it. The digest
    leaves evaluation.train_model as it found it."""
    tiny = dict(variants=("cnn",), feature_sets=("all",), alphas=(None,), n_texts=8)
    first = fingerprint.digest(**tiny)
    train_model = evaluation.train_model
    loss = network.weighted_cross_entropy

    def perturbed(*args):
        value, d_logits = loss(*args)
        return value * (1.0 + 2.0 ** -50), d_logits

    monkeypatch.setattr(network, "weighted_cross_entropy", perturbed)
    assert fingerprint.digest(**tiny) != first
    assert evaluation.train_model is train_model


def test_the_fingerprint_sees_blocks_that_change_no_result(monkeypatch):
    """Predicting every test text twice, the second result thrown away,
    changes no count, loss or probability; only the record of the blocks
    that SequenceNet.forward received sees it. The digest leaves
    SequenceNet.forward as it found it."""
    tiny = dict(variants=("cnn",), feature_sets=("all",), alphas=(None,), n_texts=8)
    first = fingerprint.digest(**tiny)
    forward = network.SequenceNet.forward
    predict_texts = evaluation.predict_texts

    def twice(*args, **kwargs):
        predict_texts(*args, **kwargs)
        return predict_texts(*args, **kwargs)

    monkeypatch.setattr(evaluation, "predict_texts", twice)
    assert fingerprint.digest(**tiny) != first
    assert network.SequenceNet.forward is forward
