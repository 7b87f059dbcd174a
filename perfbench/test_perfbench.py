"""Smoke tests of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
from pathlib import Path

import pytest

from sentbound import evaluation
from sentbound.corpus import Corpus

import spans
import workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
TINY_SENTENCES = {"cv-rcnn-short": (2,), "segment-rcnn": (1, 2, 3)}
SEED = 3


@pytest.fixture(autouse=True)
def few_repeats(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads, "SECONDARY_CV_CALLS", 1)


def tiny(name):
    return dataclasses.replace(
        workloads.WORKLOADS[name], sentences=TINY_SENTENCES[name], texts=10,
        cv_texts=5, model_texts=5, units=4, epochs=1,
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_appears_with_its_unit(name, trace, tmp_path):
    result, info = workloads.run(tiny(name), SEED, 0.0, trace, tmp_path)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in listed}
    # Untraced CV calls are timed in segments cut where each model and each
    # training batch starts; every call is cut alike.
    if info["cv_walls_s"]:
        (segments,) = info["cv_segments"]
        assert segments > 2 * workloads.FOLDS + 1
    else:
        assert info["cv_segments"] == []
    assert info["setup_repeats"] == workloads.SETUP_REPEATS
    if trace:
        rows = [json.loads(line) for line in Path(info["spans"]).read_text().splitlines()]
        assert rows and all(parent < i for i, parent, *_ in rows)


def test_tracing_leaves_results_unchanged(tmp_path, monkeypatch):
    wl = tiny("cv-rcnn-short")
    plain, plain_info = workloads.run(wl, SEED, 0.0, False, tmp_path)
    traced, traced_info = workloads.run(wl, SEED, 0.0, True, tmp_path)
    # A traced call whose report differs from the untraced ones counts as failed.
    assert traced_info["traced_ops"] >= 1 and traced["failed"] == 0
    assert traced_info["f1"] == plain["metrics"]["f1"]["value"]

    losses = []
    train_model = evaluation.train_model

    def recording(*args, **kwargs):
        bundle, trace = train_model(*args, **kwargs)
        losses.append(trace[-1])
        return bundle, trace

    monkeypatch.setattr(evaluation, "train_model", recording)
    data = workloads.make_corpus(wl.name, wl.texts, wl.sentences, workloads.stream_seed(SEED, 1))
    evaluation.cross_validated_eval(
        Corpus(data.texts[: wl.cv_texts], name=wl.name), workloads.VARIANT, "all",
        workloads.eval_config(wl, SEED),
    )
    assert sum(losses) == traced["metrics"]["training.final_loss"]["value"]


def test_missing_hook_leaves_its_metrics_out(tmp_path, monkeypatch, capsys):
    hooks = [h for h in spans.HOOKS if h[0] != "training.pad"]
    monkeypatch.setattr(spans, "HOOKS", hooks + [("training.pad", "sentbound.training", "gone")])
    result, _ = workloads.run(tiny("cv-rcnn-short"), SEED, 0.0, True, tmp_path)
    assert result["correct"]
    assert "training.pad_ratio" not in result["metrics"]
    assert "training.batches" in result["metrics"]
    assert "sentbound.training.gone is gone" in capsys.readouterr().err
