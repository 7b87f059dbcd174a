"""The summary of scripts/bench_pairs.py on canned result lines; no
benchmark runs."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

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
