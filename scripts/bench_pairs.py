"""Run the benchmark on a base revision and on the working tree, in pairs.

    python3 scripts/bench_pairs.py --base HEAD --seconds 50 --first-seed 4 \
        --pairs segment-rcnn=10 --pairs cv-rcnn-short=5 --out BENCH_6.json

Run it from the root of a checkout. The base revision is exported with
``git archive`` into ``.bench_build/<sha>/``; the change is the working
tree as it stands, uncommitted edits included. Pair i of a workload runs
``perfbench/run.py`` with seed ``first_seed + i`` once in each tree, the
base first in even pairs and the change first in odd ones, so that a
slow stretch of the host does not always fall on the same side.

The output file holds, per workload, the seeds, every run's two output
lines (run description and result) and, per end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles, the median and
quartiles of the per-pair ratio change / base, and the pairs the change
won, lost and tied. The ratios compare the two runs of one pair, which
sit minutes apart, so a host whose speed drifts over the whole run moves
them less than it moves either side's own quartiles. The file's other
top-level keys, such as the ``in_process`` readings of
``bench_inprocess.py``, stay.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def export_base(rev):
    """The tree of rev under .bench_build/<sha>, exported once."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = BUILD / sha
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return sha, tree


def read_report(path):
    """The JSON object in path, or an empty one when there is no file."""
    return json.loads(path.read_text()) if path.exists() else {}


def write_report(path, **keys):
    """Set these top-level keys of the JSON object in path, made when
    missing; the object's other keys, such as the readings another script
    wrote there, stay as they are."""
    report = read_report(path)
    report.update(keys)
    path.write_text(json.dumps(report, indent=1) + "\n")


def run_once(tree, workload, seed, seconds):
    """The run-description and result objects of one benchmark run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    info, result = (json.loads(line) for line in out.splitlines()[-2:])
    return {"info": info, "result": result}


def quartiles(values):
    """(q1, median, q3), by the inclusive method so that two values work."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, metrics):
    """Per metric: each side's median and quartiles, and the change's wins.

    pairs: (base_result, change_result) result objects of perfbench/run.py;
    metrics: BENCHMARK.json end-to-end entries (name, better). A pair in
    which either side lacks the metric is skipped. The change wins a pair
    when its value is better in the metric's direction; equal values tie.
    ``gap_exceeds_base_iqr`` says whether the medians differ by more than
    the distance between the base's quartiles. ``ratio`` holds the
    quartiles of change / base over the pairs whose base value is not 0,
    or is None when there are none.
    """
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
        values = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                  for b, c in pairs if name in b["metrics"] and name in c["metrics"]]
        if not values:
            continue
        sides = {}
        for side, column in (("base", [b for b, _ in values]), ("change", [c for _, c in values])):
            q1, median, q3 = quartiles(column)
            sides[side] = {"q1": q1, "median": median, "q3": q3}
        gaps = [sign * (b - c) for b, c in values]  # > 0: the change is better
        ratios = [c / b for b, c in values if b]
        base, change = sides["base"]["median"], sides["change"]["median"]
        summary[name] = {
            "better": metric["better"],
            "pairs": len(values),
            **sides,
            "ratio": dict(zip(("q1", "median", "q3"), quartiles(ratios))) if ratios else None,
            "wins": sum(g > 0 for g in gaps),
            "losses": sum(g < 0 for g in gaps),
            "ties": sum(g == 0 for g in gaps),
            "median_change_pct": 100.0 * (change - base) / base if base else None,
            "gap_exceeds_base_iqr": abs(change - base) > sides["base"]["q3"] - sides["base"]["q1"],
        }
    return summary


def parse_pairs(text):
    workload, _, count = text.partition("=")
    if not workload or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=PAIRS, got {text!r}")
    return workload, int(count)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=parse_pairs, action="append", required=True,
                        metavar="WORKLOAD=PAIRS")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sha, base_tree = export_base(args.base)
    report = {"base": {"rev": args.base, "sha": sha}, "change": "working tree",
              "seconds": args.seconds, "workloads": {}}
    for workload, count in args.pairs:
        seeds = list(range(args.first_seed, args.first_seed + count))
        runs = []
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(base_tree if side == "base" else ROOT,
                                      workload, seed, args.seconds)
            runs.append(pair)
            report.setdefault("machine", pair["base"]["info"]["machine"])
            report["workloads"][workload] = {
                "seeds": seeds,
                "runs": runs,
                "summary": summarize(
                    [(p["base"]["result"], p["change"]["result"]) for p in runs], metrics
                ),
            }
            # rewritten after every pair, so an interrupted run keeps its pairs
            write_report(args.out, **report)
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
