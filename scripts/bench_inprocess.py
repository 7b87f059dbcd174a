"""Time requests of a base revision and the working tree in one process.

    python3 scripts/bench_inprocess.py --base HEAD --workload cv-rcnn-short \
        --seed 21 --out BENCH_22.json

Run it from the root of a checkout. The base revision is exported as
``scripts/bench_pairs.py`` does, into ``.bench_build/<sha>/``, and its
``src/sentbound`` is imported as the package ``sentbound_base``; the
working tree, uncommitted edits included, is imported as ``sentbound``.
Set-up is the workload's own (``perfbench/workloads.py`` of the working
tree, on ``--seed``): it trains a segmenter and saves it, and every side
loads that one file. There are three sides, loaded in this order: the
base, the base again, whose ratio to the base is an A/A, the noise floor
of this process, and last the change, so that any cost of a later load
counts against the change. Before any timing, every side must give
every workload text the same labels and probabilities. Two loads of one
model can answer at different speeds, with where their prepared weights
land. At n = 100 (segment-rcnn), whose recurrent weight stacks start
each row on a cache line, an A/A read medians of 1.020–1.051 and an A/B
of an unchanged tree 1.010–1.070, at seeds 21–23 on a 2-vCPU host; at
n = 16 (cv-rcnn-short), two loads read 1–2 % apart. So one load per side
resolves a few-per-cent change on cv-rcnn-short only.

Timing runs PASSES passes over the workload's texts. Each text's
requests go to the three sides in an order that rotates from text to text
and from pass to pass, so that a slow stretch of the host falls on every
side alike. A side's time for a text is its fastest request, in ms per 1k
tokens. The report holds, for the change and for the A/A, the median and
quartiles of the per-text ratio side / base and the texts each side won;
a ratio below 1 is faster than the base. Separate processes place the
prepared weights differently on the heap, which moved request latency by
several per cent between runs of identical code; pairs within one process
share one placement per side for the whole run.

A cv workload (perfbench's ``cv-rcnn-short``) is timed here by its
requests alone. Its CV call is compared in separate processes, as pairs
of perfbench's ``cv_wall_s`` (``scripts/bench_pairs.py``), and its
results by ``scripts/fingerprint.py``.

``--out`` names a JSON file: the report goes under its
``in_process.<workload>`` key, and the file's other keys, such as the
pairs of ``bench_pairs.py``, stay.
"""

import argparse
import importlib.util
import math
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, as perfbench/run.py does
sys.path.insert(0, str(Path(__file__).parent))

import numpy as np  # noqa: E402

import bench_pairs  # noqa: E402

BASE_PACKAGE = "sentbound_base"
PASSES = 30


def import_tree(package, src):
    """The sentbound package under src/ imported as `package`, with its
    own submodules (sentbound's imports inside the package are relative)."""
    init = Path(src) / "sentbound" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        package, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module
    spec.loader.exec_module(module)
    return module


def check_identical(sides, texts):
    """Every side gives every text the labels and probabilities of the first."""
    for text in texts:
        (want_labels, want), *others = (seg.predict_probs(text) for seg in sides.values())
        for name, (labels, probs) in zip(list(sides)[1:], others):
            if labels != want_labels or not np.array_equal(probs, want):
                raise SystemExit(f"{name} predicts {text.id} differently")


def best_latencies(sides, texts, passes):
    """Per side, each text's fastest request over the passes, in ms per
    1k tokens. The sides' order rotates by one from text to text and from
    pass to pass."""
    names = list(sides)
    best = {name: [math.inf] * len(texts) for name in names}
    for p in range(passes):
        for i, text in enumerate(texts):
            k = (p + i) % len(names)
            for name in names[k:] + names[:k]:
                started = time.perf_counter()
                sides[name].predict_probs(text)
                ms = (time.perf_counter() - started) * 1e6 / len(text)
                best[name][i] = min(best[name][i], ms)
    return best


def ratio_summary(base, other):
    """Quartiles of the per-text ratios other / base, and the texts on
    which other was faster (wins), slower (losses) or equal."""
    ratios = [o / b for b, o in zip(base, other, strict=True)]
    q1, median, q3 = bench_pairs.quartiles(ratios)
    return {"texts": len(ratios), "q1": q1, "median": median, "q3": q3,
            "wins": sum(r < 1.0 for r in ratios), "losses": sum(r > 1.0 for r in ratios),
            "ties": sum(r == 1.0 for r in ratios)}


def compare(sides, texts, passes):
    """check_identical, then best_latencies; sides' first entry is the
    base, and every other side is summarised against it."""
    check_identical(sides, texts)
    best = best_latencies(sides, texts, passes)
    base, *others = sides
    return {"ratios": {name: ratio_summary(best[base], best[name]) for name in others},
            "best_ms_per_1k_tok": best}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", default="cv-rcnn-short")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import sentbound
    import workloads
    from run import machine_info

    sha, tree = bench_pairs.export_base(args.base)
    base = import_tree(BASE_PACKAGE, tree / "src")
    wl = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        data = workloads.set_up(wl, args.seed, Path(tmp))[0]
        path = Path(tmp) / "segmenter.dbnd"
        # loaded in this order, the change last (module docstring)
        sides = {"base": base.model.load_model(path),
                 "base_again": base.model.load_model(path),
                 "change": sentbound.model.load_model(path)}
    result = compare(sides, data.texts, PASSES)
    reading = {
        "base": {"rev": args.base, "sha": sha}, "change": "working tree",
        "packages": {name: str(Path(module.__file__).relative_to(ROOT))
                     for name, module in (("base", base), ("change", sentbound))},
        "seed": args.seed, "passes": PASSES, "load_order": list(sides),
        "machine": machine_info(),
        "ab": result["ratios"]["change"], "aa": result["ratios"]["base_again"],
        "best_ms_per_1k_tok": result["best_ms_per_1k_tok"],
    }
    in_process = bench_pairs.read_report(args.out).get("in_process", {})
    bench_pairs.write_report(args.out, in_process={**in_process, args.workload: reading})
    for name in ("ab", "aa"):
        r = reading[name]
        print(f"requests {name}: median {r['median']:.3f} "
              f"(IQR {r['q1']:.3f}-{r['q3']:.3f}), won {r['wins']}/{r['texts']}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
