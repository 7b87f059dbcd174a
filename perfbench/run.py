"""Run one workload of the sentbound benchmark and print its metrics.

    python3 perfbench/run.py --workload cv-rcnn-short --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: it imports ``sentbound`` from that
checkout's ``src/`` and fails, printing no result, when there is none.
The last line of standard output is the result object; the line before
it describes the run (operation counts, machine, BLAS). ``--trace 1``
reports per-layer figures instead of end-to-end ones and writes the
spans to ``.perfbench_out/<workload>.spans.jsonl``.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_info():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads: the benchmark is one client
    # on a small machine, and BLAS threads only add contention there.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "sentbound" / "__init__.py").is_file():
        print(f"perfbench: no sentbound sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sentbound
    import workloads

    if Path(sentbound.__file__).resolve().parent != SRC / "sentbound":
        print(f"perfbench: imported sentbound from {sentbound.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    result, info = workloads.run(
        workloads.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), OUT_DIR,
    )
    info["machine"] = machine_info()
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
