"""Every name the benchmark patches resolves on the tree; no benchmark runs.

perfbench/spans.py skips a hook whose name is gone with a warning, and a
metric fed by several hook sites (model.fuse, features.encode) still
appears when one site is lost, so only a check of each site sees it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
spec = importlib.util.spec_from_file_location("bench_spans", PERFBENCH / "spans.py")
bench_spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_spans)


@pytest.mark.parametrize("span, module_name, path", bench_spans.HOOKS,
                         ids=[f"{m}.{p}" for _, m, p in bench_spans.HOOKS])
def test_every_hooked_name_resolves(span, module_name, path):
    """The tracer walks the attribute path from the module and reads the
    last name from its owner's own attributes."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), f"{span}: {module_name}.{path} is gone"


def test_every_cut_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports spans
    workloads = importlib.import_module("workloads")
    for module, name in workloads.CUT_AT:
        assert callable(vars(module).get(name)), f"{module.__name__}.{name} is gone"
