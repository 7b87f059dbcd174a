"""Every name the benchmark patches resolves on the tree, and every such
site is called by the operations the benchmark runs; no benchmark runs.

perfbench/spans.py skips a hook whose name is gone with a warning, and a
metric fed by several hook sites (model.fuse, features.encode) still
appears when one site is lost, so only a check of each site sees it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sentbound import corpus, evaluation, model
from sentbound.model import Hyperparams
from sentbound.training import TrainConfig

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


def test_every_hooked_site_is_reached(monkeypatch, tmp_path):
    """Each HOOKS site is called where the benchmark's operations look it
    up: a tuned-alpha rcnn CV, a segmenter trained, saved, loaded and
    asked for one text, and a synthesised corpus. A call that bypasses
    the hooked name would leave a per-layer metric silently empty."""
    calls = {}
    for _, module_name, path in bench_spans.HOOKS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        site = f"{module_name}.{path}"
        calls[site] = 0

        def counted(*args, _fn=vars(owner)[attr], _site=site, **kwargs):
            calls[_site] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    texts = corpus.synth_generate(corpus.SynthSpec(
        n_texts=6, mean_sentence_len=6.0, vocab_size=12, mean_sentences_per_text=2.0,
        seed=2, name="hooks"))
    hp = {"conv_filters": 2, "rec_units": 2}
    config = evaluation.EvalConfig(
        train=TrainConfig(epochs=1, batch_size=2), lexical_hp=Hyperparams.lexical(**hp),
        prosodic_hp=Hyperparams.prosodic(**hp), folds=2)
    evaluation.cross_validated_eval(texts, "rcnn", "all", config)
    trained = evaluation.train_segmenter(texts, "rcnn", "all", config)
    model.save_model(trained, tmp_path / "m.dbnd")
    model.load_model(tmp_path / "m.dbnd").predict_probs(texts.texts[0])
    assert [site for site, n in calls.items() if n == 0] == []
