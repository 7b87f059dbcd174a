"""Spans around the public functions of each sentbound layer.

The library carries no timing code, so the traced run wraps module and
class attributes from here. Each hook patches the name at the site where
the caller looks it up: ``network.py``, ``training.py`` and
``evaluation.py`` import kernel and training functions by name, so
patching the defining module would miss those calls. A hook whose name
has gone missing is skipped with a warning, and every metric that needs
it is left out of the report instead of crashing the run.

Spans live in memory as ``[name, parent, phase, start, end, note]`` rows
and are written out once, at the end of the run.
"""

import importlib
import json
import sys
import time

# (span name, module the caller looks the name up in, attribute path)
HOOKS = (
    ("lstm.forward", "sentbound.numerics.network", "lstm_ops.direction_forward"),
    ("lstm.backward", "sentbound.numerics.network", "lstm_ops.direction_backward"),
    ("kernels.conv_fwd", "sentbound.numerics.network", "conv_windows"),
    ("kernels.conv_bwd", "sentbound.numerics.network", "conv1d_backward"),
    ("kernels.pool_fwd", "sentbound.numerics.network", "maxpool1d_same"),
    ("kernels.pool_bwd", "sentbound.numerics.network", "maxpool1d_backward"),
    ("kernels.softmax", "sentbound.numerics.network", "softmax"),
    ("kernels.dropout", "sentbound.numerics.network", "dropout_apply"),
    ("network.forward", "sentbound.numerics.network", "SequenceNet.forward"),
    ("network.backward", "sentbound.numerics.network", "SequenceNet.backward"),
    ("loss", "sentbound.numerics.network", "weighted_cross_entropy"),
    ("optim.step", "sentbound.training", "rmsprop_step"),
    ("training.train", "sentbound.evaluation", "train_model"),
    ("training.batch", "sentbound.training", "batch_loss_and_grads"),
    ("training.pad", "sentbound.training", "pad_item"),
    ("evaluation.alpha_tune", "sentbound.evaluation", "tune_alpha_from_probs"),
    ("evaluation.counts", "sentbound.evaluation", "boundary_counts"),
    ("model.predict", "sentbound.model", "TrainedSegmenter.predict_probs"),
    ("model.fuse", "sentbound.model", "fuse"),
    ("model.fuse", "sentbound.evaluation", "fuse"),
    ("model.fuse", "sentbound.training", "fuse"),
    ("model.save", "sentbound.model", "save_model"),
    ("model.load", "sentbound.model", "load_model"),
    ("features.encode", "sentbound.features", "LexicalEncoder.encode"),
    ("features.encode", "sentbound.features", "ProsodicEncoder.encode"),
    ("corpus.synth", "sentbound.corpus", "synth_generate"),
)


def _forward_mode(args, kwargs, result):
    # SequenceNet.forward(self, params, inp, mode="inference", rng=None)
    return kwargs.get("mode", args[3] if len(args) > 3 else "inference")


# What a span keeps from its call, for the metrics that count work.
NOTES = {
    "lstm.forward": lambda args, kwargs, result: len(args[0]),
    "network.forward": _forward_mode,
    "training.train": lambda args, kwargs, result: float(result[1][-1]),
    "training.batch": lambda args, kwargs, result: (len(args[2]), int(result[2])),
    "training.pad": lambda args, kwargs, result: (len(args[0]), int(args[1])),
}


class Tracer:
    """Patches the hooks while installed and records one span per call."""

    def __init__(self):
        self.spans = []
        self.missing = set()
        self.phase = "setup"
        self._stack = []
        self._saved = []

    def install(self):
        for name, module_name, path in HOOKS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (AttributeError, KeyError):
                self._lose(name, f"{module_name}.{path} is gone")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def _lose(self, name, why):
        if name not in self.missing:
            print(f"perfbench: warning: {why}; metrics of span {name!r} are absent",
                  file=sys.stderr)
        self.missing.add(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def traced(*args, **kwargs):
            row = [name, stack[-1] if stack else -1, self.phase, 0.0, 0.0, None]
            spans.append(row)
            stack.append(len(spans) - 1)
            row[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[4] = time.perf_counter()
                stack.pop()
            if note is not None:
                try:
                    row[5] = note(args, kwargs, result)
                except (IndexError, KeyError, TypeError):
                    self._lose(name, f"the call or result of {name!r} changed shape")
            return result

        return traced

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, parent, phase, start, end, note) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, phase, start, end, note]) + "\n")


# metric -> (unit, spans it needs)
LAYER_METRICS = {
    "lstm.forward_ms": ("ms", {"lstm.forward"}),
    "lstm.backward_ms": ("ms", {"lstm.backward"}),
    "lstm.calls": ("count", {"lstm.forward"}),
    "lstm.steps": ("count", {"lstm.forward"}),
    "kernels.conv_fwd_ms": ("ms", {"kernels.conv_fwd"}),
    "kernels.conv_bwd_ms": ("ms", {"kernels.conv_bwd"}),
    "kernels.pool_fwd_ms": ("ms", {"kernels.pool_fwd"}),
    "kernels.pool_bwd_ms": ("ms", {"kernels.pool_bwd"}),
    "kernels.softmax_ms": ("ms", {"kernels.softmax"}),
    "kernels.dropout_ms": ("ms", {"kernels.dropout"}),
    "network.forward_train_ms": ("ms", {"network.forward"}),
    "network.forward_infer_ms": ("ms", {"network.forward"}),
    "network.backward_ms": ("ms", {"network.backward"}),
    "network.forward_calls": ("count", {"network.forward"}),
    "network.backward_calls": ("count", {"network.backward"}),
    "network.forward_self_ms": ("ms", {"network.forward"}),
    "network.backward_self_ms": ("ms", {"network.backward"}),
    "loss.ms": ("ms", {"loss"}),
    "optim.step_ms": ("ms", {"optim.step"}),
    "optim.steps": ("count", {"optim.step"}),
    "training.train_ms": ("ms", {"training.train"}),
    "training.tokens_per_s": ("1/s", {"training.train", "training.batch"}),
    "training.batches": ("count", {"training.batch"}),
    "training.seqs_per_batch": ("count", {"training.batch"}),
    "training.pad_ratio": ("ratio", {"training.pad"}),
    "training.final_loss": ("loss", {"training.train"}),
    "evaluation.alpha_tune_ms": ("ms", {"evaluation.alpha_tune"}),
    "evaluation.counts_ms": ("ms", {"evaluation.counts"}),
    "model.predict_ms": ("ms", {"model.predict"}),
    "model.fuse_ms": ("ms", {"model.fuse"}),
    "model.save_ms": ("ms", {"model.save"}),
    "model.load_ms": ("ms", {"model.load"}),
    "features.encode_ms": ("ms", {"features.encode"}),
    "features.encode_calls": ("count", {"features.encode"}),
    "corpus.synth_ms": ("ms", {"corpus.synth"}),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, timed_ops, setups, final_loss):
    """Per-layer figures: timed spans per traced operation, set-up spans
    per set-up. ``final_loss`` is the training.final_loss of one traced
    operation, which the caller has checked to repeat exactly."""
    spans = tracer.spans
    child_ms = [0.0] * len(spans)
    for name, parent, phase, start, end, note in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
    per = {"timed": {}, "setup": {}}
    train_fwd_ms = 0.0
    for i, (name, parent, phase, start, end, note) in enumerate(spans):
        acc = per[phase].setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0,
                                           "notes": []})
        ms = (end - start) * 1e3
        acc["ms"] += ms
        acc["self_ms"] += ms - child_ms[i]
        acc["calls"] += 1
        if note is not None:
            acc["notes"].append(note)
        if phase == "timed" and name == "network.forward" and note == "train":
            train_fwd_ms += ms
    empty = {"ms": 0.0, "self_ms": 0.0, "calls": 0, "notes": []}

    def timed(name):
        return per["timed"].get(name, empty)

    def per_op(value):
        return value / timed_ops

    forwards = timed("network.forward")
    batches = timed("training.batch")["notes"]
    pads = timed("training.pad")["notes"]
    train_s = timed("training.train")["ms"] / 1e3
    values = {
        "lstm.forward_ms": per_op(timed("lstm.forward")["ms"]),
        "lstm.backward_ms": per_op(timed("lstm.backward")["ms"]),
        "lstm.calls": per_op(timed("lstm.forward")["calls"]),
        "lstm.steps": per_op(sum(timed("lstm.forward")["notes"])),
        "kernels.conv_fwd_ms": per_op(timed("kernels.conv_fwd")["ms"]),
        "kernels.conv_bwd_ms": per_op(timed("kernels.conv_bwd")["ms"]),
        "kernels.pool_fwd_ms": per_op(timed("kernels.pool_fwd")["ms"]),
        "kernels.pool_bwd_ms": per_op(timed("kernels.pool_bwd")["ms"]),
        "kernels.softmax_ms": per_op(timed("kernels.softmax")["ms"]),
        "kernels.dropout_ms": per_op(timed("kernels.dropout")["ms"]),
        "network.forward_train_ms": per_op(train_fwd_ms),
        "network.forward_infer_ms": per_op(forwards["ms"] - train_fwd_ms),
        "network.backward_ms": per_op(timed("network.backward")["ms"]),
        "network.forward_calls": per_op(forwards["calls"]),
        "network.backward_calls": per_op(timed("network.backward")["calls"]),
        "network.forward_self_ms": per_op(forwards["self_ms"]),
        "network.backward_self_ms": per_op(timed("network.backward")["self_ms"]),
        "loss.ms": per_op(timed("loss")["ms"]),
        "optim.step_ms": per_op(timed("optim.step")["ms"]),
        "optim.steps": per_op(timed("optim.step")["calls"]),
        "training.train_ms": per_op(timed("training.train")["ms"]),
        "training.tokens_per_s": _ratio(sum(active for _, active in batches), train_s),
        "training.batches": per_op(len(batches)),
        "training.seqs_per_batch": _ratio(sum(seqs for seqs, _ in batches), len(batches)),
        "training.pad_ratio": _ratio(sum(a for a, _ in pads), sum(p for _, p in pads)),
        "training.final_loss": final_loss,
        "evaluation.alpha_tune_ms": per_op(timed("evaluation.alpha_tune")["ms"]),
        "evaluation.counts_ms": per_op(timed("evaluation.counts")["ms"]),
        "model.predict_ms": per_op(timed("model.predict")["ms"]),
        "model.fuse_ms": per_op(timed("model.fuse")["ms"]),
        "features.encode_ms": per_op(timed("features.encode")["ms"]),
        "features.encode_calls": per_op(timed("features.encode")["calls"]),
    }
    for name, span in (("model.save_ms", "model.save"), ("model.load_ms", "model.load"),
                       ("corpus.synth_ms", "corpus.synth")):
        values[name] = per["setup"].get(span, empty)["ms"] / setups
    report = {}
    for metric, (unit, needs) in LAYER_METRICS.items():
        if needs & tracer.missing:
            continue
        report[metric] = {"value": values[metric], "unit": unit}
    return report


def final_loss_of(spans, start):
    """Sum of the last-epoch losses of the train_model spans from `start`."""
    return sum(row[5] for row in spans[start:]
               if row[0] == "training.train" and row[5] is not None)
