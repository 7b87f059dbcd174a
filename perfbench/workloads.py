"""Workloads of the sentbound benchmark: set-up, timed loop and checks.

Each workload drives the library the way a user does, from one process
with one closed-loop client: every call starts when the previous one has
returned. It synthesises two corpora shaped like the acceptance corpus
(``ACCEPT_SPEC`` in ``tests/conftest.py``):

* the model corpus, from a fixed seed. Set-up trains a segmenter on it
  with ``train_segmenter``, saves it to a ``DBND`` container and loads
  it back;
* the workload corpus, from the run's seed. It feeds the k-fold
  ``cross_validated_eval`` calls and the ``predict_probs`` requests.

Texts are cut from one synthetic stream with a fixed number of
sentences each, so the work per run barely depends on the seed.

An untraced run measures both operations. The primary one
(``Workload.primary``) repeats until the run's time is up and gives
``f1``; the other runs a fixed number of times. A traced run only repeats
the primary operation, alternating untraced and traced ones, and takes
its per-layer figures from the traced ones. Set-up runs ``SETUP_REPEATS``
times: once before the timed loop, then spread evenly over it.

Timings are best-of-N. ``setup_s`` is the fastest set-up repeat and a
request's latency the fastest of its repeats over the passes;
``segment_ms_per_1k_tok.p50``/``.p90`` are quantiles of that latency over
the texts. ``cv_wall_s`` cuts each CV call where a model or a training
batch starts, into segments of a few milliseconds, and sums the fastest
run of each segment. Before each operation the process moves to
the usable core that runs a fixed 2 ms probe fastest. On the 2-vCPU host
the benchmark was built on, each vCPU independently runs about 1.6x
slower for stretches of one second to several minutes, so a median over
one run flips between the two speeds; the fastest repetition, on the
faster core, mostly does not. Each operation is therefore repeated over
the whole run, not in one burst. A stretch that covers a whole run still
shows in that run's figures.
"""

import contextlib
import dataclasses
import os
import resource
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from sentbound import SentboundError, corpus, evaluation, model, training
from sentbound.corpus import LABEL_B, LABEL_NB, Corpus, LabeledText, SynthSpec
from sentbound.evaluation import EvalConfig
from sentbound.model import Hyperparams
from sentbound.training import TrainConfig, kfold_split

import spans

# Shape of ACCEPT_SPEC: cue word at 95% of boundaries, 2-sigma pause cue.
TEXT_SHAPE = dict(
    mean_sentence_len=13.0,
    boundary_cue_token="então",
    cue_reliability=0.95,
    prosody_cue_strength=2.0,
    vocab_size=50,
)
MODEL_SEED = 7  # the model corpus and the segmenter do not depend on --seed
VARIANT = "rcnn"  # the paper's main model, in every workload
FOLDS = 5
ALPHA = 0.8  # the segmenter's fusion weight
SETUP_REPEATS = 8
SECONDARY_CV_CALLS = 8  # CV calls in an untraced run of a segment workload
# Request passes after each CV call of an untraced cv workload. Requests on
# short texts take about 2 ms, so jitter on a busy host hits many of them;
# the fastest of about 30 samples per text keeps p90 steady where ten
# did not.
REQUEST_PASSES = 3
MIN_CV_CALLS = 3
PROB_SUM_TOL = 1e-9
PROBE_STEPS = 600
# Where an untraced CV call is cut into segments for cv_wall_s: the names
# as the callers look them up.
CUT_AT = ((evaluation, "train_model"), (training, "batch_loss_and_grads"))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    primary: str  # "cv" or "segment"
    epochs: int
    texts: int  # texts in the workload corpus; requests go to all of them
    sentences: tuple  # sentences per text, cycled over the texts
    cv_texts: int  # CV runs on the first cv_texts texts
    model_texts: int  # texts in the model corpus
    units: int | None = 16  # n_f = n_r; None keeps the Hyperparams defaults
    eta: float = 0.01
    batch_size: int = 8


# Why these two: each layer an optimisation is likely to touch does most
# of the work in one workload and little in the other. The rcnn does the
# conv and max-pool work in both.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's model at acceptance scale (n_f = n_r = 16) on texts of
        # ~26 tokens: LSTM forward and backward dominate and batches are
        # full, so batching the recurrence across a bucket shows here.
        # Batches of 4 and eta = 0.01 let two epochs learn the cues, so F1
        # varies little from seed to seed. Requests go to 100 texts, so
        # that ten latencies lie beyond p90.
        Workload("cv-rcnn-short", "cv", epochs=2, texts=100, sentences=(2,),
                 cv_texts=60, model_texts=20, batch_size=4),
        # Forward-only batch-of-one inference with the default model size
        # (n_f = n_r = 100): no dropout, backward, optimizer or padding.
        Workload("segment-rcnn", "segment", epochs=1, texts=120,
                 sentences=(3, 5, 8, 11, 13), cv_texts=10, model_texts=30,
                 units=None, eta=0.001),
    )
}


def probe_seconds():
    """Time of a fixed loop of small numpy steps, like the LSTM's."""
    w = np.full((64, 16), 0.01)
    x = np.ones(16)
    started = time.perf_counter()
    for _ in range(PROBE_STEPS):
        x = np.tanh(w @ x)[:16]
    return time.perf_counter() - started


class SetupError(RuntimeError):
    """Set-up produced something the workload cannot measure honestly."""


def stream_seed(seed, stream):
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def make_corpus(name, n_texts, sentences, seed):
    """n_texts texts whose sentence counts cycle through `sentences`."""
    counts = [sentences[i % len(sentences)] for i in range(n_texts)]
    need = sum(counts)
    spec = SynthSpec(n_texts=1, mean_sentences_per_text=1.3 * need + 20,
                     seed=seed, name=name, **TEXT_SHAPE)
    stream = corpus.synth_generate(spec).texts[0]
    ends = [i + 1 for i, label in enumerate(stream.labels) if label == LABEL_B]
    if len(ends) < need:
        raise SetupError(f"synthetic stream has {len(ends)} sentences, need {need}")
    texts, start, done = [], 0, 0
    for i, count in enumerate(counts):
        done += count
        end = ends[done - 1]
        texts.append(LabeledText(
            id=f"{name}-{i:03d}",
            tokens=stream.tokens[start:end],
            pos_tags=stream.pos_tags[start:end],
            labels=stream.labels[start:end],
            prosody=stream.prosody[start:end],
        ))
        start = end
    return Corpus(texts, name=name)


def eval_config(wl, seed, alpha=None):
    if wl.units is None:
        hp = {"eta": wl.eta}
    else:
        hp = {"eta": wl.eta, "conv_filters": wl.units, "rec_units": wl.units}
    return EvalConfig(
        train=TrainConfig(epochs=wl.epochs, batch_size=wl.batch_size, seed=seed),
        lexical_hp=Hyperparams.lexical(**hp),
        prosodic_hp=Hyperparams.prosodic(**hp),
        folds=FOLDS,
        alpha=alpha,
    )


def set_up(wl, seed, workdir):
    """Synthesise both corpora, then train, save and reload the segmenter."""
    model_corpus = make_corpus(f"{wl.name}-model", wl.model_texts, wl.sentences,
                               stream_seed(MODEL_SEED, 0))
    data = make_corpus(wl.name, wl.texts, wl.sentences, stream_seed(seed, 1))
    trained = evaluation.train_segmenter(
        model_corpus, VARIANT, "all", eval_config(wl, MODEL_SEED, alpha=ALPHA)
    )
    path = workdir / "segmenter.dbnd"
    model.save_model(trained, path)
    return data, trained, model.load_model(path)


def _marking(fn, marks):
    def marked(*args, **kwargs):
        marks.append(time.perf_counter())
        return fn(*args, **kwargs)

    return marked


def _same_params(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def check_segmenter(trained, loaded, first, texts):
    """Set-up guards: the fused path runs and the container round-trips."""
    if loaded.prosodic is None or not loaded.alpha < 1.0:
        raise SetupError("loaded segmenter would skip the prosodic net and fuse")
    for part in ("lexical", "prosodic"):
        if not _same_params(getattr(trained, part).params, getattr(loaded, part).params):
            raise SetupError(f"{part} parameters changed in the save/load round trip")
        if not _same_params(getattr(first, part).params, getattr(loaded, part).params):
            raise SetupError(f"{part} parameters differ between set-up repeats")
    for text in texts:
        want_labels, want = trained.predict_probs(text)
        got_labels, got = loaded.predict_probs(text)
        if got_labels != want_labels or not np.array_equal(got, want):
            raise SetupError(f"reloaded model predicts {text.id} differently")


def request_ok(text, labels, fused):
    """Probability rows are finite and sum to 1; labels are their argmax."""
    fused = np.asarray(fused)
    if fused.shape != (len(text), 2) or not np.all(np.isfinite(fused)):
        return False
    if np.max(np.abs(fused.sum(axis=1) - 1.0)) > PROB_SUM_TOL:
        return False
    return list(labels) == [LABEL_B if r[1] > r[0] else LABEL_NB for r in fused]


class Run:
    """One run of one workload: its state, counters and measurements."""

    def __init__(self, wl, seed, seconds, trace, out_dir):
        self.wl, self.seed, self.seconds, self.trace = wl, seed, seconds, trace
        self.out_dir = out_dir
        self.tracer = spans.Tracer() if trace else None
        self.attempted = self.failed = 0
        self.cv_walls = {False: [], True: []}  # traced? -> seconds per call
        self.cv_segments = []  # per untraced call, seconds per segment
        self.latencies = {False: {}, True: {}}  # traced? -> text id -> ms per 1k tokens
        self.cv_key = None
        self.secondary_cv_calls = 0
        self.final_loss = None
        self.refs = {}  # text id -> (labels, fused) of its first request
        self.cores = sorted(os.sched_getaffinity(0))

    def pick_core(self):
        """Pin the process to the usable core that runs the probe fastest."""
        timings = []
        for core in self.cores:
            os.sched_setaffinity(0, {core})
            timings.append((min(probe_seconds() for _ in range(3)), core))
        os.sched_setaffinity(0, {min(timings)[1]})

    # ------------------------------------------------------------ set-up

    def set_up(self):
        """The first set-up repeat; the others are spread over the run."""
        wl = self.wl
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.setup_durations = []
        self.data, trained, self.segmenter = self.timed_set_up()
        check_segmenter(trained, self.segmenter, self.segmenter, self.data.texts[:4])
        self.cv_corpus = Corpus(self.data.texts[: wl.cv_texts], name=wl.name)
        self.cv_config = eval_config(wl, self.seed)
        plan = kfold_split(self.cv_corpus, FOLDS, self.seed)
        by_id = {t.id: t for t in self.cv_corpus}
        self.fold_gold = [
            sum(by_id[tid].n_boundaries for tid in plan.test_ids(f)) for f in range(FOLDS)
        ]

    def timed_set_up(self):
        self.pick_core()
        with tempfile.TemporaryDirectory(dir=self.out_dir) as tmp, \
                self.tracing(self.trace, "setup"):
            started = time.perf_counter()
            result = set_up(self.wl, self.seed, Path(tmp))
            self.setup_durations.append(time.perf_counter() - started)
        return result

    def repeat_set_up(self):
        """A later set-up repeat must give the model of the first."""
        _, trained, loaded = self.timed_set_up()
        check_segmenter(trained, loaded, self.segmenter, ())

    # ------------------------------------------------------------ operations

    @contextlib.contextmanager
    def tracing(self, traced, phase="timed"):
        """Spans are recorded, under `phase`, only inside this block."""
        if not traced:
            yield
            return
        self.tracer.phase = phase
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    @contextlib.contextmanager
    def cut_marks(self, marks, on):
        """While `on`, note the time at which each model training and each
        training batch of a CV call starts. Batches take a few ms, so on a
        busy host most have some run that was not slowed; segments of a
        whole fold mostly had none. A name that has gone missing cuts
        nothing."""
        saved = [(mod, name, vars(mod)[name]) for mod, name in CUT_AT
                 if on and name in vars(mod)]
        for mod, name, fn in saved:
            setattr(mod, name, _marking(fn, marks))
        try:
            yield
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def cv_call(self, traced=False):
        self.attempted += 1
        mark = len(self.tracer.spans) if traced else 0
        marks = []
        with self.tracing(traced), self.cut_marks(marks, not traced):
            started = time.perf_counter()
            try:
                report = evaluation.cross_validated_eval(
                    self.cv_corpus, VARIANT, "all", self.cv_config
                )
            except SentboundError:
                self.failed += 1
                return
            finally:
                ended = time.perf_counter()
        self.cv_walls[traced].append(ended - started)
        if not traced:
            cuts = [started, *marks, ended]
            self.cv_segments.append([b - a for a, b in zip(cuts, cuts[1:])])
        ok = self._cv_ok(report)
        if traced:
            loss = spans.final_loss_of(self.tracer.spans, mark)
            if self.final_loss is None:
                self.final_loss = loss
            ok = ok and loss == self.final_loss
        self.failed += not ok

    def _cv_ok(self, report):
        """Every text counted once: per fold, tp + fn is the gold count of
        that fold's test texts. Repeated calls give the same report."""
        folds = sorted(report.per_fold, key=lambda e: e["fold"])
        if [e["tp"] + e["fn"] for e in folds] != self.fold_gold:
            return False
        if report.tp + report.fn != sum(self.fold_gold) or not 0.0 <= report.f1 <= 1.0:
            return False
        key = (report.tp, report.fp, report.fn, report.config.get("alpha"), report.f1)
        if self.cv_key is None:
            self.cv_key = key
        return key == self.cv_key

    def request(self, text, traced=False):
        self.attempted += 1
        started = time.perf_counter()
        try:
            labels, fused = self.segmenter.predict_probs(text)
        except SentboundError:
            self.failed += 1
            return
        finally:
            ms = (time.perf_counter() - started) * 1e3
        self.latencies[traced].setdefault(text.id, []).append(ms * 1000.0 / len(text))
        ok = request_ok(text, labels, fused)
        ref = self.refs.setdefault(text.id, (labels, fused))
        self.failed += not (ok and ref[0] == labels and np.array_equal(ref[1], fused))

    # ------------------------------------------------------------ loops

    def run_due(self, started, deadline, final=False):
        """Run the set-up repeats and, in an untraced segment workload, the
        CV calls that are due. Both are spread evenly from `started` to
        `deadline`, so that they sample the host's speed over the whole
        run; `final` runs all that are left."""

        def due(done, total):
            now = deadline if final else time.perf_counter()
            return done < total and started + done * (deadline - started) / total <= now

        while due(len(self.setup_durations), SETUP_REPEATS):
            self.repeat_set_up()
        secondary = self.wl.primary == "segment" and not self.trace
        while secondary and due(self.secondary_cv_calls, SECONDARY_CV_CALLS):
            self.secondary_cv_calls += 1
            self.pick_core()
            self.cv_call()

    def run_cv_until(self, started, deadline):
        """Rounds of one CV call and, untraced, REQUEST_PASSES passes of
        requests, until the next round would end after the deadline."""
        rounds = []
        while (len(rounds) < MIN_CV_CALLS
               or time.perf_counter() + statistics.median(rounds) <= deadline):
            round_started = time.perf_counter()
            self.pick_core()
            self.cv_call(traced=self.trace and len(rounds) % 2 == 1)
            if not self.trace:
                for _ in range(REQUEST_PASSES):
                    for text in self.data.texts:
                        self.request(text)
            self.run_due(started, deadline)
            rounds.append(time.perf_counter() - round_started)

    def run_requests_until(self, started, deadline):
        """Passes over the workload texts, one request each, until the
        deadline; first one whole untraced and, traced, one whole traced
        pass."""
        min_passes = 2 if self.trace else 1
        passes = 0
        while passes < min_passes or time.perf_counter() < deadline:
            traced = self.trace and passes % 2 == 1
            self.pick_core()
            with self.tracing(traced):
                for text in self.data.texts:
                    self.request(text, traced)
                    if passes >= min_passes and time.perf_counter() >= deadline:
                        break
            passes += 1
            self.run_due(started, deadline)

    def measure(self):
        started = time.perf_counter()
        deadline = started + self.seconds
        if self.wl.primary == "cv":
            self.run_cv_until(started, deadline)
            self.f1 = self.cv_key[4] if self.cv_key else 0.0
        else:
            self.run_requests_until(started, deadline)
            answered = [t for t in self.data.texts if t.id in self.refs]
            self.f1 = evaluation.prf_boundary(
                [label for t in answered for label in t.labels],
                [label for t in answered for label in self.refs[t.id][0]],
            ).f1
        self.run_due(started, deadline, final=True)

    # ------------------------------------------------------------ report

    def best_latencies(self, traced):
        """Per text, the fastest of its requests, in ms per 1k tokens."""
        return [min(v) for v in self.latencies[traced].values()]

    def cv_wall_s(self):
        """One CV call at its best: the sum, over its segments, of each
        segment's fastest run."""
        return sum(min(runs) for runs in zip(*self.cv_segments, strict=True))

    def requests(self, traced):
        return sum(len(v) for v in self.latencies[traced].values())

    def metrics(self):
        if self.trace:
            return self._layer_metrics()
        lat = self.best_latencies(False)
        return {
            "setup_s": {"value": min(self.setup_durations), "unit": "s"},
            "cv_wall_s": {"value": self.cv_wall_s(), "unit": "s"},
            "f1": {"value": self.f1, "unit": "ratio"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
            "segment_ms_per_1k_tok.p50": {"value": statistics.median(lat), "unit": "ms"},
            "segment_ms_per_1k_tok.p90": {
                "value": statistics.quantiles(lat, n=10, method="inclusive")[-1],
                "unit": "ms",
            },
        }

    def traced_ops(self):
        if self.wl.primary == "cv":
            return len(self.cv_walls[True])
        return self.requests(True)

    def _layer_metrics(self):
        report = spans.layer_metrics(
            self.tracer, self.traced_ops(), len(self.setup_durations), self.final_loss or 0.0
        )
        if self.wl.primary == "cv":
            overhead = min(self.cv_walls[True]) / min(self.cv_walls[False])
        else:
            overhead = (statistics.median(self.best_latencies(True))
                        / statistics.median(self.best_latencies(False)))
        report["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        return report

    def info(self):
        return {
            "workload": self.wl.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "primary": self.wl.primary,
            "cv_calls": len(self.cv_walls[False]) + len(self.cv_walls[True]),
            "cv_walls_s": self.cv_walls[False],
            "cv_segments": sorted({len(segments) for segments in self.cv_segments}),
            "requests": self.requests(False) + self.requests(True),
            "request_texts": len(self.latencies[False]),
            "traced_ops": self.traced_ops(),
            "setup_repeats": len(self.setup_durations),
            "tokens": sum(len(t) for t in self.data.texts),
            "cv_tokens": sum(len(t) for t in self.cv_corpus),
            "f1": self.f1,
            "params": dataclasses.asdict(self.wl),
        }


def run(wl, seed, seconds, trace, out_dir):
    """Set up, measure and check one workload. Returns (result, info)."""
    r = Run(wl, seed, seconds, trace, out_dir)
    try:
        r.set_up()
        r.measure()
    finally:
        os.sched_setaffinity(0, r.cores)
    result = {
        "correct": r.failed == 0 and r.attempted > 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": r.metrics(),
    }
    info = r.info()
    if trace:
        path = out_dir / f"{wl.name}.spans.jsonl"
        r.tracer.write(path)
        info["spans"] = str(path)
    return result, info
