"""Print one sha256 over fixed-seed outputs of sentbound, which a change
that claims bit-identity must leave as it is.

    python3 scripts/fingerprint.py
    python3 scripts/fingerprint.py --base c2c4b34

Run it from the root of a checkout. The digest covers, on a 16-text
synthetic corpus with prosody (4 folds, n_f = n_r = 4, 2 epochs):

* cross_validated_eval of every variant (rcnn, cnn, rnn, mlp) with the
  feature sets all, embeddings+pos and prosody, at a tuned alpha and at
  alpha = 0.6: tp, fp and fn, the per-fold dicts and the report config,
  each in its key order;
* robustness_eval of rcnn with the same feature sets and alphas, onto a
  second corpus with another cue word: tp, fp, fn and alpha;
* with each of these reports, the table and the machine line that
  evaluation.render_table and evaluation.machine_line print of it;
* a segmenter trained on all from a pretrained-embedding file, whose
  words are mixed-case and not in sorted order: the bytes of its DBND
  container, and the labels and fused probabilities that the loaded
  container gives each text;
* a segmenter of the default size (n_f = n_r = 100, as the benchmark's
  segment-rcnn), trained on all for one epoch on the first 8 texts: the
  bytes of its DBND container, and the labels and fused probabilities
  that the loaded container gives the first 4 texts;
* with each run above, the per-epoch loss trace of every model that it
  trained, in training order, as evaluation.train_model returns it. A
  change in the loss shows here even where the predictions absorb it;
* with each run above too, and after the loaded segmenter's requests,
  the (T, B) shape and the lengths of every block that
  SequenceNet.forward received, in call order. A change in how texts
  are split into blocks shows here even where the results absorb it.

Arrays enter by their bytes and other floats by their repr, so a change
of one bit changes the digest. The sentbound fingerprinted is the first
on PYTHONPATH, else this checkout's src/; the output line names it.

With --base REV the script runs again in a subprocess, with PYTHONPATH
set to the src/ of REV (exported as scripts/bench_pairs.py does), prints
that digest too, and exits 1 when the two differ.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads, as perfbench/run.py does
    sys.path.append(str(ROOT / "src"))  # after PYTHONPATH's entries
sys.path.insert(0, str(Path(__file__).parent))

import numpy as np  # noqa: E402

import bench_pairs  # noqa: E402
import sentbound  # noqa: E402
from sentbound import evaluation, features, model  # noqa: E402
from sentbound.numerics import SequenceNet  # noqa: E402
from sentbound.corpus import Corpus, SynthSpec, synth_generate  # noqa: E402
from sentbound.training import TrainConfig  # noqa: E402

VARIANTS = ("rcnn", "cnn", "rnn", "mlp")
FEATURE_SETS = ("all", "embeddings+pos", "prosody")
ALPHAS = (None, 0.6)
TEXTS = 16
FOLDS = 4
UNITS = 4
EPOCHS = 2
EMBEDDING_DIM = 5
DEFAULT_SIZE_TEXTS = 8  # trained on; requests go to the first 4


def eval_config(alpha, word_table=None):
    hp = dict(conv_filters=UNITS, rec_units=UNITS)
    return evaluation.EvalConfig(
        train=TrainConfig(epochs=EPOCHS, batch_size=4, seed=5),
        lexical_hp=model.Hyperparams.lexical(**hp), prosodic_hp=model.Hyperparams.prosodic(**hp),
        folds=FOLDS, alpha=alpha, word_table=word_table)


def default_size_config():
    """One epoch of the default-size nets (Hyperparams' defaults)."""
    return evaluation.EvalConfig(
        train=TrainConfig(epochs=1, batch_size=4, seed=5), lexical_hp=model.Hyperparams.lexical(),
        prosodic_hp=model.Hyperparams.prosodic())


def corpus(n_texts, cue="então", seed=3):
    return synth_generate(SynthSpec(
        n_texts=n_texts, mean_sentences_per_text=3.0, boundary_cue_token=cue,
        cue_reliability=0.8, prosody_cue_strength=2.0, seed=seed, name=f"fp-{seed}"))


def write_embeddings(path, texts):
    """Vectors for two thirds of the texts' words, in reverse sorted order,
    every other word capitalised; the other words are out of vocabulary."""
    words = sorted({tok for t in texts for tok in t.tokens}, reverse=True)
    words = words[: 2 * len(words) // 3]
    rng = np.random.default_rng(11)
    lines = [f"{len(words)} {EMBEDDING_DIM}"]
    for i, word in enumerate(words):
        values = " ".join(repr(float(v)) for v in rng.standard_normal(EMBEDDING_DIM))
        lines.append(f"{word.capitalize() if i % 2 else word} {values}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def digest(variants=VARIANTS, feature_sets=FEATURE_SETS, alphas=ALPHAS, n_texts=TEXTS):
    """The sha256 hex digest of the outputs the module docstring lists,
    over the given part of the matrix and a corpus of n_texts."""
    sha = hashlib.sha256()

    def feed(value):
        if isinstance(value, np.ndarray):
            sha.update(f"{value.dtype.str}{value.shape}".encode())
            sha.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, bytes):
            sha.update(value)
        else:
            sha.update(json.dumps(value).encode())

    traces = []
    train_model = evaluation.train_model

    def traced(*args, **kwargs):
        bundle, trace = train_model(*args, **kwargs)
        traces.append(trace)
        return bundle, trace

    shapes = []
    forward = SequenceNet.forward

    def recorded(self, params, block, *args, **kwargs):
        part = next(p for p in (block.word_ids, block.tag_ids, block.dense) if p is not None)
        shapes.append((part.shape[:2], np.asarray(block.lengths, dtype=np.intp).tobytes()))
        return forward(self, params, block, *args, **kwargs)

    def feed_traces():
        feed(traces)
        traces.clear()
        for shape, lengths in shapes:
            feed(list(shape))
            feed(lengths)
        shapes.clear()

    def feed_printed(report):
        feed(evaluation.render_table(report))
        feed(evaluation.machine_line(report))

    data = corpus(n_texts)
    evaluation.train_model = traced
    SequenceNet.forward = recorded
    try:
        for variant in variants:
            for feature_set in feature_sets:
                for alpha in alphas:
                    r = evaluation.cross_validated_eval(
                        data, variant, feature_set, eval_config(alpha))
                    feed([r.tp, r.fp, r.fn, [list(f.items()) for f in r.per_fold],
                          list(r.config.items())])
                    feed_printed(r)
                    feed_traces()
        shifted = corpus(n_texts // 2, cue="aí", seed=11)
        for feature_set in feature_sets:
            for alpha in alphas:
                r = evaluation.robustness_eval(
                    data, shifted, eval_config(alpha), "rcnn", feature_set)
                feed([r.tp, r.fp, r.fn, r.config["alpha"]])
                feed_printed(r)
                feed_traces()
        with tempfile.TemporaryDirectory() as tmp:
            vectors, container = Path(tmp) / "vectors.txt", Path(tmp) / "segmenter.dbnd"
            write_embeddings(vectors, data.texts)
            segmenters = (  # (training corpus, config, request texts)
                (data, eval_config(None, features.load_embeddings(vectors)), data.texts),
                (Corpus(data.texts[:DEFAULT_SIZE_TEXTS], data.name), default_size_config(),
                 data.texts[:4]),
            )
            for texts, config, requests in segmenters:
                model.save_model(evaluation.train_segmenter(texts, "rcnn", "all", config),
                                 container)
                feed(container.read_bytes())
                feed_traces()
                segmenter = model.load_model(container)
                for text in requests:
                    labels, fused = segmenter.predict_probs(text)
                    feed(labels)
                    feed(fused)
                feed_traces()
    finally:
        evaluation.train_model = train_model
        SequenceNet.forward = forward
    return sha.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision whose src/ must give the same digest")
    args = parser.parse_args(argv)
    mine = digest()
    print(f"{mine}  {Path(sentbound.__file__).parent}")
    if args.base is None:
        return 0
    sha, tree = bench_pairs.export_base(args.base)
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, __file__], env={**os.environ, "PYTHONPATH": path},
                         check=True, capture_output=True, text=True).stdout
    print(out, end="")
    if out.split()[0] != mine:
        print(f"the digest differs from that of {args.base} ({sha})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
