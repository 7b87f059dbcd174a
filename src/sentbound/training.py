"""Training orchestration: class weights, buckets, folds, and the epoch loop.

Batches are drawn inside length buckets. A batch is a list of encoded
texts, each a one-text NetBatch, and the update step stacks them into
time-major blocks (NetBatch.stack), the one place a batch is padded, and
runs one forward and one backward pass per block; the network keeps
padded steps out of every live result, so padding can never change one.
Gradients are averaged over the live positions of the batch and applied
with RMSProp. A batch has one gradient vector, laid out like the
parameter vector: each block's backward pass adds its gradients into it
(the first block's makes it), and it is dropped once the update has read
it. The averaging and the update each run on the whole vector.
All shuffling, initialisation, and dropout randomness flows from one
generator, so a fixed seed reproduces the loss trace and the final
parameters bit for bit.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .corpus import LABEL_B, LABEL_NB, PROSODY_DIM
from .errors import ContractError, NumericError, check_field_types
from .features import encode_labels
from .model import (
    ModelBundle,
    boundary_counts,
    check_same_length,
    check_same_shape,
    fuse,
    prf_from_counts,
)
from .numerics import NetBatch, RmsPropState, SequenceNet, rmsprop_step
from .numerics.network import blocks, flat_vector

RMSPROP_EPSILON = 1e-8
ALPHA_GRID = tuple(round(i / 10, 1) for i in range(11))


def compute_class_weights(labels):
    """Inverse-frequency class weights: cw = |y| / (2 |y = class|).

    Returns an array indexed like the probability columns:
    [cw_NB, cw_B]. Both classes must be present.
    """
    n_b = sum(1 for lab in labels if lab == LABEL_B)
    n_nb = sum(1 for lab in labels if lab == LABEL_NB)
    if n_b + n_nb != len(labels):
        raise ContractError("labels must be B or NB")
    if n_b == 0 or n_nb == 0:
        raise ContractError(
            f"degenerate training set: {n_b} boundary and {n_nb} non-boundary labels"
        )
    total = n_b + n_nb
    return np.array([total / (2.0 * n_nb), total / (2.0 * n_b)])


# ---------------------------------------------------------------- bucketing


def make_buckets(texts, bucket_width):
    """Group text ids into token-length ranges of the given width.

    Bucket k holds the ids of lengths in [k*width + 1, (k+1)*width], in
    text order; empty ranges are dropped. Each text lands in exactly one
    bucket.
    """
    if not texts:
        raise ContractError("no texts to bucket")
    if bucket_width < 1:
        raise ContractError("bucket width must be >= 1")
    groups = {}
    for text in texts:
        groups.setdefault((len(text) - 1) // bucket_width, []).append(text.id)
    return [groups[key] for key in sorted(groups)]


# -------------------------------------------------------------------- folds


@dataclass
class FoldPlan:
    k: int
    assignments: dict  # text id -> fold index

    def test_ids(self, fold):
        return [tid for tid, f in self.assignments.items() if f == fold]

    def train_ids(self, fold):
        return [tid for tid, f in self.assignments.items() if f != fold]


def kfold_split(corpus, k, seed):
    """Shuffled round-robin fold assignment; fold sizes differ by <= 1."""
    ids = sorted(t.id for t in corpus)
    if len(ids) < k:
        raise ContractError(f"cannot make {k} folds from {len(ids)} texts")
    if k < 2:
        raise ContractError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    assignments = {tid: i % k for i, tid in enumerate(order)}
    return FoldPlan(k=k, assignments=assignments)


# ------------------------------------------------------------------- config


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 8
    bucket_width: int = 50
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, "training setting")
        if self.epochs < 1 or self.batch_size < 1 or self.bucket_width < 1:
            raise ContractError("epochs, batch_size, bucket_width must be positive")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")


# ------------------------------------------------------------ batch updates


def pad_item(inp, target_len):
    """The batch item of an encoded text in a batch of target_len steps:
    the text itself. NetBatch.stack pads each block, so nothing is copied
    here; the call marks the batch's length."""
    if target_len < len(inp):
        raise ContractError("cannot pad to a shorter length")
    return inp


def batch_loss_and_grads(net, params, items, class_weights, rng):
    """Summed training loss and gradients over a batch of encoded texts,
    one-text NetBatch items with their labels, with dropout drawn from rng.

    The items enter blocks in order (blocks of their lengths), and
    every block adds into the batch's one gradient vector, which is
    returned with the loss and the live-position count.
    """
    if not items:
        raise ContractError("batch has no items")
    total_loss, total_active, grad = 0.0, 0, None
    for start, stop in blocks([len(item) for item in items]):
        loss, grad, n_active = net.loss_and_grads(
            params, NetBatch.stack(items[start:stop]), class_weights, rng=rng, into=grad,
        )
        total_loss += loss
        total_active += n_active
    return total_loss, grad, total_active


# ----------------------------------------------------------- bundle factory


def make_lexical_bundle(variant, hp, word_table, tag_table, rng):
    """Initialise a lexical model; table vectors become the starting params
    and table tokens its vocabularies, and a word table's width is the
    model's word_dim."""
    if word_table is not None:
        hp = replace(hp, word_dim=word_table.dim)
    tables = (word_table, tag_table)
    net = SequenceNet(variant, hp, *(0 if t is None else t.vectors.shape[0] for t in tables))
    params = net.init_params(rng)
    for name, table in zip(("emb_word", "emb_tag"), tables):
        if table is not None:
            params[name][...] = table.vectors
    return ModelBundle(net, params, *(None if t is None else t.tokens for t in tables))


def make_prosodic_bundle(variant, hp, stats, rng):
    """Initialise a prosodic model over inputs z-scored with stats."""
    net = SequenceNet(variant, hp, dense_dim=PROSODY_DIM)
    return ModelBundle(net, net.init_params(rng), prosody_stats=stats)


# ----------------------------------------------------------------- training


def _param_norms(params):
    """Max-abs (infinity) norm of each parameter group: finite while the
    entries are, where the 2-norm squares them and overflows past 1e154."""
    return {name: float(np.abs(v).max()) for name, v in params.items()}


def train_model(bundle, train_texts, config, rng, log=None):
    """Run the bucketed epoch loop on an initialised bundle.

    Returns (bundle, trace) where trace is the per-epoch mean loss over
    active positions. `log`, when given, receives
    (epoch, mean_loss, elapsed_ms) after every epoch. A non-finite logit
    raises NumericError naming the epoch, the batch and the parameter
    norms; numpy's overflow and invalid-value warnings are silenced in
    the update step, where that error reports a divergence.
    """
    texts = list(train_texts)
    if not texts:
        raise ContractError("no training texts")
    class_weights = compute_class_weights(
        [lab for t in texts for lab in t.labels]
    )
    encoded = {t.id: replace(bundle.encoder.encode(t), label01=encode_labels(t.labels)[:, None])
               for t in texts}
    buckets = make_buckets(texts, config.bucket_width)
    theta = flat_vector(bundle.params)
    hp = bundle.net.hp
    state = RmsPropState(theta, gamma=hp.gamma, eta=hp.eta, epsilon=RMSPROP_EPSILON)
    trace = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        batches = []
        for ids in buckets:
            order = [ids[i] for i in rng.permutation(len(ids))]
            for i in range(0, len(order), config.batch_size):
                batches.append(order[i : i + config.batch_size])
        batch_order = rng.permutation(len(batches))
        epoch_loss = 0.0
        epoch_active = 0
        for step, b in enumerate(batch_order):
            chunk = [encoded[tid] for tid in batches[b]]
            target = max(len(item) for item in chunk)
            items = [pad_item(item, target) for item in chunk]
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    loss, grad, n_active = batch_loss_and_grads(
                        bundle.net, bundle.params, items, class_weights, rng=rng
                    )
                except NumericError as exc:
                    raise NumericError(
                        f"{exc} at epoch {epoch} batch {step}; "
                        f"parameter norms: {_param_norms(bundle.params)}"
                    ) from exc
                grad *= 1.0 / n_active
                rmsprop_step(theta, grad, state)
                del grad  # not alive while the next batch's one is made
            epoch_loss += loss
            epoch_active += n_active
        mean_loss = epoch_loss / epoch_active
        trace.append(mean_loss)
        if log is not None:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            log(epoch, mean_loss, elapsed_ms)
    return bundle, trace


# --------------------------------------------------------------- alpha grid


def tune_alpha_from_probs(lex_probs, pros_probs, gold_labels):
    """ALPHA_GRID value maximising boundary F1; exact ties go to the larger
    alpha, so no texts give 1.0.

    Each text is checked as fuse and boundary_counts check it; the texts
    are then joined into one block of rows, which fuse labels and
    boundary_counts scores at every grid alpha.
    """
    for p_lex, p_pros, labels in zip(lex_probs, pros_probs, gold_labels):
        check_same_shape(p_lex, p_pros)
        check_same_length(labels, p_lex)
    if not len(gold_labels):
        return ALPHA_GRID[-1]
    p_lex, p_pros = np.concatenate(lex_probs), np.concatenate(pros_probs)
    gold = [label for labels in gold_labels for label in labels]
    best_alpha, best_f1 = None, -1.0
    for alpha in ALPHA_GRID:
        pred, _ = fuse(p_lex, p_pros, alpha)
        f1 = prf_from_counts(*boundary_counts(gold, pred))[2]
        if f1 >= best_f1:
            best_alpha, best_f1 = alpha, f1
    return best_alpha
