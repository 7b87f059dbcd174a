"""Training orchestration: class weights, buckets, folds, and the epoch loop.

Batches are drawn inside length buckets and padded to the batch maximum
with masked rows. The update step stacks each sequence's active prefix
into time-major blocks (NetBatch) and runs one forward and one backward
pass per block; the network keeps padded steps out of every active
result, so padding can never change one. Gradients are averaged over the
active positions of the batch and applied with RMSProp. A batch has one
gradient vector, laid out like the parameter vector: each block's
backward pass adds its gradients into it (the first block's makes it),
and it is dropped once the update has read it. The averaging and the
update each run on the whole vector.
All shuffling, initialisation, and dropout randomness flows from one
generator, so a fixed seed reproduces the loss trace and the final
parameters bit for bit.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .corpus import LABEL_B, LABEL_NB, PROSODY_DIM
from .errors import ContractError, NumericError
from .model import (
    ModelBundle,
    boundary_counts,
    check_same_length,
    check_same_shape,
    fuse,
    prf_from_counts,
)
from .numerics import NetBatch, RmsPropState, SequenceNet, rmsprop_step
from .numerics.network import BLOCK_ROWS, blocks, flat_vector

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
        if self.epochs < 1 or self.batch_size < 1 or self.bucket_width < 1:
            raise ContractError("epochs, batch_size, bucket_width must be positive")
        if self.seed < 0:
            raise ContractError("seed must be >= 0")


# ------------------------------------------------------------ batch updates


def pad_item(inp, target_len):
    """Pad a network input with inactive rows up to target_len.

    Returns (padded_input, mask). Padding rows use id 0 / zero features /
    label 0 and are flagged inactive; the update step never touches them.
    """
    m = len(inp)
    if target_len < m:
        raise ContractError("cannot pad to a shorter length")
    pad = target_len - m

    def pad_ids(a):
        return None if a is None else np.concatenate([a, np.zeros(pad, dtype=a.dtype)])

    def pad_dense(a):
        if a is None:
            return None
        return np.concatenate([a, np.zeros((pad, a.shape[1]))], axis=0)

    padded = type(inp)(
        word_ids=pad_ids(inp.word_ids),
        tag_ids=pad_ids(inp.tag_ids),
        dense=pad_dense(inp.dense),
        label01=pad_ids(inp.label01),
    )
    mask = np.zeros(target_len, dtype=bool)
    mask[:m] = True
    return padded, mask


def active_prefix_length(mask):
    """Length of the live prefix of a padding mask (padding is trailing)."""
    active = np.flatnonzero(mask)
    return 0 if len(active) == 0 else int(active[-1]) + 1


def batch_loss_and_grads(net, params, items, class_weights, mode="train", rng=None):
    """Summed loss and gradients over a batch of (input, mask) pairs.

    Each sequence enters its block up to the end of its mask's live
    prefix, in item order, and trailing padded rows are bit-for-bit
    inert. Every block adds into the batch's one gradient vector, which
    is returned.
    """
    live = [(inp, length) for inp, mask in items
            if (length := active_prefix_length(mask))]
    if not live:
        raise ContractError("batch has no active positions")
    total_loss, total_active, grad = 0.0, 0, None
    for block in blocks(live):
        inputs, lengths = zip(*block)
        loss, grad, n_active = net.loss_and_grads(
            params, NetBatch.stack(inputs, lengths), class_weights,
            mode=mode, rng=rng, into=grad,
        )
        total_loss += loss
        total_active += n_active
    return total_loss, grad, total_active


# ----------------------------------------------------------- bundle factory


def make_lexical_bundle(variant, hp, word_table, tag_table, rng):
    """Initialise a lexical model; table vectors become the starting params,
    and a word table's width is the model's word_dim."""
    if word_table is not None:
        hp = replace(hp, word_dim=word_table.dim)
    rows = [0 if table is None else table.vectors.shape[0] for table in (word_table, tag_table)]
    net = SequenceNet(variant, hp, *rows)
    params = net.init_params(rng)
    word_tokens = tag_tokens = None
    if word_table is not None:
        params["emb_word"][...] = word_table.vectors
        word_tokens = word_table.sorted_tokens()
    if tag_table is not None:
        params["emb_tag"][...] = tag_table.vectors
        tag_tokens = tag_table.sorted_tokens()
    return ModelBundle(net, params, word_tokens, tag_tokens)


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

    AD-group texts are admitted only when training a lexical model.
    Returns (bundle, trace) where trace is the per-epoch mean loss over
    active positions. `log`, when given, receives
    (epoch, mean_loss, elapsed_ms) after every epoch. A non-finite logit
    raises NumericError naming the epoch, the batch and the parameter
    norms; numpy's overflow and invalid-value warnings are silenced in
    the update step, where that error reports a divergence.
    """
    texts = list(train_texts)
    if bundle.prosody_stats is not None:
        texts = [t for t in texts if t.group != "AD"]
    if not texts:
        raise ContractError("no training texts after group filtering")
    class_weights = compute_class_weights(
        [lab for t in texts for lab in t.labels]
    )
    encoded = {t.id: bundle.encoder.encode(t) for t in texts}
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
                        bundle.net, bundle.params, items, class_weights,
                        mode="train", rng=rng,
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
