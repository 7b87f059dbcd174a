"""The sequence-labelling network: RCNN stack and its ablation variants.

One SequenceNet owns the architecture and the parameter layout, and it
is described once: a variant, its Hyperparams (the settings a model
file stores) and its input sizes, the embedding table rows or the dense
width. Everything else about the net, such as its input width and
whether it has a conv or an LSTM, is derived from those. A model's
parameters are one contiguous float64 vector; params is an
ordered dict of named views into it (SequenceNet.views), so the
serializer and the finite-difference tests iterate names while the
optimizer runs on the whole vector (flat_vector). The gradient is a
plain vector in the same layout, and so is the RMSProp accumulator;
views names the gradient's parts where a caller wants them. A training
batch has one gradient vector, and every block fills it the same way:
backward runs the LSTM's backward pass, takes the vector of the batch's
earlier blocks (into) or, for the first block, a zero vector made only
then, and adds each parameter's gradient into its part of it. The
vector follows the dict's key order, except that each LSTM direction
stores its i/f/o/g blocks of wx, of wh and of b next to each other, so
the fused (4n, ...) gate weights that lstm.py reads are views too
(lstm_weights). 1-D parameters are biases; everything else is a weight
matrix.

Variant stacks (every layer keeps the sequence length):

    rcnn  embed? -> conv(relu) -> maxpool -> bilstm -> dropout -> dense+softmax
    cnn   embed? -> conv(relu) -> maxpool ->           dropout -> dense+softmax
    rnn   embed? ->                bilstm ->           dropout -> dense+softmax
    mlp   embed? -> dense(sigmoid) ->                             dense+softmax

Every pass runs on a time-major NetBatch block, and the loss covers
exactly its live rows. Padding never reaches an active result: input
rows past a sequence's end are zeroed before the conv (the zero padding
a lone sequence gets), max-pool sees padded conv rows as -inf and emits
zero there, the backward LSTM direction reads each row's live prefix
reversed, dropout draws one mask for the block's live rows only,
sequence by sequence (live_dropout), and padded rows carry no loss
gradient. An encoded text is a block of one text, which a pass runs on
as it is and never writes to. The reversal is a reversed slice, a view,
for a block with no padding, as every one-text request is, and an index
gather otherwise; both are involutions, so the same reversal puts the
direction's outputs and input gradients back in order. Both LSTM
directions run in one lockstep call, lstm_ops.direction_forward, on the
block and its reversed copy; its cache carries the direction weights, so
backward hands direction_backward that cache alone. It returns every
direction's outputs in one (D, T, B, n) array, and one np.add sums each
net's pair.

A pass is a training pass, one per training block (loss_and_grads),
which draws dropout from rng and returns the cache backward reads, or an
inference pass, which applies no dropout, builds no pool argmax, keeps
no layer inputs or outputs and no LSTM history, and returns no cache. An
inference pass may also carry partners: other nets with LSTMs of the
same width on blocks of the same texts, such as a segmenter's lexical
and prosodic nets. Each net runs its own layers below the LSTM, and the
LSTM directions of all of them advance in one direction_forward call
(D = 2 x nets); a lone net is the one-net case of that pass. The output
layer, dense plus softmax, runs once per pass too, on the nets' stacked
outputs and stacked output weights (output_layer), one GEMM per net; a
training pass is its one-net case. Every pass reads the LSTM and output
weights in one form, a PassWeights (the prepared LSTM weights, which
carry the output projections and direction weight dicts, and the stacked
output layers), and only prepare builds it. forward calls prepare once
per pass when not given one, as on every training block; the caller that
keeps nets together (model.predict_texts and TrainedSegmenter) prepares
once and passes the result to every pass, valid while the params stay as
they are, so a request neither checks the parameter vector (flat_vector)
nor builds views. Only embedding tables read the gradient at the input,
so backward does not scatter it for a dense-input net, and that net's
conv does not compute it.
"""

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from ..errors import ContractError
from . import lstm as lstm_ops
from .kernels import (
    conv1d_backward,
    conv_windows,
    dropout_apply,
    glorot_init,
    maxpool1d_backward,
    maxpool1d_same,
    relu,
    row_matmul,
    row_outer_sum,
    row_sum,
    sigmoid,
    softmax,
)
from .loss import weighted_cross_entropy

VARIANTS = ("rcnn", "mlp", "cnn", "rnn")
N_CLASSES = 2  # column 0 = non-boundary, column 1 = boundary
# Most padded rows (sequences x steps) in one block. A training block
# keeps an LSTM cache per row alive until its backward pass, so the cap
# bounds peak memory: five texts of up to 50 tokens (the default bucket
# width) share a block, and a text longer than the cap is a block alone.
BLOCK_ROWS = 256
LSTM_KEYS = ("wx", "wh", "b", "wy", "by")  # of a direction's weight dict


def check_field_types(settings, what):
    """ContractError unless each field of the dataclass settings (what) holds
    its type: an int field an int, a float field a finite float or an int."""
    for f in fields(settings):
        got = getattr(settings, f.name)
        if isinstance(got, bool) or not isinstance(got, int if f.type is int else (int, float)):
            raise ContractError(f"{what} {f.name} must be of type {f.type.__name__}, got {got!r}")
        if isinstance(got, float) and not math.isfinite(got):
            raise ContractError(f"{what} {f.name} must be finite, got {got!r}")


@dataclass(frozen=True)
class Hyperparams:
    """Architecture and optimizer settings of one sequence model."""

    word_dim: int = 50
    tag_dim: int = 10
    conv_filters: int = 100
    conv_width: int = 7
    pool_width: int = 3
    rec_units: int = 100
    mlp_hidden: int = 100
    gamma: float = 0.9
    eta: float = 0.001
    dropout_rate: float = 0.5

    def __post_init__(self):
        check_field_types(self, "hyperparameter")
        positive = (
            self.word_dim, self.tag_dim, self.conv_filters, self.conv_width,
            self.pool_width, self.rec_units, self.mlp_hidden, self.eta,
        )
        if any(v <= 0 for v in positive):
            raise ContractError("hyperparameters must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise ContractError("gamma must be in (0, 1)")

    @classmethod
    def lexical(cls, **overrides):
        return cls(**overrides)

    @classmethod
    def prosodic(cls, **overrides):
        overrides.setdefault("conv_filters", 8)
        overrides.setdefault("conv_width", 5)
        return cls(**overrides)


@dataclass
class NetBatch:
    """Time-major block of texts padded at the end to a common length.

    word_ids, tag_ids and label01 are (T, B) and dense is (T, B, d); column
    b is live for its first lengths[b] steps. Values on padded steps reach
    no live output and no gradient. An encoded text is a block of one text
    (B = 1, T its length), as the encoders make it.
    """

    lengths: np.ndarray
    word_ids: np.ndarray | None = None
    tag_ids: np.ndarray | None = None
    dense: np.ndarray | None = None
    label01: np.ndarray | None = field(default=None, repr=False)

    def __len__(self):
        """The block's step count T, a one-text block's text length."""
        for part in (self.word_ids, self.tag_ids, self.dense):
            if part is not None:
                return len(part)
        raise ContractError("empty network input")

    @classmethod
    def stack(cls, blocks):
        """One block of one-text blocks (lengths [T]), in order, each
        zero-padded to the longest; a lone block is returned as it is."""
        if any(block.lengths.tolist() != [len(block)] for block in blocks):
            raise ContractError("only one-text blocks stack")
        if len(blocks) == 1:
            return blocks[0]
        lengths = [len(block) for block in blocks]
        parts = []
        for name in ("word_ids", "tag_ids", "dense", "label01"):
            first = getattr(blocks[0], name)
            if first is None:
                parts.append(None)
                continue
            part = np.zeros((max(lengths), len(blocks)) + first.shape[2:], dtype=first.dtype)
            for b, (block, length) in enumerate(zip(blocks, lengths)):
                part[:length, b] = getattr(block, name)[:, 0]
            parts.append(part)
        return cls(np.array(lengths, dtype=np.intp), *parts)


def blocks(lengths):
    """The (start, stop) ranges of consecutive runs of texts of these
    lengths, each padded to its longest in at most BLOCK_ROWS rows; one
    text always fits."""
    start, steps = 0, 0
    for i, length in enumerate(lengths):
        steps = max(steps, length)
        if i > start and steps * (i - start + 1) > BLOCK_ROWS:
            yield start, i
            start, steps = i, length
    yield start, len(lengths)


def live_dropout(h, live, rate, rng):
    """dropout_apply on the live rows of a (T, B, n) block, in one call.

    The rows are gathered sequence by sequence (all live steps of row 0,
    then of row 1, ...), so the draws equal those of one call per
    sequence in row order. Returns (out, mask), both zero on padded
    steps. The dropped rows are scattered and freed before the mask
    block is made, so at most one gathered copy and two blocks coexist.
    """
    by_row = live.T
    dropped, kept = dropout_apply(h.transpose(1, 0, 2)[by_row], rate, rng)
    out = np.zeros_like(h)
    out.transpose(1, 0, 2)[by_row] = dropped
    del dropped
    mask = np.zeros_like(h)
    mask.transpose(1, 0, 2)[by_row] = kept
    return out, mask


def _keeper(cache):
    """cache.update, or a no-op when no cache is kept."""
    return (lambda **_: None) if cache is None else cache.update


def _output_weights(param_dicts):
    """The output layers of k nets' params stacked: (k, n, 2) weights and
    (k, 1, 2) biases; a lone net's are views of its params, as a training
    pass reads them on every block."""
    if len(param_dicts) == 1:
        [params] = param_dicts
        return params["out_w"][None], params["out_b"][None, None]
    return (np.stack([p["out_w"] for p in param_dicts]),
            np.stack([p["out_b"] for p in param_dicts])[:, None])


class PassWeights(NamedTuple):
    """What a pass of k nets reads of their params besides the layers
    below the LSTM, built only by SequenceNet.prepare and valid while the
    params stay as they are: lstm, the lstm_ops.prepare_weights of the
    nets' LSTM directions in net order (None exactly when the net has no
    LSTM, as such a net runs alone), and out_w (k, n, 2) and out_b
    (k, 1, 2), their output layers stacked."""

    lstm: tuple | None
    out_w: np.ndarray
    out_b: np.ndarray

    def first(self, k):
        """The PassWeights of the pass's first k nets, as views of these."""
        lstm = None if self.lstm is None else tuple(part[: 2 * k] for part in self.lstm)
        return PassWeights(lstm, self.out_w[:k], self.out_b[:k])


def output_layer(h, out_w, out_b):
    """The dense softmax layer of k nets at once: (k, T, B, 2) probs of
    their (k, T, B, n) outputs under out_w (k, n, 2) and out_b (k, 1, 2).
    np.matmul runs one GEMM per net, the one a net alone would run."""
    logits = np.matmul(h.reshape(len(h), -1, h.shape[-1]), out_w)
    logits += out_b
    return softmax(logits).reshape(h.shape[:-1] + (N_CLASSES,))


def flat_vector(arrays):
    """The one contiguous float64 vector that every array of a params or
    grads dict views, as SequenceNet.views lays them out."""
    vector = next(iter(arrays.values())).base
    if (vector is None or vector.ndim != 1 or vector.dtype != np.float64
            or sum(a.size for a in arrays.values()) != vector.size
            or any(a.base is not vector for a in arrays.values())):
        raise ContractError("parameter arrays must be views of one float64 vector")
    return vector


class SequenceNet:
    """Architecture plus hand-derived gradients for every parameter.

    A net is a variant with its Hyperparams hp over its inputs: embedding
    tables of word_vocab and tag_vocab rows (OOV row included), or
    dense_dim features. A table's width comes from hp where the table
    exists and is 0 otherwise; every size and the dropout rate are read
    from hp.
    """

    def __init__(self, variant, hp, word_vocab=0, tag_vocab=0, dense_dim=0):
        if variant not in VARIANTS:
            raise ContractError(f"unknown variant {variant!r}")
        self.variant, self.hp = variant, hp
        self.word_vocab, self.tag_vocab, self.dense_dim = word_vocab, tag_vocab, dense_dim
        self.word_dim = hp.word_dim if word_vocab else 0
        self.tag_dim = hp.tag_dim if tag_vocab else 0
        self.input_dim = self.word_dim + self.tag_dim + dense_dim
        if self.input_dim < 1:
            raise ContractError("network needs at least one input feature")
        if dense_dim and (word_vocab or tag_vocab):
            raise ContractError("dense features cannot be mixed with embeddings")
        if not 0.0 <= hp.dropout_rate < 1.0:
            raise ContractError("dropout must be in [0, 1)")
        self.has_conv = variant in ("rcnn", "cnn")
        self.has_lstm = variant in ("rcnn", "rnn")
        self._names = tuple(self.param_shapes())
        self.size, self._where = self._lay_out()

    # ---------------------------------------------------------------- params

    def param_shapes(self):
        hp = self.hp
        shapes = {}
        if self.word_vocab:
            shapes["emb_word"] = (self.word_vocab, self.word_dim)
        if self.tag_vocab:
            shapes["emb_tag"] = (self.tag_vocab, self.tag_dim)
        d = self.input_dim
        if self.has_conv:
            shapes["conv_w"] = (hp.conv_filters, hp.conv_width * d)
            shapes["conv_b"] = (hp.conv_filters,)
        if self.variant == "mlp":
            shapes["mlp_w"] = (d, hp.mlp_hidden)
            shapes["mlp_b"] = (hp.mlp_hidden,)
        if self.has_lstm:
            d_in = hp.conv_filters if self.has_conv else d
            n = hp.rec_units
            for direction in ("fwd", "bwd"):
                for gate in lstm_ops.GATES:
                    shapes[f"{direction}_wx_{gate}"] = (n, d_in)
                    shapes[f"{direction}_wh_{gate}"] = (n, n)
                    shapes[f"{direction}_b_{gate}"] = (n,)
                shapes[f"{direction}_wy"] = (n, n)
                shapes[f"{direction}_by"] = (n,)
        # the output layer reads the top hidden layer: LSTM, conv or mlp
        top = hp.rec_units if self.has_lstm else (
            hp.conv_filters if self.has_conv else hp.mlp_hidden)
        shapes["out_w"] = (top, N_CLASSES)
        shapes["out_b"] = (N_CLASSES,)
        return shapes

    def _lay_out(self):
        """Place the parameters in the vector: storage keeps key order but
        gathers the four blocks of each LSTM gate parameter (fwd_wx_i ..
        fwd_wx_g) where the first one falls. Returns the vector's size and
        the (slice, shape) of each name and of each gate parameter's
        fused blocks (fwd_wx: (4n, d_in))."""
        shapes = self.param_shapes()
        stored = {}
        for name in shapes:
            stem, _, gate = name.rpartition("_")
            stored.setdefault(stem if gate in lstm_ops.GATES else name, []).append(name)
        where, stop = {}, 0
        for stem, names in stored.items():
            first = stop
            for name in names:
                start, stop = stop, stop + math.prod(shapes[name])
                where[name] = (slice(start, stop), shapes[name])
            rows, *rest = shapes[names[0]]
            where[stem] = (slice(first, stop), (len(names) * rows, *rest))
        return stop, where

    def _view(self, vector, name):
        """The view of a params or grads vector that holds name (a
        parameter, or an LSTM gate parameter's fused blocks)."""
        where, shape = self._where[name]
        return vector[where].reshape(shape)

    def views(self, vector):
        """The params dict of a vector of self.size floats: one view per
        name, in key order."""
        return {name: self._view(vector, name) for name in self._names}

    def init_params(self, rng):
        """Glorot-gaussian weights, zero biases, drawn in key order."""
        try:
            vector = np.zeros(self.size)
        except (MemoryError, ValueError) as exc:  # a size numpy cannot allocate
            raise ContractError(f"{self.size} parameters do not fit in memory") from exc
        params = self.views(vector)
        for value in params.values():
            if value.ndim == 2:
                value[...] = glorot_init(*value.shape, rng)
        return params

    # --------------------------------------------------------------- forward

    def _assemble_input(self, params, block):
        """Build the (T, B, d) feature block: the dense block of a
        dense-input network, else the embedding rows of the word and tag
        ids."""
        if self.dense_dim:
            if block.dense is None:
                raise ContractError("network expects dense features")
            x = np.asarray(block.dense, dtype=np.float64)
            if x.ndim != 3 or x.shape[2] != self.dense_dim:
                raise ContractError(
                    f"dense rows have shape {x.shape[2:]}, expected ({self.dense_dim},)"
                )
            return x
        parts = []
        if self.word_vocab:
            if block.word_ids is None:
                raise ContractError("network expects word ids")
            parts.append(params["emb_word"][block.word_ids])
        if self.tag_vocab:
            if block.tag_ids is None:
                raise ContractError("network expects tag ids")
            parts.append(params["emb_tag"][block.tag_ids])
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)

    def lstm_weights(self, vector):
        """The fwd and bwd direction weight dicts as lstm.py reads them, as
        views of a params vector: wx, wh and b each fuse the four adjacent
        gate blocks in GATES order."""
        return tuple({key: self._view(vector, f"{direction}_{key}") for key in LSTM_KEYS}
                     for direction in ("fwd", "bwd"))

    def prepare(self, params, partners=()):
        """The PassWeights of a pass of this net and then its partners,
        (net, params) pairs that run in one pass with it (forward)."""
        pairs = ((self, params), *partners)
        lstm = None
        if self.has_lstm:
            lstm = lstm_ops.prepare_weights(
                [w for net, p in pairs for w in net.lstm_weights(flat_vector(p))])
        return PassWeights(lstm, *_output_weights([p for _, p in pairs]))

    def forward(self, params, block, mode="inference", rng=None, prepared=None,
                partners=()):
        """Run the stack on a NetBatch block. Returns (probs, cache).

        probs are (T, B, 2), row-stochastic, and finite but meaningless on
        padded steps. A training pass (mode "train") draws dropout from
        rng, one (sum of lengths, units) mask over the live rows, sequence
        by sequence in row order, which equals one (length, units) draw
        per sequence (live_dropout), and returns the cache backward reads.
        An inference pass is deterministic and returns None for the cache:
        it keeps nothing that only backward reads (no pool argmax, layer
        inputs or outputs, or LSTM history).
        prepared, the PassWeights the pass reads, is prepare(params, the
        partners' (net, params) pairs), which the pass calls when it is
        not given; a caller whose params stay the same builds it once.

        partners, (net, params, block) triples, run in this inference
        pass: nets with LSTMs of this net's width, on blocks of this
        block's shape and lengths (the same texts, as each net encodes
        them). Every net's layers run as in a pass of its own, except
        that all their LSTM directions advance in one loop; probs is then
        the list of each net's probs, this net's first.
        """
        if mode not in ("train", "inference"):
            raise ContractError(f"unknown mode {mode!r}")
        train = mode == "train"
        nets = ((self, params, block), *partners)
        if partners and (train or any(
                not net.has_lstm or net.hp.rec_units != self.hp.rec_units
                for net, _, _ in nets)):
            raise ContractError("only inference passes of LSTMs of one width run together")
        xs = [net._assemble_input(p, b) for net, p, b in nets]
        lengths = block.lengths
        steps = xs[0].shape[0]
        if steps < 1 or lengths.min() < 1 or lengths.max() > steps:
            raise ContractError("empty sequence or length outside the block")
        if partners and any(x.shape[:2] != xs[0].shape[:2]
                            or not np.array_equal(b.lengths, lengths)
                            for x, (_, _, b) in zip(xs, nets)):
            raise ContractError("nets that run together need blocks of one shape")
        live = np.arange(steps)[:, None] < lengths
        pad = None if live.all() else ~live
        cache = {} if train else None
        keep = _keeper(cache)
        keep(inp=block, pad=pad)
        hs = [net._input_layers(p, x, pad, cache) for (net, p, _), x in zip(nets, xs)]
        del xs
        if prepared is None:
            prepared = self.prepare(params, [(net, p) for net, p, _ in partners])
        if self.has_lstm:
            # An involution on the (T, B) axes: each row's live prefix
            # reversed, padding kept.
            if pad is None:
                rev = (slice(None, None, -1),)
            else:
                t = np.arange(steps)[:, None]
                rev = (np.where(live, lengths - 1 - t, t), np.arange(len(lengths)))
            ys, lstm_cache = lstm_ops.direction_forward(
                *(x for h in hs for x in (h, h[rev])),
                prepared=prepared.lstm, keep_cache=train,
            )
            keep(lstm=lstm_cache, rev=rev)
            h = np.add(ys[::2], ys[1::2][(slice(None), *rev)])
            del ys
        else:
            h = hs[0][None]  # a net without an LSTM runs alone
        del hs
        if self.variant != "mlp" and train:
            dropped, mask = live_dropout(h[0], live, self.hp.dropout_rate, rng)
            h = dropped[None]
            keep(dropout_mask=mask)
        keep(out_in=h[0])
        probs = output_layer(h, prepared.out_w, prepared.out_b)
        return (list(probs) if partners else probs[0]), cache

    def _input_layers(self, params, x, pad, cache):
        """The layers below the LSTM (conv and max-pool, or the mlp's
        hidden layer) on the (T, B, d) input; the identity for an rnn.
        What backward reads goes into cache unless it is None."""
        keep = _keeper(cache)
        if pad is not None:
            x = np.where(pad[..., None], 0.0, x)
        h = x
        if self.has_conv:
            pre = row_matmul(conv_windows(h, self.hp.conv_width), params["conv_w"].T)
            conv_out = relu(pre + params["conv_b"])
            if pad is not None:
                conv_out[pad] = -np.inf
            pooled = maxpool1d_same(conv_out, self.hp.pool_width, return_argmax=cache is not None)
            if cache is not None:
                pooled, argrow = pooled
                keep(conv_in=h, conv_out=conv_out, pool_argrow=argrow)
            if pad is not None:
                pooled[pad] = 0.0
            h = pooled
        if self.variant == "mlp":
            pre = row_matmul(h, params["mlp_w"]) + params["mlp_b"]
            hidden = sigmoid(pre)
            keep(mlp_in=h, mlp_out=hidden)
            h = hidden
        return h

    # -------------------------------------------------------------- backward

    def backward(self, params, cache, d_logits, into=None):
        """Exact gradients of the summed loss for every parameter, as one
        vector laid out like the params (views names its parts).

        Requires the cache of a prior training pass (forward) on the same
        block and consumes its LSTM part; d_logits is the loss gradient at
        the pre-softmax logits, shaped like the probs and zero on the
        block's padded steps (as loss_and_grads makes it). The gradients
        are added into into, the vector of an earlier pass, which is
        returned, or into a new zero vector. Only embedding tables read
        the gradient at the input, so the conv of a dense-input net does
        not compute it.
        """
        if cache is None:
            raise ContractError("backward needs the cache of a training pass")
        pad = cache["pad"]
        input_grad = not self.dense_dim
        dh = row_matmul(d_logits, params["out_w"].T)
        if "dropout_mask" in cache:
            dh = dh * cache["dropout_mask"]
        lstm_grads = ()
        if self.has_lstm:
            rev = cache["rev"]
            lstm_grads, (dx_f, dx_b) = lstm_ops.direction_backward(
                dh, dh[rev], cache.pop("lstm"))
            dh = dx_f + dx_b[rev]
        # A new vector is made only now, once the LSTM's backward state is
        # freed: beside that state it would raise the pass's peak memory.
        vector = np.zeros(self.size) if into is None else into

        def add(name, value):
            view = self._view(vector, name)
            view += value

        add("out_w", row_outer_sum(cache["out_in"], d_logits))
        add("out_b", row_sum(d_logits))
        for direction, g in zip(("fwd", "bwd"), lstm_grads):
            for key, value in g.items():
                add(f"{direction}_{key}", value)
        del lstm_grads
        if self.variant == "mlp":
            hidden = cache["mlp_out"]  # the sigmoid's derivative, through its output
            d_pre = dh * (hidden * (1.0 - hidden))
            add("mlp_w", row_outer_sum(cache["mlp_in"], d_pre))
            add("mlp_b", row_sum(d_pre))
            dh = row_matmul(d_pre, params["mlp_w"].T)
        if self.has_conv:
            d_conv = maxpool1d_backward(dh, cache["pool_argrow"])
            # the relu's derivative, through its output
            d_pre = d_conv * (cache["conv_out"] > 0.0).astype(np.float64)
            d_w, d_b, dh = conv1d_backward(
                d_pre, cache["conv_in"], params["conv_w"], input_grad=input_grad
            )
            add("conv_w", d_w)
            add("conv_b", d_b)
        if input_grad:
            if pad is not None:
                dh[pad] = 0.0  # the zeroed padding rows are constants
            self._scatter_input_grads(cache["inp"], dh, vector)
        return vector

    def _scatter_input_grads(self, block, d_x, vector):
        """Add d_x into the rows of each embedding table's gradient, in the
        gradient vector, that the block's ids picked. Each picked row's
        sum is formed first, by np.bincount in block order, and then
        added to the table, so a row reads acc + block."""
        col = 0
        for name, ids, dim in (("emb_word", block.word_ids, self.word_dim),
                               ("emb_tag", block.tag_ids, self.tag_dim)):
            if name in self._where:
                rows, where = np.unique(ids, return_inverse=True)
                target = where.reshape(-1, 1) * dim + np.arange(dim)
                sums = np.bincount(target.reshape(-1),
                                   weights=d_x[..., col : col + dim].reshape(-1),
                                   minlength=len(rows) * dim)
                self._view(vector, name)[rows] += sums.reshape(len(rows), dim)
                col += dim

    # ------------------------------------------------------------------ loss

    def loss_and_grads(self, params, block, class_weights, rng=None, into=None):
        """A training pass, weighted cross-entropy and backward, in one call.

        Dropout draws from rng, as in forward. The labels are the block's
        label01 (1 = boundary), and the loss covers exactly its live rows.
        Returns the summed loss, the gradient vector and the live-row
        count; with into, an earlier call's gradient vector, the
        gradients are added into it (backward) and it is returned.
        """
        probs, cache = self.forward(params, block, mode="train", rng=rng)
        pad = cache["pad"]
        active = np.ones(probs.shape[:-1], dtype=bool) if pad is None else ~pad
        loss, d_logits = weighted_cross_entropy(
            block.label01.reshape(-1), probs.reshape(-1, N_CLASSES), class_weights,
            active.reshape(-1),
        )
        grad = self.backward(params, cache, d_logits.reshape(probs.shape), into=into)
        return loss, grad, int(active.sum())
