"""The sequence-labelling network: RCNN stack and its ablation variants.

One SequenceNet owns the architecture and the parameter layout. A
model's parameters are one contiguous float64 vector; params is an
ordered dict of named views into it (SequenceNet.views), so the
serializer and the finite-difference tests iterate names while the
optimizer, the gradient scaling and the block sums run on the whole
vector (flat_vector). The gradients backward returns and the RMSProp
accumulator share the layout. The vector follows the dict's key order,
except that each LSTM direction stores its i/f/o/g blocks of wx, of wh
and of b next to each other, so the fused (4n, ...) gate weights that
lstm.py reads are views too (lstm_weights). 1-D parameters are biases;
everything else is a weight matrix.

Variant stacks (every layer keeps the sequence length):

    rcnn  embed? -> conv(relu) -> maxpool -> bilstm -> dropout -> dense+softmax
    cnn   embed? -> conv(relu) -> maxpool ->           dropout -> dense+softmax
    rnn   embed? ->                bilstm ->           dropout -> dense+softmax
    mlp   embed? -> dense(sigmoid) ->                             dense+softmax

Every pass runs on a time-major NetBatch block; one NetInput is a block
of one. Padding never reaches an active result: input rows past a
sequence's end are zeroed before the conv (the zero padding a lone
sequence gets), max-pool sees padded conv rows as -inf and emits zero
there, the backward LSTM direction reads each row's live prefix
reversed by an index gather (an involution, so the same gather puts its
outputs and input gradients back in order), dropout masks are drawn per
sequence over its live rows, and padded rows carry no loss gradient.
Both LSTM directions run in one lockstep call, lstm_ops.direction_forward
and direction_backward, on the block and its reversed copy.

forward keeps what backward reads only when its caller asks for it, as
loss_and_grads does whatever the mode; any other pass builds no pool
argmax, keeps no layer inputs or outputs and no LSTM history, and
returns no cache. It can also take the LSTM weights already prepared
(prepare_lstm), which stay valid while the params do.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError
from . import lstm as lstm_ops
from .kernels import (
    activation_fn,
    activation_grad,
    conv1d_backward,
    conv_windows,
    dropout_apply,
    glorot_init,
    maxpool1d_backward,
    maxpool1d_same,
    row_matmul,
    row_outer_sum,
    row_sum,
    softmax,
)
from .loss import weighted_cross_entropy

VARIANTS = ("rcnn", "mlp", "cnn", "rnn")
N_CLASSES = 2  # column 0 = non-boundary, column 1 = boundary
CONV_ACTIVATION = "relu"
# Most padded rows (sequences x steps) in one block. A training block
# keeps an LSTM cache per row alive until its backward pass, so the cap
# bounds peak memory: five texts of up to 50 tokens (the default bucket
# width) share a block, and a text longer than the cap is a block alone.
BLOCK_ROWS = 256
LSTM_KEYS = ("wx", "wh", "b", "wy", "by")  # of a direction's weight dict


@dataclass(frozen=True)
class NetConfig:
    variant: str = "rcnn"
    conv_filters: int = 100
    conv_width: int = 7
    pool_width: int = 3
    rec_units: int = 100
    hidden_units: int = 100
    dropout: float = 0.5
    word_vocab: int = 0
    word_dim: int = 0
    tag_vocab: int = 0
    tag_dim: int = 0
    dense_dim: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"unknown variant {self.variant!r}")
        if self.input_dim < 1:
            raise ContractError("network needs at least one input feature")
        if self.dense_dim and (self.word_vocab or self.tag_vocab):
            raise ContractError("dense features cannot be mixed with embeddings")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError("dropout must be in [0, 1)")

    @property
    def input_dim(self):
        return self.word_dim + self.tag_dim + self.dense_dim

    @property
    def output_input_dim(self):
        if self.variant in ("rcnn", "rnn"):
            return self.rec_units
        if self.variant == "cnn":
            return self.conv_filters
        return self.hidden_units


@dataclass
class NetInput:
    """Per-sequence network input: embedding ids and/or a dense matrix."""

    word_ids: np.ndarray | None = None
    tag_ids: np.ndarray | None = None
    dense: np.ndarray | None = None
    label01: np.ndarray | None = field(default=None, repr=False)

    def __len__(self):
        for part in (self.word_ids, self.tag_ids, self.dense):
            if part is not None:
                return len(part)
        raise ContractError("empty network input")


def time_major(rows, lengths):
    """Zero-padded (T, B, ...) block holding rows[b][:lengths[b]] at [:, b];
    None when the rows are None."""
    if rows[0] is None:
        return None
    first = np.asarray(rows[0])
    block = np.zeros((max(lengths), len(rows)) + first.shape[1:], dtype=first.dtype)
    for b, (row, length) in enumerate(zip(rows, lengths)):
        block[:length, b] = row[:length]
    return block


@dataclass
class NetBatch:
    """Time-major block of sequences padded at the end to a common length.

    word_ids, tag_ids and label01 are (T, B) and dense is (T, B, d); row b
    is live for its first lengths[b] steps. Values on padded steps reach
    no live output and no gradient.
    """

    lengths: np.ndarray
    word_ids: np.ndarray | None = None
    tag_ids: np.ndarray | None = None
    dense: np.ndarray | None = None
    label01: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def stack(cls, inputs, lengths):
        """Block of the first lengths[b] rows of each NetInput."""
        parts = (
            time_major([getattr(inp, name) for inp in inputs], lengths)
            for name in ("word_ids", "tag_ids", "dense", "label01")
        )
        return cls(np.asarray(lengths, dtype=np.intp), *parts)


def blocks(items):
    """Consecutive runs of items, each padded to its longest length in at
    most BLOCK_ROWS rows; an item's last element is its length, and one
    item always fits."""
    block, steps = [], 0
    for item in items:
        steps = max(steps, item[-1])
        if block and steps * (len(block) + 1) > BLOCK_ROWS:
            yield block
            block, steps = [], item[-1]
        block.append(item)
    yield block


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
    """Architecture plus hand-derived gradients for every parameter."""

    def __init__(self, cfg: NetConfig):
        self.cfg = cfg
        self._names = tuple(self.param_shapes())
        self.size, self._where = self._lay_out()

    # ---------------------------------------------------------------- params

    def param_shapes(self):
        cfg = self.cfg
        shapes = {}
        if cfg.word_vocab:
            shapes["emb_word"] = (cfg.word_vocab, cfg.word_dim)
        if cfg.tag_vocab:
            shapes["emb_tag"] = (cfg.tag_vocab, cfg.tag_dim)
        d = cfg.input_dim
        if cfg.variant in ("rcnn", "cnn"):
            shapes["conv_w"] = (cfg.conv_filters, cfg.conv_width * d)
            shapes["conv_b"] = (cfg.conv_filters,)
        if cfg.variant == "mlp":
            shapes["mlp_w"] = (d, cfg.hidden_units)
            shapes["mlp_b"] = (cfg.hidden_units,)
        if cfg.variant in ("rcnn", "rnn"):
            d_in = cfg.conv_filters if cfg.variant == "rcnn" else d
            n = cfg.rec_units
            for direction in ("fwd", "bwd"):
                for gate in lstm_ops.GATES:
                    shapes[f"{direction}_wx_{gate}"] = (n, d_in)
                    shapes[f"{direction}_wh_{gate}"] = (n, n)
                    shapes[f"{direction}_b_{gate}"] = (n,)
                shapes[f"{direction}_wy"] = (n, n)
                shapes[f"{direction}_by"] = (n,)
        shapes["out_w"] = (cfg.output_input_dim, N_CLASSES)
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
        params = self.views(np.zeros(self.size))
        for value in params.values():
            if value.ndim == 2:
                value[...] = glorot_init(*value.shape, rng)
        return params

    # --------------------------------------------------------------- forward

    def _assemble_input(self, params, block):
        """Build the (T, B, d) feature block: the dense block of a
        dense-input network, else the embedding rows of the word and tag
        ids."""
        cfg = self.cfg
        if cfg.dense_dim:
            if block.dense is None:
                raise ContractError("network expects dense features")
            x = np.asarray(block.dense, dtype=np.float64)
            if x.ndim != 3 or x.shape[2] != cfg.dense_dim:
                raise ContractError(
                    f"dense rows have shape {x.shape[2:]}, expected ({cfg.dense_dim},)"
                )
            return x
        parts = []
        if cfg.word_vocab:
            if block.word_ids is None:
                raise ContractError("network expects word ids")
            parts.append(params["emb_word"][block.word_ids])
        if cfg.tag_vocab:
            if block.tag_ids is None:
                raise ContractError("network expects tag ids")
            parts.append(params["emb_tag"][block.tag_ids])
        if not parts:
            raise ContractError("network input carries no usable features")
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)

    def lstm_weights(self, vector):
        """The fwd and bwd direction weight dicts as lstm.py reads them, as
        views of a params vector: wx, wh and b each fuse the four adjacent
        gate blocks in GATES order."""
        return tuple({key: self._view(vector, f"{direction}_{key}") for key in LSTM_KEYS}
                     for direction in ("fwd", "bwd"))

    def prepare_lstm(self, params):
        """lstm_ops.prepare_weights of both directions; None without an LSTM."""
        if self.cfg.variant not in ("rcnn", "rnn"):
            return None
        return lstm_ops.prepare_weights(self.lstm_weights(flat_vector(params)))

    def forward(self, params, inp, mode="inference", rng=None, keep_cache=False,
                lstm_prep=None):
        """Run the stack on one sequence or on a block. Returns (probs, cache).

        A NetInput gives (m, 2) probs; a NetBatch gives (T, B, 2) probs,
        finite but meaningless on padded steps. Rows are row-stochastic.
        In train mode dropout consumes draws from rng, one (length, units)
        mask per sequence in row order; inference is deterministic and
        skips dropout, which is the identity there. The cache feeds
        backward() and is built only when keep_cache is set; otherwise it
        is None and the pass holds nothing that only backward reads: no
        pool argmax, no layer inputs or outputs, no LSTM history.
        lstm_prep, prepare_lstm(params) built once, saves preparing the
        LSTM weights on every pass; it must come from these params.
        """
        if mode not in ("train", "inference"):
            raise ContractError(f"unknown mode {mode!r}")
        cfg = self.cfg
        single = not isinstance(inp, NetBatch)
        block = NetBatch.stack([inp], [len(inp)]) if single else inp
        x = self._assemble_input(params, block)
        lengths = block.lengths
        if x.shape[0] < 1 or lengths.min() < 1 or lengths.max() > x.shape[0]:
            raise ContractError("empty sequence or length outside the block")
        live = np.arange(x.shape[0])[:, None] < lengths
        pad = None if live.all() else ~live
        if pad is not None:
            x = np.where(pad[..., None], 0.0, x)
        cache = {} if keep_cache else None
        keep = cache.update if keep_cache else lambda **_: None
        keep(single=single, inp=block, pad=pad)
        h = x
        if cfg.variant in ("rcnn", "cnn"):
            pre = row_matmul(conv_windows(h, cfg.conv_width), params["conv_w"].T)
            conv_out = activation_fn(CONV_ACTIVATION)(pre + params["conv_b"])
            if pad is not None:
                conv_out[pad] = -np.inf
            pooled = maxpool1d_same(conv_out, cfg.pool_width, return_argmax=keep_cache)
            if keep_cache:
                pooled, argrow = pooled
                keep(conv_in=h, conv_out=conv_out, pool_argrow=argrow)
            if pad is not None:
                pooled[pad] = 0.0
            h = pooled
        if cfg.variant == "mlp":
            pre = row_matmul(h, params["mlp_w"]) + params["mlp_b"]
            hidden = activation_fn("sigmoid")(pre)
            keep(mlp_in=h, mlp_out=hidden)
            h = hidden
        if cfg.variant in ("rcnn", "rnn"):
            steps = np.arange(h.shape[0])[:, None]
            # An involution: each row's live prefix reversed, padding kept.
            rev = (np.where(live, lengths - 1 - steps, steps), np.arange(len(lengths)))
            weights = self.lstm_weights(flat_vector(params))
            (y_f, y_b), lstm_cache = lstm_ops.direction_forward(
                h, h[rev], weights, lstm_prep, keep_cache
            )
            keep(lstm=lstm_cache, lstm_weights=weights, rev=rev)
            h = y_f + y_b[rev]
        if cfg.variant != "mlp" and mode == "train":
            dropped = np.zeros_like(h)
            mask = np.zeros_like(h)
            for b, length in enumerate(lengths):
                dropped[:length, b], mask[:length, b] = dropout_apply(
                    h[:length, b], cfg.dropout, mode, rng, return_mask=True
                )
            keep(dropout_mask=mask)
            h = dropped
        logits = row_matmul(h, params["out_w"]) + params["out_b"]
        probs = softmax(logits)
        keep(out_in=h)
        return (probs[:, 0] if single else probs), cache

    # -------------------------------------------------------------- backward

    def backward(self, params, cache, d_logits):
        """Exact gradients of the summed loss for every parameter, as views
        of one vector laid out like the params.

        Requires the cache of a prior keep_cache forward pass on the same
        input and consumes its LSTM part; d_logits is the loss gradient at
        the pre-softmax logits, shaped like the probs and zero on a
        block's padded steps (as loss_and_grads makes it).
        """
        if cache is None:
            raise ContractError("backward needs the cache of a keep_cache forward pass")
        cfg = self.cfg
        pad = cache["pad"]
        if cache["single"]:
            d_logits = d_logits[:, None]
        grads = {
            "out_w": row_outer_sum(cache["out_in"], d_logits),
            "out_b": row_sum(d_logits),
        }
        dh = row_matmul(d_logits, params["out_w"].T)
        if "dropout_mask" in cache:
            dh = dh * cache["dropout_mask"]
        if cfg.variant in ("rcnn", "rnn"):
            rev = cache["rev"]
            grads_fb, (dx_f, dx_b) = lstm_ops.direction_backward(
                dh, dh[rev], cache.pop("lstm"), cache["lstm_weights"]
            )
            for direction, g in zip(("fwd", "bwd"), grads_fb):
                for key, value in g.items():
                    grads[f"{direction}_{key}"] = value
            dh = dx_f + dx_b[rev]
        if cfg.variant == "mlp":
            d_pre = dh * activation_grad("sigmoid", cache["mlp_out"])
            grads["mlp_w"] = row_outer_sum(cache["mlp_in"], d_pre)
            grads["mlp_b"] = row_sum(d_pre)
            dh = row_matmul(d_pre, params["mlp_w"].T)
        if cfg.variant in ("rcnn", "cnn"):
            d_conv = maxpool1d_backward(dh, cache["pool_argrow"])
            d_pre = d_conv * activation_grad(CONV_ACTIVATION, cache["conv_out"])
            d_w, d_b, dh = conv1d_backward(d_pre, cache["conv_in"], params["conv_w"])
            grads["conv_w"] = d_w
            grads["conv_b"] = d_b
        if pad is not None:
            dh[pad] = 0.0  # the zeroed padding rows are constants
        # The vector is made only now, once the LSTM's backward state is
        # freed, so that it does not raise the pass's peak memory; grads
        # fill all of it but the embedding tables.
        grad_vector = np.empty(self.size)
        for name, value in grads.items():
            self._view(grad_vector, name)[...] = value
        grads = self.views(grad_vector)
        self._scatter_input_grads(cache["inp"], dh, grads)
        return grads

    def _scatter_input_grads(self, block, d_x, grads):
        cfg = self.cfg
        col = 0
        for name, ids, dim in (("emb_word", block.word_ids, cfg.word_dim),
                               ("emb_tag", block.tag_ids, cfg.tag_dim)):
            if name in grads:
                grads[name][...] = 0.0
                np.add.at(grads[name], ids, d_x[..., col : col + dim])
                col += dim

    # ------------------------------------------------------------------ loss

    def loss_and_grads(self, params, inp, labels01, class_weights, mask=None,
                       mode="train", rng=None):
        """Forward, weighted cross-entropy, backward, in one call.

        labels01 holds ints with 1 = boundary, (m,) for a NetInput and
        (T, B) for a NetBatch; mask, shaped like labels01, leaves rows
        out of the loss, and a block's padded steps always are. Returns
        the summed loss over active positions, the gradient dict, and the
        active-position count.
        """
        probs, cache = self.forward(params, inp, mode=mode, rng=rng, keep_cache=True)
        rows = probs.reshape(-1, N_CLASSES)
        labels = np.asarray(labels01).reshape(-1)
        y_true = np.zeros_like(rows)
        y_true[np.arange(len(labels)), labels] = 1.0
        active = np.ones(probs.shape[:-1], dtype=bool) if mask is None else (
            np.asarray(mask).astype(bool)
        )
        if cache["pad"] is not None:
            active = active & ~cache["pad"]
        loss, d_logits = weighted_cross_entropy(
            y_true, rows, class_weights, active.reshape(-1)
        )
        grads = self.backward(params, cache, d_logits.reshape(probs.shape))
        return loss, grads, int(active.sum())
