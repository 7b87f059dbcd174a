"""The sequence-labelling network: RCNN stack and its ablation variants.

One SequenceNet owns the architecture; parameters live in a plain ordered
dict of named float64 arrays so the optimizer, the serializer, and the
finite-difference tests can all iterate them uniformly. 1-D parameters are
biases; everything else is a weight matrix.

Variant stacks (all per-sequence, one timestep per row, m preserved):

    rcnn  embed? -> conv(relu) -> maxpool -> bilstm -> dropout -> dense+softmax
    cnn   embed? -> conv(relu) -> maxpool ->           dropout -> dense+softmax
    rnn   embed? ->                bilstm ->           dropout -> dense+softmax
    mlp   embed? -> dense(sigmoid) ->                             dense+softmax
"""

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
    softmax,
)
from .loss import weighted_cross_entropy

VARIANTS = ("rcnn", "mlp", "cnn", "rnn")
N_CLASSES = 2  # column 0 = non-boundary, column 1 = boundary
CONV_ACTIVATION = "relu"


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

    def sliced(self, length):
        take = lambda a: None if a is None else a[:length]
        return NetInput(
            take(self.word_ids), take(self.tag_ids), take(self.dense), take(self.label01)
        )


class SequenceNet:
    """Architecture plus hand-derived gradients for every parameter."""

    def __init__(self, cfg: NetConfig):
        self.cfg = cfg

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

    def init_params(self, rng):
        """Glorot-gaussian weights, zero biases, in a fixed name order."""
        params = {}
        for name, shape in self.param_shapes().items():
            if len(shape) == 1:
                params[name] = np.zeros(shape)
            else:
                params[name] = glorot_init(shape[0], shape[1], rng)
        return params

    def zero_grads(self, params):
        return {name: np.zeros_like(value) for name, value in params.items()}

    # --------------------------------------------------------------- forward

    def _assemble_input(self, params, inp):
        """Build the (m, d) feature matrix: the dense block of a dense-input
        network, else the embedding rows of the word and tag ids."""
        cfg = self.cfg
        if cfg.dense_dim:
            if inp.dense is None:
                raise ContractError("network expects dense features")
            x = np.asarray(inp.dense, dtype=np.float64)
            if x.ndim != 2 or x.shape[1] != cfg.dense_dim:
                raise ContractError(
                    f"dense input has shape {x.shape}, expected (m, {cfg.dense_dim})"
                )
            return np.ascontiguousarray(x)
        parts = []
        if cfg.word_vocab:
            if inp.word_ids is None:
                raise ContractError("network expects word ids")
            parts.append(params["emb_word"][inp.word_ids])
        if cfg.tag_vocab:
            if inp.tag_ids is None:
                raise ContractError("network expects tag ids")
            parts.append(params["emb_tag"][inp.tag_ids])
        if not parts:
            raise ContractError("network input carries no usable features")
        x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        return np.ascontiguousarray(x)

    def _direction_weights(self, params, direction):
        keys = [f"wx_{g}" for g in lstm_ops.GATES]
        keys += [f"wh_{g}" for g in lstm_ops.GATES]
        keys += [f"b_{g}" for g in lstm_ops.GATES]
        keys += ["wy", "by"]
        return {k: params[f"{direction}_{k}"] for k in keys}

    def forward(self, params, inp, mode="inference", rng=None):
        """Run the stack on one sequence. Returns (probs, cache).

        probs is (m, 2) row-stochastic; cache feeds backward(). In train
        mode dropout consumes draws from rng; inference is deterministic.
        """
        if mode not in ("train", "inference"):
            raise ContractError(f"unknown mode {mode!r}")
        cfg = self.cfg
        x = self._assemble_input(params, inp)
        if x.shape[0] < 1:
            raise ContractError("empty sequence")
        cache = {"inp": inp, "x": x, "mode": mode}
        h = x
        if cfg.variant in ("rcnn", "cnn"):
            pre = conv_windows(h, cfg.conv_width) @ params["conv_w"].T + params["conv_b"]
            conv_out = activation_fn(CONV_ACTIVATION)(pre)
            pooled, argrow = maxpool1d_same(conv_out, cfg.pool_width, return_argmax=True)
            cache["conv_in"] = h
            cache["conv_out"] = conv_out
            cache["pool_argrow"] = argrow
            h = pooled
        if cfg.variant == "mlp":
            hidden = activation_fn("sigmoid")(h @ params["mlp_w"] + params["mlp_b"])
            cache["mlp_in"] = h
            cache["mlp_out"] = hidden
            h = hidden
        if cfg.variant in ("rcnn", "rnn"):
            fwd_w = self._direction_weights(params, "fwd")
            bwd_w = self._direction_weights(params, "bwd")
            y_f, cache_f = lstm_ops.direction_forward(h, fwd_w)
            y_b, cache_b = lstm_ops.direction_forward(h[::-1], bwd_w)
            cache["lstm_fwd"] = cache_f
            cache["lstm_bwd"] = cache_b
            h = y_f + y_b[::-1]
        if cfg.variant != "mlp":
            h, mask = dropout_apply(h, cfg.dropout, mode, rng, return_mask=True)
            cache["dropout_mask"] = mask
        logits = h @ params["out_w"] + params["out_b"]
        probs = softmax(logits)
        cache["out_in"] = h
        cache["probs"] = probs
        return probs, cache

    # -------------------------------------------------------------- backward

    def backward(self, params, cache, d_logits):
        """Exact gradients of the summed loss for every parameter.

        Requires the cache of a prior forward pass on the same sequence;
        d_logits is the loss gradient at the pre-softmax logits.
        """
        if cache is None:
            raise ContractError("backward called before forward")
        cfg = self.cfg
        grads = self.zero_grads(params)
        grads["out_w"] = cache["out_in"].T @ d_logits
        grads["out_b"] = d_logits.sum(axis=0)
        dh = d_logits @ params["out_w"].T
        if cfg.variant != "mlp":
            dh = dh * cache["dropout_mask"]
        if cfg.variant in ("rcnn", "rnn"):
            fwd_w = self._direction_weights(params, "fwd")
            bwd_w = self._direction_weights(params, "bwd")
            g_f, dx_f = lstm_ops.direction_backward(dh, cache["lstm_fwd"], fwd_w)
            g_b, dx_b = lstm_ops.direction_backward(dh[::-1], cache["lstm_bwd"], bwd_w)
            for key, value in g_f.items():
                grads[f"fwd_{key}"] = value
            for key, value in g_b.items():
                grads[f"bwd_{key}"] = value
            dh = dx_f + dx_b[::-1]
        if cfg.variant == "mlp":
            d_pre = dh * activation_grad("sigmoid", cache["mlp_out"])
            grads["mlp_w"] = cache["mlp_in"].T @ d_pre
            grads["mlp_b"] = d_pre.sum(axis=0)
            dh = d_pre @ params["mlp_w"].T
        if cfg.variant in ("rcnn", "cnn"):
            d_conv = maxpool1d_backward(dh, cache["pool_argrow"])
            d_pre = d_conv * activation_grad(CONV_ACTIVATION, cache["conv_out"])
            d_w, d_b, dh = conv1d_backward(d_pre, cache["conv_in"], params["conv_w"])
            grads["conv_w"] = d_w
            grads["conv_b"] = d_b
        self._scatter_input_grads(cache["inp"], dh, grads)
        return grads

    def _scatter_input_grads(self, inp, d_x, grads):
        cfg = self.cfg
        col = 0
        if cfg.word_vocab and inp.word_ids is not None:
            np.add.at(grads["emb_word"], inp.word_ids, d_x[:, col : col + cfg.word_dim])
            col += cfg.word_dim
        if cfg.tag_vocab and inp.tag_ids is not None:
            np.add.at(grads["emb_tag"], inp.tag_ids, d_x[:, col : col + cfg.tag_dim])
            col += cfg.tag_dim

    # ------------------------------------------------------------------ loss

    def loss_and_grads(self, params, inp, labels01, class_weights, mask=None,
                       mode="train", rng=None):
        """Forward, weighted cross-entropy, backward, in one call.

        labels01: (m,) ints with 1 = boundary. Returns the summed loss over
        active positions, the gradient dict, and the active-position count.
        """
        probs, cache = self.forward(params, inp, mode=mode, rng=rng)
        labels01 = np.asarray(labels01)
        y_true = np.zeros_like(probs)
        y_true[np.arange(len(labels01)), labels01] = 1.0
        loss, d_logits = weighted_cross_entropy(y_true, probs, class_weights, mask)
        grads = self.backward(params, cache, d_logits)
        n_active = len(labels01) if mask is None else int(np.asarray(mask).astype(bool).sum())
        return loss, grads, n_active
