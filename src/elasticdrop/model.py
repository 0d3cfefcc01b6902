"""Desk-scale branch-drop network for embedding training.

Pipeline: a per-cell two-layer encoder lifts each (h, w) cell of the input
grid to feature space (spatial layout untouched, so masks align with input
rows); each branch zeroes the cells its drop mask drops, runs one shared
per-cell residual layer, average-pools over all cells (zeros included, no
renormalization), and projects to the descriptor space. A classifier head
shared across branches provides the id logits. The training objective is the
metric loss over all branch descriptor batches plus the sum of per-branch
cross entropies; inference is the mask-free path
encoder -> resblock -> pool -> embed, nothing else.

Shared trunk. The residual layer acts on each cell alone, and a fixed mask
(the consecutive and overlapping row schedules, ``none``, the global branch)
drops the same cells for every sample. A dropped cell enters the layer as
zeros, so it always leaves as ``relu(res_b)``, whatever the input. Training
therefore runs the residual layer once over the unmasked map, and branch b
pools

    (sum of all cells - sum of its dropped cells
     + dropped count * relu(res_b)) / (H W)

(without the residual layer a dropped cell is plain zero). The backward pass
folds every branch into one per-cell gradient
``sum_b keep_b[cell] * d_pooled_b / (H W)`` and runs one residual backward;
res_b also collects ``sum_b dropped_b * sum_n d_pooled_b / (H W)`` where
``res_b > 0``, the share of the constant cells. Both keep-row sums are
batched ``np.matmul`` products, one BLAS call per sample: the dropped
band sums ``(B, H W) @ (N, H W, C)`` and the per-cell fold
``(H W, B) @ (N, B, C)``. With one partial keep row, or a feature width
that is not a multiple of 8, BLAS may order those sums otherwise than
cell by cell, which moves the last bits. Inference is this path
with one all-ones keep row, the global branch. The fixed keep rows are
the config's branch plan (``ModelConfig.keep_rows``), built once when the
config is; every step reads that one copy. The randomized baselines
draw per-sample, per-channel masks: their branch multiplies the encoder
cells by the mask, runs the same trunk with one all-ones keep row, and
multiplies the trunk's encoder grad by the mask again.

All backward passes are explicit and accumulate into ParamTensor.grad;
training is plain Adam with linear warmup and staged decay, fully
deterministic given the config seed.
"""

from __future__ import annotations

import json
import sys
import types
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import dropmask
from .data_synth import Sample, pk_batches, stack_images
from .dropmask import DROP_SCHEMES, DropBlock, DropStrategyKind, UniformRowDrop
from .elastic_loss import batch_elastic_loss
from .errors import (ConfigError, NumericError, ShapeError, check_array_bytes,
                     read_text)
from .numerics import (Array, ParamTensor, adam_step, init_linear, linear_backward,
                       linear_forward, relu_backward, relu_forward,
                       softmax_cross_entropy)

LOSS_MODES = ("elastic", "triplet")


@dataclass(frozen=True)
class ModelConfig:
    height: int = 8
    width: int = 4
    in_channels: int = 6
    feat_channels: int = 32
    embed_dim: int = 16
    num_classes: int = 30
    eta: float = 3.0
    detach_weight: bool = False
    use_global_branch: bool = False
    use_resblock: bool = True
    loss: str = "elastic"
    drop_scheme: DropStrategyKind = UniformRowDrop(m=4)
    base_lr: float = 1e-3
    warmup_epochs: int = 5
    decay_epochs: tuple[int, ...] = (25, 35)
    decay_factor: float = 0.1
    epochs: int = 40
    batch_p: int = 8
    batch_k: int = 4
    seed: int = 0
    # use only the first keep_branches masks of the schedule (None = all)
    keep_branches: int | None = None

    def __post_init__(self):
        if min(self.height, self.width, self.in_channels, self.feat_channels,
               self.embed_dim) < 1:
            raise ConfigError("ModelConfig: dimensions must be positive")
        if self.num_classes < 2:
            raise ConfigError("ModelConfig: need at least 2 classes")
        if self.loss not in LOSS_MODES:
            raise ConfigError(f"ModelConfig: loss must be one of {LOSS_MODES}")
        for name in ("eta", "base_lr", "decay_factor"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"ModelConfig: {name} must be positive, "
                                  f"got {getattr(self, name)}")
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ConfigError("ModelConfig: epochs must be non-negative")
        if any(d < 1 for d in self.decay_epochs):
            raise ConfigError(f"ModelConfig: decay epochs are 1-based, got "
                              f"{list(self.decay_epochs)}")
        if self.batch_p < 2 or self.batch_k < 2:
            raise ConfigError("ModelConfig: need batch_p >= 2 and batch_k >= 2")
        if self.seed < 0:
            raise ConfigError(f"ModelConfig: seed must be non-negative, "
                              f"got {self.seed}")
        if self.keep_branches is not None and self.keep_branches < 1:
            raise ConfigError("ModelConfig: keep_branches must be >= 1")
        feat, embed = self.feat_channels, self.embed_dim
        check_array_bytes("ModelConfig", {
            # a checkpoint's config sets the grid; a run config's data does
            "masks (height, width)": (self.height, self.width),
            "weights (in_channels, feat_channels)": (self.in_channels, feat),
            "weights (feat_channels, feat_channels)": (feat, feat),
            "weights (feat_channels, embed_dim)": (feat, embed),
            "weights (embed_dim, num_classes)": (embed, self.num_classes)})
        if isinstance(self.drop_scheme, DropBlock):
            self.drop_scheme.check_fits(self.height, self.width)
        # The branch plan, set outside the fields so that no dict, hash or
        # comparison sees it. scheme_branches: the schedule's length, 1 for a
        # randomized kind (the global branch not counted). keep_rows: the
        # read-only (branches, H*W) keep matrix of the fixed masks, the
        # schedule cut to keep_branches, then the all-ones global branch;
        # None when no branch has a fixed mask.
        masks = []
        if not isinstance(self.drop_scheme, dropmask.RandomizedDrop):
            # building the schedule raises when it does not fit the grid
            masks = dropmask.branch_masks(self.drop_scheme, self.height,
                                          self.width)
        object.__setattr__(self, "scheme_branches", len(masks) or 1)
        if self.keep_branches is not None and (
                self.keep_branches > self.scheme_branches):
            raise ConfigError(
                f"ModelConfig: keep_branches={self.keep_branches} exceeds "
                f"the schedule's {self.scheme_branches} branches")
        masks = masks[:self.keep_branches]
        if self.use_global_branch:
            masks.append(np.ones((self.height, self.width)))
        keep_rows = None
        if masks:
            keep_rows = np.stack([m.reshape(-1) for m in masks])
            keep_rows.setflags(write=False)
        object.__setattr__(self, "keep_rows", keep_rows)


@dataclass
class ModelParams:
    # in layer order; the residual pair is None without the resblock
    enc_w1: ParamTensor
    enc_b1: ParamTensor
    enc_w2: ParamTensor
    enc_b2: ParamTensor
    res_w: ParamTensor | None
    res_b: ParamTensor | None
    emb_w: ParamTensor
    emb_b: ParamTensor
    cls_w: ParamTensor
    cls_b: ParamTensor

    def named(self) -> dict[str, ParamTensor]:
        """The present parameters by name, in declaration order."""
        return {f.name: p for f in fields(self)
                if (p := getattr(self, f.name)) is not None}


@dataclass
class ForwardOutput:
    # with the global branch on, its descriptor is the last one
    branch_descriptors: list[Array]
    # the (B, N) weights the metric loss used
    metric_weights: Array
    elastic_loss: float
    ce_loss: float
    total_loss: float


def init_params(config: ModelConfig, rng: np.random.Generator | None = None
                ) -> ModelParams:
    rng = rng or np.random.default_rng(config.seed)
    enc_w1, enc_b1 = init_linear(rng, config.in_channels, config.feat_channels)
    enc_w2, enc_b2 = init_linear(rng, config.feat_channels, config.feat_channels)
    res_w = res_b = None
    if config.use_resblock:
        res_w, res_b = init_linear(rng, config.feat_channels, config.feat_channels)
    emb_w, emb_b = init_linear(rng, config.feat_channels, config.embed_dim)
    cls_w, cls_b = init_linear(rng, config.embed_dim, config.num_classes)
    return ModelParams(enc_w1=enc_w1, enc_b1=enc_b1, enc_w2=enc_w2, enc_b2=enc_b2,
                       res_w=res_w, res_b=res_b, emb_w=emb_w, emb_b=emb_b,
                       cls_w=cls_w, cls_b=cls_b)


def _encode_cells(images, params: ModelParams, config: ModelConfig):
    """Check the (N, H, W, in) images, then run the per-cell two-layer
    encoder over their (N*H*W, in) cells; returns (cells, a1, h1, feat)."""
    images = np.asarray(images, dtype=np.float64)
    expected = (config.height, config.width, config.in_channels)
    if images.ndim != 4 or images.shape[1:] != expected:
        raise ShapeError(
            f"images {images.shape} do not match (N, {expected[0]}, "
            f"{expected[1]}, {expected[2]})")
    cells = images.reshape(-1, config.in_channels)
    a1 = linear_forward(cells, params.enc_w1, params.enc_b1)
    h1 = relu_forward(a1)
    feat = linear_forward(h1, params.enc_w2, params.enc_b2)
    return cells, a1, h1, feat


def _shared_forward(feat: Array, keep: Array, params: ModelParams,
                    config: ModelConfig):
    """Pooled maps of B branches from one resblock pass over ``feat``.

    ``feat`` holds the (N*H*W, C) cells (the encoder's, or a randomized
    branch's masked copy), ``keep`` the (B, H*W) keep rows; returns (B, N, C)
    pooled maps and the backward cache.
    """
    cell_count = config.height * config.width
    if config.use_resblock:
        res_pre = linear_forward(feat, params.res_w, params.res_b)
        y = feat + relu_forward(res_pre)
        dropped_cell = relu_forward(params.res_b.value)
    else:
        y, res_pre, dropped_cell = feat, None, 0.0
    y = y.reshape(-1, cell_count, config.feat_channels)
    dropped = 1.0 - keep
    band_sums = np.matmul(dropped, y).transpose(1, 0, 2)
    dropped_count = dropped.sum(axis=1)
    # full sum minus the dropped cells: an all-ones row stays infer's pooling
    sums = (y.sum(axis=1) - band_sums
            + dropped_count[:, None, None] * dropped_cell)
    cache = {"keep": keep, "dropped_count": dropped_count, "feat": feat,
             "res_pre": res_pre}
    return sums / cell_count, cache


def _shared_backward(d_pooled: Array, cache: dict, params: ModelParams,
                     config: ModelConfig) -> Array:
    """Fold the (B, N, C) pooled grads into one resblock backward.

    Accumulates the resblock grads and returns the (N*H*W, C) encoder grad.
    """
    d_cells = d_pooled / (config.height * config.width)
    # (K, B) @ (N, B, C) comes out C-contiguous (N, K, C): the reshape is a view
    d_y = np.matmul(cache["keep"].T, d_cells.transpose(1, 0, 2))
    d_y = d_y.reshape(-1, config.feat_channels)
    if not config.use_resblock:
        return d_y
    d_res = relu_backward(cache["res_pre"], d_y)
    d_feat, gw, gb = linear_backward(cache["feat"], params.res_w, d_res)
    params.res_w.grad += gw
    # each dropped cell holds relu(res_b), so its grad reaches res_b alone
    d_dropped = cache["dropped_count"] @ d_cells.sum(axis=1)
    params.res_b.grad += gb + np.where(params.res_b.value > 0.0, d_dropped, 0.0)
    return d_feat + d_y


def metric_weighting(config: ModelConfig):
    """The metric loss's weighting: the plain triplet loss is the constant 1."""
    if config.loss == "triplet":
        return 1.0
    return "detached" if config.detach_weight else "sigmoid"


def forward_train(images, ids, params: ModelParams, config: ModelConfig,
                  rng: np.random.Generator | None = None) -> ForwardOutput:
    """One fused forward/backward pass; grads accumulate into params.

    Branch masks come from the configured scheme (randomized schemes draw a
    fresh batch of masks from ``rng``). The total is the metric loss over
    all branch descriptor batches plus the per-branch mean cross entropies
    summed over branches.
    """
    cells, a1, h1, feat = _encode_cells(images, params, config)
    ids = np.asarray(ids, dtype=np.int64)

    # trunk passes as (randomized mask or None, keep rows); the randomized
    # branch comes first, then the fixed rows
    passes = []
    if isinstance(config.drop_scheme, dropmask.RandomizedDrop):
        if rng is None:
            raise ConfigError("randomized drop scheme requires an rng")
        mask = dropmask.baseline_mask(
            config.drop_scheme, config.height, config.width,
            config.feat_channels, rng, batch_size=len(images))
        passes.append((mask.reshape(-1, config.feat_channels),
                       np.ones((1, config.height * config.width))))
    if config.keep_rows is not None:
        passes.append((None, config.keep_rows))

    pooled, caches = [], []
    for mask, rows in passes:
        p, cache = _shared_forward(feat if mask is None else feat * mask, rows,
                                   params, config)
        pooled.extend(p)
        caches.append(cache)
    descs = [linear_forward(p, params.emb_w, params.emb_b) for p in pooled]

    stats = {}
    metric_loss, metric_grads = batch_elastic_loss(
        np.stack(descs), ids, config.eta, metric_weighting(config), stats)

    # each branch's classifier, cross entropy and head backward, in order
    ce_total, d_pooled = 0.0, []
    for p, desc, d_desc in zip(pooled, descs, metric_grads):
        ce, d_logits = softmax_cross_entropy(
            linear_forward(desc, params.cls_w, params.cls_b), ids)
        ce_total += ce
        gd, gw, gb = linear_backward(desc, params.cls_w, d_logits)
        params.cls_w.grad += gw
        params.cls_b.grad += gb
        d, gw, gb = linear_backward(p, params.emb_w, d_desc + gd)
        params.emb_w.grad += gw
        params.emb_b.grad += gb
        d_pooled.append(d)
    d_pooled = np.stack(d_pooled)
    d_feat, start = None, 0
    for (mask, rows), cache in zip(passes, caches):
        d = _shared_backward(d_pooled[start:start + len(rows)], cache, params,
                             config)
        start += len(rows)
        if mask is not None:
            d *= mask
        d_feat = d if d_feat is None else d_feat + d
    d_h1, gw, gb = linear_backward(h1, params.enc_w2, d_feat)
    params.enc_w2.grad += gw
    params.enc_b2.grad += gb
    d_a1 = relu_backward(a1, d_h1)
    _, gw, gb = linear_backward(cells, params.enc_w1, d_a1)
    params.enc_w1.grad += gw
    params.enc_b1.grad += gb

    return ForwardOutput(
        branch_descriptors=descs,
        metric_weights=stats["weights"],
        elastic_loss=metric_loss,
        ce_loss=ce_total,
        total_loss=metric_loss + ce_total,
    )


def infer(images, params: ModelParams, config: ModelConfig) -> Array:
    """Mask-free descriptors: encoder -> resblock -> average pool -> embed.

    The global branch's path: the shared trunk with one all-ones keep row.
    Raises NumericError when a descriptor is not finite (finite weights
    can still overflow).
    """
    feat = _encode_cells(images, params, config)[3]
    keep = np.ones((1, config.height * config.width))
    pooled, _ = _shared_forward(feat, keep, params, config)
    descs = linear_forward(pooled[0], params.emb_w, params.emb_b)
    if not np.isfinite(descs).all():
        raise NumericError("infer: descriptors must be finite")
    return descs


def learning_rate(config: ModelConfig, epoch: int) -> float:
    """Linear warmup to base_lr, then multiply by decay_factor at each decay epoch."""
    if epoch < 1:
        raise ConfigError(f"learning_rate: epochs are 1-based, got {epoch}")
    if config.warmup_epochs > 0 and epoch <= config.warmup_epochs:
        lr = config.base_lr * epoch / config.warmup_epochs
    else:
        lr = config.base_lr
    for d in config.decay_epochs:
        if epoch >= d:
            lr *= config.decay_factor
    return lr


def train(samples: list[Sample], config: ModelConfig
          ) -> tuple[ModelParams, list[dict]]:
    """Adam training over PK-sampled batches; returns params and per-epoch log."""
    if not samples:
        raise ConfigError("train: empty dataset")
    images, ids, _ = stack_images(samples)
    if ids.max() >= config.num_classes:
        raise ConfigError(
            f"train: id {ids.max()} outside num_classes={config.num_classes}")
    params = init_params(config, np.random.default_rng([config.seed, 0]))
    mask_rng = np.random.default_rng([config.seed, 1])
    log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        lr = learning_rate(config, epoch)
        batches = pk_batches(ids, config.batch_p, config.batch_k,
                             seed=[config.seed, 2, epoch])
        sums = np.zeros(3)
        for idx in batches:
            out = forward_train(images[idx], ids[idx], params, config,
                                rng=mask_rng)
            for p in params.named().values():
                adam_step(p, lr)
            sums += (out.elastic_loss, out.ce_loss, out.total_loss)
        k = len(batches)
        log.append({"epoch": epoch, "lr": lr,
                    "elastic_loss": float(sums[0] / k),
                    "ce_loss": float(sums[1] / k),
                    "total_loss": float(sums[2] / k)})
    return params, log


# --- checkpoint (versioned json; textual floats round-trip exactly) --------

CHECKPOINT_VERSION = 2


def _fits(value, hint) -> bool:
    """Whether a json value fits a field type; see ``check_fields``."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, arg) for arg in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(
            _fits(v, typing.get_args(hint)[0]) for v in value)
    if hint in (int, float):
        if not isinstance(value, (int, hint)) or isinstance(value, bool):
            return False
        # false for an int outside numpy's int64 sizes, and for nan,
        # infinity and an int too large for a float
        if hint is int:
            return -2 ** 63 <= value < 2 ** 63
        return abs(value) <= sys.float_info.max
    return isinstance(value, hint) if hint in (bool, str, type(None)) else True


def check_fields(cls, doc, where: str) -> None:
    """Reject a ``doc`` holding keys that are not fields of dataclass ``cls``
    or values that do not fit their field's type.

    int fields reject bool, float and an int outside the int64 range; float
    fields accept int but not nan, infinity (which Python's json reads) or
    an int beyond the float range; tuple fields take a json list; a field
    of any other type (the drop scheme) is left to its own parser.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a json object, got {doc!r}")
    declared = {f.name: f.type for f in fields(cls)}
    extra = set(doc) - set(declared)
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
    hints = typing.get_type_hints(cls)
    for key, value in doc.items():
        if not _fits(value, hints[key]):
            raise ConfigError(f"{where}: {key} must be of type {declared[key]}, "
                              f"got {value!r}")


def scheme_to_dict(scheme: DropStrategyKind) -> dict:
    for kind, cls in DROP_SCHEMES.items():
        if type(scheme) is cls:
            return {"kind": kind, **asdict(scheme)}
    raise ConfigError(f"unknown drop scheme {scheme!r}")


def scheme_from_dict(d: dict) -> DropStrategyKind:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError(f"drop_scheme must be an object with a 'kind', got {d!r}")
    kind = d["kind"]
    # a json list or object kind is not a key (nor hashable)
    if not isinstance(kind, str) or kind not in DROP_SCHEMES:
        raise ConfigError(
            f"unknown drop_scheme kind {kind!r}; expected one of "
            f"{sorted(DROP_SCHEMES)}")
    kwargs = {k: v for k, v in d.items() if k != "kind"}
    check_fields(DROP_SCHEMES[kind], kwargs, f"drop_scheme {kind!r}")
    try:
        return DROP_SCHEMES[kind](**kwargs)
    except TypeError as exc:
        raise ConfigError(f"drop_scheme {kind!r}: {exc}") from exc


def config_to_dict(config: ModelConfig) -> dict:
    d = {f.name: getattr(config, f.name) for f in fields(ModelConfig)}
    d["drop_scheme"] = scheme_to_dict(config.drop_scheme)
    d["decay_epochs"] = list(config.decay_epochs)
    return d


def config_from_dict(d: dict) -> ModelConfig:
    check_fields(ModelConfig, d, "model config")
    kwargs = dict(d)
    if "drop_scheme" in kwargs:
        kwargs["drop_scheme"] = scheme_from_dict(kwargs["drop_scheme"])
    if "decay_epochs" in kwargs:
        kwargs["decay_epochs"] = tuple(kwargs["decay_epochs"])
    return ModelConfig(**kwargs)


def save_checkpoint(path, params: ModelParams, config: ModelConfig,
                    config_hash: str = "") -> None:
    blob = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "config": config_to_dict(config),
        "params": {
            name: {"shape": list(p.value.shape),
                   "data": p.value.reshape(-1).tolist()}
            for name, p in params.named().items()
        },
    }
    Path(path).write_text(json.dumps(blob, sort_keys=True))


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig]:
    text = read_text(path, "checkpoint")
    try:
        blob = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed json in checkpoint {path}: {exc}") from exc
    version = blob.get("format_version") if isinstance(blob, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"checkpoint version {version} unsupported")
    missing = {"config", "params"} - set(blob)
    if missing:
        raise ConfigError(f"checkpoint {path}: missing {sorted(missing)}")
    config = config_from_dict(blob["config"])
    params = init_params(config, np.random.default_rng(0))
    named = params.named()
    stored = blob["params"]
    if not isinstance(stored, dict) or set(stored) != set(named):
        raise ConfigError("checkpoint parameter names do not match the config")
    for name, entry in stored.items():
        expected = named[name].value
        if not isinstance(entry, dict) or not {"shape", "data"} <= set(entry):
            raise ConfigError(f"checkpoint param {name}: needs 'shape' and 'data'")
        try:
            value = np.asarray(entry["data"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"checkpoint param {name}: {exc}") from exc
        # json reads Infinity and NaN
        if not np.isfinite(value).all():
            raise ConfigError(f"checkpoint param {name}: non-finite value")
        if entry["shape"] != list(expected.shape) or value.shape != (expected.size,):
            raise ConfigError(
                f"checkpoint param {name}: shape {entry['shape']} with "
                f"{value.size} values vs expected {list(expected.shape)}")
        named[name].value = value.reshape(expected.shape)
    return params, config
