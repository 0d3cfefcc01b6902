"""Batch-hard triplet loss and its sigmoid-weighted (elastic) variant.

Mining is per anchor: the farthest same-id sample (hardest positive) and the
nearest different-id sample (hardest negative), measured in squared euclidean
distance. Every loss here is one formula, computed by one core: each valid
anchor's hinge ``max(0, eta + max_pos - min_neg)`` times a weight, summed
over the descriptor branches and averaged over the valid (anchor, branch)
units. The core takes one of three weightings:

* ``"sigmoid"``: the elastic weight

      w = sigmoid(delta),   delta = max_pos / (min_neg + 1),

  confined to [1/2, 1): hard anchors (large max_pos relative to min_neg)
  approach full weight, easy ones are damped toward one half. The weight
  takes part in the backward pass through the product rule.
* ``"detached"``: the same weight, held constant in the backward pass.
* a constant weight, scalar or per anchor, also held constant. The plain
  batch-hard triplet loss (Hermans et al. 2017) is the constant 1.

A single batch is the one-branch case. All gradients are analytic and
verified against the finite-difference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBatchError, ShapeError

Array = np.ndarray


@dataclass
class DescriptorBatch:
    """N descriptor vectors with identity labels (and optional camera labels)."""

    vectors: Array
    ids: np.ndarray
    cameras: np.ndarray | None = None

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.ids = np.asarray(self.ids)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 2:
            raise ShapeError(
                f"DescriptorBatch: need at least 2 vectors of shape (N, D), "
                f"got {self.vectors.shape}")
        if self.ids.shape != (self.vectors.shape[0],):
            raise ShapeError(
                f"DescriptorBatch: ids {self.ids.shape} vs vectors {self.vectors.shape}")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("DescriptorBatch: vectors must be finite")
        if self.cameras is not None:
            self.cameras = np.asarray(self.cameras)
            if self.cameras.shape != self.ids.shape:
                raise ShapeError("DescriptorBatch: cameras must match ids length")

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass
class HardPairs:
    """Per-anchor hardest positive/negative squared distances and indices.

    Anchors with no positive (self excluded) or no negative in the batch are
    flagged invalid; their distances are 0 and indices -1 by convention.
    """

    max_pos_dist: Array
    min_neg_dist: Array
    hardest_pos_index: np.ndarray
    hardest_neg_index: np.ndarray
    valid: np.ndarray


@dataclass(frozen=True)
class ElasticParams:
    """Margin and weight-handling knobs for the elastic loss."""

    eta: float = 3.0
    detach_weight: bool = False

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"ElasticParams: eta must be positive, got {self.eta}")


def sq_dist_matrix(a, b) -> Array:
    """Squared euclidean distances between two descriptor sets.

    Accumulates over the feature dimension in index order so the result is
    bit-identical to a naive per-pair loop.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"sq_dist_matrix: {a.shape} vs {b.shape}")
    out = np.zeros((a.shape[0], b.shape[0]))
    for d in range(a.shape[1]):
        diff = a[:, d, None] - b[None, :, d]
        out += diff * diff
    return out


def pairwise_sq_dist(batch: DescriptorBatch) -> Array:
    """Symmetric zero-diagonal matrix of squared distances within a batch."""
    return sq_dist_matrix(batch.vectors, batch.vectors)


def batch_hard_mine(dist, ids) -> HardPairs:
    """Hardest positive / hardest negative per anchor; ties go to the lowest index."""
    dist = np.asarray(dist, dtype=np.float64)
    ids = np.asarray(ids)
    n = ids.shape[0]
    if dist.shape != (n, n):
        raise ShapeError(f"batch_hard_mine: dist {dist.shape} vs {n} ids")
    same = ids[:, None] == ids[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same
    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)

    pos_d = np.where(pos_mask, dist, -np.inf)
    neg_d = np.where(neg_mask, dist, np.inf)
    pos_idx = pos_d.argmax(axis=1)
    neg_idx = neg_d.argmin(axis=1)
    rows = np.arange(n)
    max_pos = np.where(valid, dist[rows, pos_idx], 0.0)
    min_neg = np.where(valid, dist[rows, neg_idx], 0.0)
    return HardPairs(
        max_pos_dist=max_pos,
        min_neg_dist=min_neg,
        hardest_pos_index=np.where(valid, pos_idx, -1),
        hardest_neg_index=np.where(valid, neg_idx, -1),
        valid=valid,
    )


_BELOW_ONE = np.nextafter(1.0, 0.0)


def _sigmoid_weight(delta):
    """Sigmoid clamped below 1: float64 saturates for delta above ~37, but the
    weight's open upper bound must survive in the returned value."""
    return np.minimum(1.0 / (1.0 + np.exp(-delta)), _BELOW_ONE)


def elastic_weight(max_pos, min_neg):
    """Weight w = sigmoid(max_pos / (min_neg + 1)) and the ratio itself.

    Returns (delta, w); w always lies in [1/2, 1) for non-negative finite
    inputs. Accepts scalars or arrays elementwise.
    """
    mp = np.asarray(max_pos, dtype=np.float64)
    mn = np.asarray(min_neg, dtype=np.float64)
    if not (np.all(np.isfinite(mp)) and np.all(np.isfinite(mn))):
        raise ValueError("elastic_weight: inputs must be finite")
    if np.any(mp < 0) or np.any(mn < 0):
        raise ValueError("elastic_weight: distances must be non-negative")
    delta = mp / (mn + 1.0)
    w = _sigmoid_weight(delta)
    if delta.ndim == 0:
        return float(delta), float(w)
    return delta, w


def _descriptor_grads(vectors: Array, hard: HardPairs, d_mp: Array,
                      d_mn: Array) -> Array:
    """Chain per-anchor distance gradients back to the descriptor matrix.

    d_mp / d_mn are the loss derivatives w.r.t. each anchor's max_pos /
    min_neg; distances are squared, so d max_pos / d v_a = 2 (v_a - v_p).
    """
    grads = np.zeros_like(vectors)
    for a in np.flatnonzero(hard.valid):
        if d_mp[a] == 0.0 and d_mn[a] == 0.0:
            continue
        p = hard.hardest_pos_index[a]
        q = hard.hardest_neg_index[a]
        pos_diff = 2.0 * (vectors[a] - vectors[p])
        neg_diff = 2.0 * (vectors[a] - vectors[q])
        grads[a] += d_mp[a] * pos_diff + d_mn[a] * neg_diff
        grads[p] -= d_mp[a] * pos_diff
        grads[q] -= d_mn[a] * neg_diff
    return grads


def _metric_loss(branches: list[DescriptorBatch], eta: float, weighting,
                 mined: list[HardPairs] | None = None
                 ) -> tuple[float, list[Array]]:
    """Weighted batch-hard hinge over branches; the module docstring lists
    the weightings.

    Each branch is mined in its own geometry unless ``mined`` gives its
    hardest pairs. Returns the loss and one gradient array per branch.
    """
    if not branches:
        raise ValueError("need at least one descriptor branch")
    if any(len(b) != len(branches[0]) or not np.array_equal(b.ids, branches[0].ids)
           for b in branches[1:]):
        raise ValueError("all branches must share the same ids")
    chain = isinstance(weighting, str) and weighting == "sigmoid"
    if mined is None:
        mined = [batch_hard_mine(pairwise_sq_dist(b), b.ids) for b in branches]
    total_valid = int(sum(h.valid.sum() for h in mined))
    if total_valid == 0:
        raise DegenerateBatchError(
            "no (anchor, branch) unit has both a positive and a negative")
    loss = 0.0
    grads = []
    for b, h in zip(branches, mined):
        mp, mn = h.max_pos_dist, h.min_neg_dist
        if isinstance(weighting, str):
            w = _sigmoid_weight(mp / (mn + 1.0))
        else:
            w = np.broadcast_to(np.asarray(weighting, dtype=np.float64), mp.shape)
        raw = eta + mp - mn
        active = h.valid & (raw > 0.0)
        hinge = np.where(active, raw, 0.0)
        loss += float(np.where(h.valid, w * hinge, 0.0).sum())
        d_mp = np.where(active, w, 0.0)
        d_mn = -d_mp
        if chain:
            # product rule through w(delta): w' = w (1 - w).
            coef = np.where(active, w * (1.0 - w) * hinge, 0.0)
            d_mp = d_mp + coef / (mn + 1.0)
            d_mn = d_mn - coef * mp / (mn + 1.0) ** 2
        grads.append(_descriptor_grads(b.vectors, h, d_mp / total_valid,
                                       d_mn / total_valid))
    return loss / total_valid, grads


def _weighting(params: ElasticParams) -> str:
    return "detached" if params.detach_weight else "sigmoid"


def hard_triplet_loss(batch: DescriptorBatch, eta: float = 3.0,
                      hard: HardPairs | None = None) -> tuple[float, Array]:
    """Mean over valid anchors of max(0, eta + max_pos - min_neg).

    Returns the loss and its gradient w.r.t. the descriptor matrix; gradient
    flows only through each anchor's selected hardest pair.
    """
    loss, (grads,) = _metric_loss([batch], eta, 1.0,
                                  None if hard is None else [hard])
    return loss, grads


def elastic_triplet_loss(batch: DescriptorBatch,
                         params: ElasticParams | None = None,
                         hard: HardPairs | None = None,
                         weight_override=None) -> tuple[float, Array]:
    """Per-anchor weighted hinge w(delta) * max(0, eta + max_pos - min_neg).

    Averaged over valid anchors. ``weight_override`` substitutes a constant
    weight (per anchor or scalar) and implies detached-weight gradients;
    with ``params.detach_weight`` the weight is computed but held constant
    in the backward pass.
    """
    params = params or ElasticParams()
    weighting = _weighting(params) if weight_override is None else weight_override
    loss, (grads,) = _metric_loss([batch], params.eta, weighting,
                                  None if hard is None else [hard])
    return loss, grads


def batch_elastic_loss(branches: list[DescriptorBatch],
                       params: ElasticParams | None = None
                       ) -> tuple[float, list[Array]]:
    """Elastic loss summed over branches, averaged over valid (anchor, branch) units.

    Each branch is mined independently in its own distance geometry. Returns
    the loss and one gradient array per branch.
    """
    params = params or ElasticParams()
    return _metric_loss(branches, params.eta, _weighting(params))


def batch_hard_triplet_loss(branches: list[DescriptorBatch], eta: float = 3.0
                            ) -> tuple[float, list[Array]]:
    """Plain batch-hard hinge over branches, same unit normalization as above."""
    return _metric_loss(branches, eta, 1.0)
