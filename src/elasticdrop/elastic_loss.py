"""Batch-hard triplet loss and its sigmoid-weighted (elastic) variant.

Every loss here is one formula, computed by one entry point,
``batch_elastic_loss(vectors, ids, eta, weighting)``. ``vectors`` stacks the
B descriptor branches of one batch as a (B, N, D) array; every branch
carries the same N identity labels ``ids``. Each branch is mined in its own
geometry: per anchor, the farthest same-id sample (hardest positive) and the
nearest different-id sample (hardest negative), in squared euclidean
distance. Each valid anchor's hinge ``max(0, eta + max_pos - min_neg)`` is
multiplied by a weight, summed over anchors and branches, and averaged over
the valid (anchor, branch) units. ``weighting`` is one of:

* ``"sigmoid"``: the elastic weight

      w = sigmoid(delta),   delta = max_pos / (min_neg + 1),

  confined to [1/2, 1): hard anchors (large max_pos relative to min_neg)
  approach full weight, easy ones are damped toward one half. The weight
  takes part in the backward pass through the product rule.
* ``"detached"``: the same weight, held constant in the backward pass.
* a constant weight, a scalar or a (B, N) or (N,) array, also held
  constant. The plain batch-hard triplet loss (Hermans et al. 2017) is the
  constant 1, ``batch_hard_triplet_loss``.

A single batch is the case B = 1. The loss comes with its (B, N, D)
gradient; all gradients are analytic and verified against the
finite-difference oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBatchError, NumericError, ShapeError

Array = np.ndarray


@dataclass
class HardPairs:
    """Per-anchor hardest positive/negative squared distances and indices.

    Each field has the leading shape of the mined distances without their
    last axis: (N,) for one (N, N) matrix, (B, N) for a (B, N, N) stack.
    Anchors with no positive (self excluded) or no negative in the batch are
    flagged invalid; their distances are 0 and indices -1 by convention.
    """

    max_pos_dist: Array
    min_neg_dist: Array
    hardest_pos_index: np.ndarray
    hardest_neg_index: np.ndarray
    valid: np.ndarray


# Output bytes per row block of ``sq_dist_matrix``: the block and its
# scratch stay in L2 while every feature passes over them.
_SQ_DIST_BLOCK_BYTES = 256 * 1024


def sq_dist_matrix(a, b) -> Array:
    """Squared euclidean distances between (n, D) and (m, D) descriptor sets.

    The (n, m) result is filled in blocks of rows of ``a``, each about
    ``_SQ_DIST_BLOCK_BYTES`` of output (at least one row). Within a block the
    features go in index order: one preallocated scratch block takes
    ``t = a[i, d] - b[j, d]``, then ``t * t``, which is added to the block.
    So every distance is ``((0 + s_0) + s_1) + ... + s_(D-1)``, the same
    operations in the same order as a naive per-pair loop, and bit-identical
    to it; only the memory traffic changes, since no (n, m) temporary is
    allocated per feature. A GEMM identity ``|a|^2 + |b|^2 - 2 a.b`` or a
    reduction over a stacked (D, rows, m) difference would round differently.

    Raises NumericError when a distance is not finite: finite descriptors
    can overflow, and an infinite distance ties in any ranking or mining.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"sq_dist_matrix: {a.shape} vs {b.shape}")
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n, m))
    b_t = np.ascontiguousarray(b.T)
    rows = max(1, _SQ_DIST_BLOCK_BYTES // (out.itemsize * max(m, 1)))
    scratch = np.empty((min(rows, n), m))
    for start in range(0, n, rows):
        block = out[start:start + rows]
        tmp = scratch[:block.shape[0]]
        for d in range(a.shape[1]):
            np.subtract(a[start:start + rows, d, None], b_t[d], out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            block += tmp
    if not np.isfinite(out).all():
        raise NumericError("sq_dist_matrix: squared distances must be finite")
    return out


def batch_hard_mine(dist, ids) -> HardPairs:
    """Hardest positive / hardest negative per anchor of (..., N, N)
    distances, along the last axis; ties go to the lowest index."""
    dist = np.asarray(dist, dtype=np.float64)
    ids = np.asarray(ids)
    n = ids.shape[0]
    if dist.ndim < 2 or dist.shape[-2:] != (n, n):
        raise ShapeError(f"batch_hard_mine: dist {dist.shape} vs {n} ids")
    same = ids[:, None] == ids[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same
    valid = np.broadcast_to(pos_mask.any(axis=1) & neg_mask.any(axis=1),
                            dist.shape[:-1])

    pos_idx = np.where(pos_mask, dist, -np.inf).argmax(axis=-1)
    neg_idx = np.where(neg_mask, dist, np.inf).argmin(axis=-1)
    max_pos = np.take_along_axis(dist, pos_idx[..., None], axis=-1)[..., 0]
    min_neg = np.take_along_axis(dist, neg_idx[..., None], axis=-1)[..., 0]
    return HardPairs(
        max_pos_dist=np.where(valid, max_pos, 0.0),
        min_neg_dist=np.where(valid, min_neg, 0.0),
        hardest_pos_index=np.where(valid, pos_idx, -1),
        hardest_neg_index=np.where(valid, neg_idx, -1),
        valid=valid,
    )


_BELOW_ONE = np.nextafter(1.0, 0.0)


def elastic_weight(max_pos, min_neg):
    """Weight w = sigmoid(max_pos / (min_neg + 1)) and the ratio itself.

    Returns (delta, w); w always lies in [1/2, 1) for non-negative finite
    inputs. Elementwise over arrays; scalars give np.float64 scalars.
    """
    mp = np.asarray(max_pos, dtype=np.float64)
    mn = np.asarray(min_neg, dtype=np.float64)
    if not (np.all(np.isfinite(mp)) and np.all(np.isfinite(mn))):
        raise ValueError("elastic_weight: inputs must be finite")
    if np.any(mp < 0) or np.any(mn < 0):
        raise ValueError("elastic_weight: distances must be non-negative")
    delta = mp / (mn + 1.0)
    # clamped below 1: float64's sigmoid saturates for delta above ~37, but
    # the weight's open upper bound must survive in the returned value
    w = np.minimum(1.0 / (1.0 + np.exp(-delta)), _BELOW_ONE)
    return delta, w


def batch_elastic_loss(vectors, ids, eta: float = 3.0, weighting="sigmoid",
                       stats: dict | None = None) -> tuple[float, Array]:
    """Weighted batch-hard hinge over B stacked (N, D) descriptor branches.

    The module docstring lists the weightings. Returns the loss and its
    (B, N, D) gradient w.r.t. ``vectors``. A ``stats`` dict receives the
    (B, N) weights the loss used under ``"weights"``.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    ids = np.asarray(ids)
    if vectors.ndim != 3 or vectors.shape[0] < 1 or vectors.shape[1] < 2:
        raise ShapeError(f"batch_elastic_loss: need (B, N, D) descriptors with "
                         f"B >= 1 and N >= 2, got {vectors.shape}")
    b, n, dim = vectors.shape
    if ids.shape != (n,):
        raise ShapeError(f"batch_elastic_loss: ids {ids.shape} vs descriptors "
                         f"{vectors.shape}")
    if not np.all(np.isfinite(vectors)):
        raise NumericError("batch_elastic_loss: descriptors must be finite")
    if not eta > 0:
        raise ValueError(f"batch_elastic_loss: eta must be positive, got {eta}")
    named = isinstance(weighting, str)
    if named and weighting not in ("sigmoid", "detached"):
        raise ValueError(f"batch_elastic_loss: unknown weighting {weighting!r}")

    # one distance function for training and evaluation
    dist = np.stack([sq_dist_matrix(v, v) for v in vectors])
    hard = batch_hard_mine(dist, ids)
    total_valid = int(hard.valid.sum())
    if total_valid == 0:
        raise DegenerateBatchError(
            "no (anchor, branch) unit has both a positive and a negative")
    mp, mn = hard.max_pos_dist, hard.min_neg_dist
    if named:
        w = elastic_weight(mp, mn)[1]
    else:
        w = np.broadcast_to(np.asarray(weighting, dtype=np.float64), mp.shape)
        if not np.all(np.isfinite(w)):
            raise ValueError("batch_elastic_loss: a constant weighting must be "
                             "finite")
    if stats is not None:
        stats["weights"] = w
    raw = eta + mp - mn
    active = hard.valid & (raw > 0.0)
    hinge = np.where(active, raw, 0.0)
    # each branch's anchors sum first, then the branch sums left to right
    row_sums = np.where(hard.valid, w * hinge, 0.0).sum(axis=1)
    loss = float(np.cumsum(row_sums)[-1]) / total_valid
    # finite hinges can still overflow in their sum (eta near the float max)
    if not np.isfinite(loss):
        raise NumericError("batch_elastic_loss: the loss must be finite")

    d_mp = np.where(active, w, 0.0)
    d_mn = -d_mp
    if named and weighting == "sigmoid":
        # product rule through w(delta): w' = w (1 - w).
        coef = np.where(active, w * (1.0 - w) * hinge, 0.0)
        d_mp = d_mp + coef / (mn + 1.0)
        d_mn = d_mn - coef * mp / (mn + 1.0) ** 2
    d_mp, d_mn = d_mp / total_valid, d_mn / total_valid

    # squared distances: d max_pos / d v_a = 2 (v_a - v_p); each active
    # anchor a scatters to rows a, p, q in that order, anchors in turn
    br, a = np.nonzero(active)
    p = hard.hardest_pos_index[br, a]
    q = hard.hardest_neg_index[br, a]
    pos = d_mp[br, a, None] * (2.0 * (vectors[br, a] - vectors[br, p]))
    neg = d_mn[br, a, None] * (2.0 * (vectors[br, a] - vectors[br, q]))
    rows = np.stack([a, p, q], axis=1) + n * br[:, None]
    updates = np.stack([pos + neg, -pos, -neg], axis=1)
    grads = np.zeros((b * n, dim))
    np.add.at(grads, rows.reshape(-1), updates.reshape(-1, dim))
    return loss, grads.reshape(b, n, dim)


# no caller in the package: perfbench/spans.py wraps it by name
def batch_hard_triplet_loss(vectors, ids, eta: float = 3.0
                            ) -> tuple[float, Array]:
    """Plain batch-hard hinge over stacked branches: the constant weight 1."""
    return batch_elastic_loss(vectors, ids, eta, 1.0)
