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

One kernel, ``_sq_dists``, computes every squared distance, for the loss
and for evaluation: the loss passes its whole (B, N, D) stack in one call,
and ``sq_dist_matrix``, the 2-d function evaluation and re-ranking use, is
its B = 1 case. The gradient's scatter to anchors and their mined pairs is
one ``np.bincount`` over the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateBatchError, NumericError, ShapeError
from .numerics import sum_in_order

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


# Output bytes per row block of ``_sq_dists``, across the whole stack: the
# block and its scratch stay in L2 while every feature passes over them.
_SQ_DIST_BLOCK_BYTES = 256 * 1024


def _block_rows(width: int) -> int:
    """Rows of ``width`` float64 outputs that fill one ``_sq_dists`` block."""
    return max(1, _SQ_DIST_BLOCK_BYTES // (8 * max(width, 1)))


def _sq_dists(a: Array, b: Array) -> Array:
    """Squared euclidean distances of (B, n, D) against (B, m, D) float64
    stacks, set by set: the (B, n, m) kernel behind every distance here.

    The result is filled in blocks of rows of ``a``, each about
    ``_SQ_DIST_BLOCK_BYTES`` of output over all B sets (at least one row).
    Within a block the features go in index order: one preallocated scratch
    block takes ``t = a[k, i, d] - b[k, j, d]``, then ``t * t``, which is
    added to the block. So every distance is ``((0 + s_0) + s_1) + ... +
    s_(D-1)``, the same operations in the same order as a naive per-pair
    loop, and bit-identical to it; only the memory traffic changes, since no
    (B, n, m) temporary is allocated per feature. A GEMM identity
    ``|a|^2 + |b|^2 - 2 a.b`` or a reduction over a stacked difference would
    round differently.

    Raises NumericError when a distance is not finite: finite descriptors
    can overflow, and an infinite distance ties in any ranking or mining.
    """
    sets, n, m = a.shape[0], a.shape[1], b.shape[1]
    out = np.zeros((sets, n, m))
    # (D, B, n, 1) and (D, B, 1, m) views: one feature per leading index
    a_cols = a.transpose(2, 0, 1)[..., None]
    b_cols = np.ascontiguousarray(b.transpose(2, 0, 1))[:, :, None]
    rows = _block_rows(sets * m)
    scratch = np.empty((sets, min(rows, n), m))
    for start in range(0, n, rows):
        block = out[:, start:start + rows]
        tmp = scratch[:, :block.shape[1]]
        for a_d, b_d in zip(a_cols[:, :, start:start + rows], b_cols):
            np.subtract(a_d, b_d, out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            block += tmp
    if not np.isfinite(out).all():
        raise NumericError("squared distances must be finite")
    return out


def sq_dist_matrix(a, b) -> Array:
    """Squared euclidean distances between (n, D) and (m, D) descriptor sets.

    The (n, m) result is ``_sq_dists`` over a stack of one set, so it is
    bit-identical to a naive per-pair loop, and it raises NumericError when
    a distance overflows to infinity.

    Self-distances, ``b is a``, are symmetric: each tile of one kernel
    block's rows is computed from its first row's column onward, then
    mirrored into the rows below by a transposed copy. ``(x - y)**2`` equals
    ``(y - x)**2`` exactly and the features add in the same order, so every
    value is the full kernel's; each tile's finiteness check covers the
    values mirrored from it.
    """
    same = b is a
    a = np.asarray(a, dtype=np.float64)
    b = a if same else np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"sq_dist_matrix: {a.shape} vs {b.shape}")
    if not same:
        return _sq_dists(a[None], b[None])[0]
    n = len(a)
    out = np.empty((n, n))
    rows = _block_rows(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        tile = _sq_dists(a[None, start:stop], a[None, start:])[0]
        out[start:stop, start:] = tile
        out[stop:, start:stop] = tile[:, stop - start:].T
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
    """Weight w = sigmoid(max_pos / (min_neg + 1)), in [1/2, 1) for
    non-negative finite inputs. Elementwise over arrays; scalars give
    np.float64 scalars.
    """
    mp = np.asarray(max_pos, dtype=np.float64)
    mn = np.asarray(min_neg, dtype=np.float64)
    if not (np.all(np.isfinite(mp)) and np.all(np.isfinite(mn))):
        raise ConfigError("elastic_weight: inputs must be finite")
    if np.any(mp < 0) or np.any(mn < 0):
        raise ConfigError("elastic_weight: distances must be non-negative")
    delta = mp / (mn + 1.0)
    # clamped below 1: float64's sigmoid saturates for delta above ~37, but
    # the weight's open upper bound must survive in the returned value
    return np.minimum(1.0 / (1.0 + np.exp(-delta)), _BELOW_ONE)


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
        raise ConfigError(f"batch_elastic_loss: eta must be positive, got {eta}")
    named = isinstance(weighting, str)
    if named and weighting not in ("sigmoid", "detached"):
        raise ConfigError(f"batch_elastic_loss: unknown weighting {weighting!r}")

    # every branch in one call of the kernel that evaluation shares
    dist = _sq_dists(vectors, vectors)
    hard = batch_hard_mine(dist, ids)
    total_valid = int(hard.valid.sum())
    if total_valid == 0:
        raise DegenerateBatchError(
            "no (anchor, branch) unit has both a positive and a negative")
    mp, mn = hard.max_pos_dist, hard.min_neg_dist
    if named:
        w = elastic_weight(mp, mn)
    else:
        w = np.broadcast_to(np.asarray(weighting, dtype=np.float64), mp.shape)
        if not np.all(np.isfinite(w)):
            raise ConfigError("batch_elastic_loss: a constant weighting must "
                              "be finite")
    if stats is not None:
        stats["weights"] = w
    raw = eta + mp - mn
    active = hard.valid & (raw > 0.0)
    hinge = np.where(active, raw, 0.0)
    # each branch's anchors sum first, then the branch sums left to right
    row_sums = np.where(hard.valid, w * hinge, 0.0).sum(axis=1)
    loss = sum_in_order(row_sums) / total_valid
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
    grads = _scatter_rows(rows.reshape(-1), updates.reshape(-1, dim), b * n)
    return loss, grads.reshape(b, n, dim)


def _scatter_rows(rows: np.ndarray, updates: Array, count: int) -> Array:
    """Sum the (K, D) ``updates`` into ``count`` rows, update k into row
    ``rows[k]``. One ``np.bincount`` over the flat element indices adds
    each element's updates in input order, starting from 0.0, as
    ``np.add.at`` into zeros does."""
    dim = updates.shape[1]
    flat = (rows[:, None] * dim + np.arange(dim)).reshape(-1)
    out = np.bincount(flat, weights=updates.reshape(-1),
                      minlength=count * dim)
    # with no update the weights are empty, and bincount counts in int64
    return out.astype(np.float64, copy=False).reshape(count, dim)


# no caller in the package: perfbench/spans.py wraps it by name
def batch_hard_triplet_loss(vectors, ids, eta: float = 3.0
                            ) -> tuple[float, Array]:
    """Plain batch-hard hinge over stacked branches: the constant weight 1."""
    return batch_elastic_loss(vectors, ids, eta, 1.0)
