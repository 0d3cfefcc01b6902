"""Retrieval metrics (CMC rank-k, mAP) and k-reciprocal re-ranking.

Evaluation follows the usual cross-camera protocol: gallery entries sharing
both the query's identity and camera are junk and removed from its ranking;
queries left without any positive are skipped and not counted. AP is the
mean of precision-at-each-correct-hit over the filtered ranking, and all
distance ties break toward the lower gallery index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elastic_loss import sq_dist_matrix
from .errors import ConfigError, NumericError, ShapeError

Array = np.ndarray


@dataclass
class RetrievalSet:
    """Descriptors with identity and camera labels for one side of a split."""

    descriptors: Array
    ids: np.ndarray
    cameras: np.ndarray

    def __post_init__(self):
        self.descriptors = np.asarray(self.descriptors, dtype=np.float64)
        self.ids = np.asarray(self.ids)
        self.cameras = np.asarray(self.cameras)
        n = self.descriptors.shape[0] if self.descriptors.ndim == 2 else -1
        if n < 0 or self.ids.shape != (n,) or self.cameras.shape != (n,):
            raise ShapeError(
                f"RetrievalSet: descriptors {self.descriptors.shape}, ids "
                f"{self.ids.shape}, cameras {self.cameras.shape} do not agree")
        if not np.all(np.isfinite(self.descriptors)):
            raise ValueError("RetrievalSet: descriptors must be finite")

    def __len__(self) -> int:
        return self.descriptors.shape[0]


QuerySet = RetrievalSet
GallerySet = RetrievalSet


@dataclass
class EvalMetrics:
    """Rank-k hit rates, mAP and the number of counted queries."""

    rank_k: dict[int, float]
    mAP: float
    num_valid_queries: int

    def to_dict(self) -> dict:
        return {
            "rank": {str(k): v for k, v in sorted(self.rank_k.items())},
            "mAP": self.mAP,
            "num_valid_queries": self.num_valid_queries,
        }


def evaluate(query: QuerySet, gallery: GallerySet, ks=(1, 5, 10),
             dist: Array | None = None) -> EvalMetrics:
    """Rank the gallery per query by ascending squared distance and score it.

    ``dist`` may supply a precomputed (and possibly re-ranked) query-gallery
    distance matrix; otherwise squared euclidean distances are used. Raises
    NumericError when a distance is not finite, since infinite distances
    would tie and rank arbitrarily.
    """
    # a repeated k is one rank, scored once
    ks = sorted({int(k) for k in ks})
    if not ks or ks[0] < 1:
        raise ConfigError(f"evaluate: ks must be positive integers, got {ks}")
    if len(gallery) == 0:
        raise ConfigError("evaluate: gallery is empty")
    if dist is None:
        dist = sq_dist_matrix(query.descriptors, gallery.descriptors)
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (len(query), len(gallery)):
        raise ShapeError(
            f"evaluate: dist {dist.shape} vs ({len(query)}, {len(gallery)})")
    if not np.isfinite(dist).all():
        raise NumericError("evaluate: distances must be finite")

    counted = 0
    ap_sum = 0.0
    hits = {k: 0 for k in ks}
    for i in range(len(query)):
        order = np.argsort(dist[i], kind="stable")
        junk = (gallery.ids == query.ids[i]) & (gallery.cameras == query.cameras[i])
        ranked = order[~junk[order]]
        match = gallery.ids[ranked] == query.ids[i]
        if not match.any():
            continue
        counted += 1
        hit_pos = np.flatnonzero(match)
        precisions = (np.arange(hit_pos.size) + 1.0) / (hit_pos + 1.0)
        # sequential summation keeps AP bit-identical to a plain loop
        ap_sum += sum(precisions.tolist()) / hit_pos.size
        for k in ks:
            if match[:k].any():
                hits[k] += 1
    if counted == 0:
        return EvalMetrics({k: 0.0 for k in ks}, 0.0, 0)
    return EvalMetrics({k: hits[k] / counted for k in ks}, ap_sum / counted, counted)


# Rows of the pooled (n, n) distance matrix that ``k_reciprocal_rerank``
# holds at once: a 64-row block of 1800 points is under 1 MB.
_RERANK_BLOCK_ROWS = 64


def _norm_row_blocks(q_q: Array, q_g: Array, g_g: Array, peak: float):
    """Yield (start, rows): ``_RERANK_BLOCK_ROWS`` rows at a time of the
    pooled matrix ``[[q_q, q_g], [q_g.T, g_g]]``, divided by ``peak`` when
    it is positive; the matrix itself is never built."""
    nq, total = len(q_q), len(q_q) + len(g_g)
    for start in range(0, total, _RERANK_BLOCK_ROWS):
        stop = min(start + _RERANK_BLOCK_ROWS, total)
        # query rows [qs, qe), then gallery rows [gs, ge)
        qs, qe = min(start, nq), min(stop, nq)
        gs, ge = max(start, nq) - nq, max(stop, nq) - nq
        rows = np.empty((stop - start, total))
        rows[:qe - qs, :nq] = q_q[qs:qe]
        rows[:qe - qs, nq:] = q_g[qs:qe]
        rows[qe - qs:, :nq] = q_g[:, gs:ge].T
        rows[qe - qs:, nq:] = g_g[gs:ge]
        if peak > 0:
            rows /= peak
        yield start, rows


def _partial_rank(norm: Array, m: int) -> Array:
    """The first ``m`` columns of ``np.argsort(norm, axis=1, kind="stable")``.

    Each row keeps the entries at or below its m-th smallest value, in index
    order, and sorts them stably by value; ``argpartition``'s own order is
    never used, since it breaks ties differently.
    """
    kth = np.partition(norm, m - 1, axis=1)[:, m - 1]
    rank = np.empty((len(norm), m), dtype=np.int64)
    for i, row in enumerate(norm):
        # "not above" rather than "at or below" keeps nan, as the full sort does
        cand = np.flatnonzero(~(row > kth[i]))
        rank[i] = cand[np.argsort(row[cand], kind="stable")[:m]]
    return rank


def _reciprocal_sets(rank: Array, k: int) -> list[set[int]]:
    """Per point i, the j among i's top-(k+1) whose own top-(k+1) holds i."""
    forward = rank[:, :k + 1]
    mutual = (rank[forward, :k + 1]
              == np.arange(len(rank))[:, None, None]).any(axis=2)
    return [set(f[keep].tolist()) for f, keep in zip(forward, mutual)]


def _expanded_row(i: int, norm_row: Array, recip: list[set[int]],
                  recip_half: list[set[int]]) -> tuple[Array, Array]:
    """Sparse V row of point i: sorted columns and normalized exp(-dist)."""
    base = recip[i]
    expanded = base | {i}
    for c in base:
        cand = recip_half[c]
        if cand and len(cand & base) > (2.0 / 3.0) * len(cand):
            expanded |= cand
    idx = np.fromiter(sorted(expanded), dtype=np.int64, count=len(expanded))
    weights = np.exp(-norm_row[idx])
    return idx, weights / weights.sum()


def _expanded_rows(q_q: Array, q_g: Array, g_g: Array, peak: float,
                   rank: Array, k1: int) -> list[tuple[Array, Array]]:
    """Sparse V rows of all points, from a second pass over the normalized
    row blocks; the reciprocal sets are freed on return."""
    half = max(1, int(np.rint(k1 / 2.0)))
    recip = _reciprocal_sets(rank, k1)
    recip_half = _reciprocal_sets(rank, half)
    return [_expanded_row(start + r, row, recip, recip_half)
            for start, block in _norm_row_blocks(q_q, q_g, g_g, peak)
            for r, row in enumerate(block)]


def _mean_row(rows: list[tuple[Array, Array]], neighbors: Array) -> tuple[Array, Array]:
    """Mean of sparse rows, summing each column in neighbor order."""
    cols, inverse = np.unique(np.concatenate([rows[j][0] for j in neighbors]),
                              return_inverse=True)
    sums = np.bincount(inverse, weights=np.concatenate([rows[j][1] for j in neighbors]),
                       minlength=cols.size)
    return cols, sums / len(neighbors)


def k_reciprocal_rerank(q_g, q_q, g_g, k1: int = 20, k2: int = 6,
                        lambda_value: float = 0.3) -> Array:
    """Refine query-gallery distances with k-reciprocal neighborhood encoding.

    Zhong et al. 2017 (arXiv:1701.08398), on the pooled n = nq + ng point
    set with distances normalized by their global maximum, the max of the
    three blocks. Neither the pooled (n, n) matrix nor V is ever built:
    normalized rows are read ``_RERANK_BLOCK_ROWS`` at a time straight from
    the blocks, and V is kept as sparse rows (sorted columns, weights):

    1. ranks: the first m = max(k1 + 1, k2) columns of each row's stable
       ascending order, from one ``np.partition`` per row block and a
       stable sort of the entries at or below the m-th value (O(n^2) plus
       the ties);
    2. reciprocal neighbor sets R(i, k1) and R(i, round(k1/2)), one Python
       set per point; R(i, k1) is expanded by each candidate's
       R(c, round(k1/2)) whenever two thirds of it already overlaps R(i, k1);
    3. sparse V[i] = normalized exp(-dist) over the expanded set (the point
       itself is always included), from a second pass over the row blocks;
    4. local query expansion: V[i] replaced by the mean of the V rows of i's
       top-k2 neighbors, duplicate columns summed (skipped for k2 <= 1);
    5. Jaccard distance 1 - sum(min(Vi, Vj)) / sum(max(Vi, Vj)) through an
       inverted index of the gallery rows' nonzeros sorted by column: a
       query touches only the gallery entries in its own columns, and
       sum(max) = sum(Vi) + sum(Vj) - sum(min);
    6. output lambda * original_q_g + (1 - lambda) * jaccard, written into
       each output row as its Jaccard row is made.

    Memory beyond the three input blocks: one row block of n columns, the
    (n, m) ranks, O(n (k1 + 1)^2) for the reciprocal sets, the sparse V
    rows and the (nq, ng) result. Past the O(n^2) ranking, the cost grows
    with the nonzeros of V, a few dozen per row, rather than with n^2 per
    query. ``tests/oracles.py`` keeps the dense form as ``dense_rerank``;
    the two agree to the last bits, since the Jaccard sums run in another
    order. The result does not depend on the row-block size. Raises
    ConfigError on an empty gallery; an empty query set gives a (0, ng)
    result.
    """
    q_g = np.asarray(q_g, dtype=np.float64)
    q_q = np.asarray(q_q, dtype=np.float64)
    g_g = np.asarray(g_g, dtype=np.float64)
    nq, ng = q_g.shape if q_g.ndim == 2 else (-1, -1)
    if nq < 0 or q_q.shape != (nq, nq) or g_g.shape != (ng, ng):
        raise ShapeError(
            f"k_reciprocal_rerank: blocks {q_g.shape}, {q_q.shape}, {g_g.shape} "
            "do not assemble")
    if ng == 0:
        raise ConfigError("k_reciprocal_rerank: gallery is empty")
    total = nq + ng
    if not (1 <= k1 < total and 1 <= k2 < total):
        raise ConfigError(
            f"k_reciprocal_rerank: k1={k1}, k2={k2} must lie in [1, {total})")
    if not 0.0 <= lambda_value <= 1.0:
        raise ConfigError(f"k_reciprocal_rerank: lambda {lambda_value} outside [0, 1]")

    # np.max keeps a nan from any block, as the pooled matrix's max did
    peak = np.max([block.max() for block in (q_q, q_g, g_g) if block.size])
    m = max(k1 + 1, k2)
    rank = np.empty((total, m), dtype=np.int64)
    for start, block in _norm_row_blocks(q_q, q_g, g_g, peak):
        rank[start:start + len(block)] = _partial_rank(block, m)

    rows = _expanded_rows(q_q, q_g, g_g, peak, rank, k1)
    if k2 > 1:
        rows = [_mean_row(rows, rank[i, :k2]) for i in range(total)]

    # inverted index: gallery nonzeros as (column, gallery row, value),
    # sorted by column, with each column's start offset
    g_cols = np.concatenate([cols for cols, _ in rows[nq:]])
    by_col = np.argsort(g_cols, kind="stable")
    g_rows = np.repeat(np.arange(ng), [cols.size for cols, _ in rows[nq:]])[by_col]
    g_vals = np.concatenate([vals for _, vals in rows[nq:]])[by_col]
    starts = np.searchsorted(g_cols[by_col], np.arange(total + 1))
    g_sums = np.array([vals.sum() for _, vals in rows[nq:]])

    out = np.empty((nq, ng))
    for i in range(nq):
        cols, vals = rows[i]
        lo = starts[cols]
        counts = starts[cols + 1] - lo
        # index entries of row i's columns: one run of counts[t] from lo[t]
        hit = np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        mins = np.bincount(g_rows[hit], minlength=ng,
                           weights=np.minimum(np.repeat(vals, counts), g_vals[hit]))
        maxs = vals.sum() + g_sums - mins
        jaccard = 1.0 - np.divide(mins, maxs, out=np.zeros(ng), where=maxs > 0)
        # lambda * q_g + (1 - lambda) * jaccard: the same two products and sum
        out[i] = (1.0 - lambda_value) * jaccard
        out[i] += lambda_value * q_g[i]
    return out


def clamped_rerank_params(nq: int, ng: int, k1: int, k2: int) -> tuple[int, int]:
    """Shrink (k1, k2) to fit a small query/gallery pool."""
    total = nq + ng
    return max(1, min(k1, total - 1)), max(1, min(k2, total - 1))
