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
from .numerics import sum_in_order

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


# perfbench/test_perfbench.py builds its sets through it (ROADMAP item 6)
QuerySet = RetrievalSet


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


def evaluate(query: RetrievalSet, gallery: RetrievalSet, ks=(1, 5, 10),
             dist: Array | None = None) -> EvalMetrics:
    """Rank the gallery per query by ascending squared distance and score it.

    ``dist`` may supply a precomputed (and possibly re-ranked) query-gallery
    distance matrix; otherwise squared euclidean distances are used. Raises
    NumericError when a distance is not finite, since infinite distances
    would tie and rank arbitrarily.

    Nothing is sorted but each query's positives: a positive's rank in the
    filtered ranking is the count of non-junk gallery entries strictly
    closer to the query, or as close at a lower index, which is its place
    in a stable ascending sort. Each other entry finds how many positives
    precede it by a binary search over the sorted positives, so a query
    costs O(ng log positives). ``tests/oracles.py`` keeps the sorting form
    as ``sorted_evaluate``, which this matches exactly.
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
    ng = len(gallery)
    for i in range(len(query)):
        same = gallery.ids == query.ids[i]
        positives = np.flatnonzero(same & (gallery.cameras != query.cameras[i]))
        if not positives.size:
            continue
        counted += 1
        row = dist[i]
        positives = positives[np.argsort(row[positives], kind="stable")]
        near = row[positives]
        # (start of its run of equal distances, index) orders the positives
        # as the stable sort does; an other entry takes its index into the
        # key only when its distance ties a positive's
        keys = np.searchsorted(near, near) * ng + positives
        others = np.flatnonzero(~same)
        far = row[others]
        first = np.searchsorted(near, far)
        tied = near[np.minimum(first, near.size - 1)] == far
        ahead = np.searchsorted(keys, first * ng + np.where(tied, others, 0))
        # positive t follows t positives and every other entry with ahead <= t
        hit_pos = (np.arange(near.size) + np.cumsum(
            np.bincount(ahead, minlength=near.size + 1))[:near.size])
        precisions = (np.arange(hit_pos.size) + 1.0) / (hit_pos + 1.0)
        ap_sum += sum_in_order(precisions) / hit_pos.size
        for k in ks:
            if hit_pos[0] < k:
                hits[k] += 1
    if counted == 0:
        return EvalMetrics({k: 0.0 for k in ks}, 0.0, 0)
    return EvalMetrics({k: hits[k] / counted for k in ks}, ap_sum / counted, counted)


# Rows that every pass of ``k_reciprocal_rerank`` holds at once: of the pooled
# (n, n) distance matrix, of the ranks, of sparse V and of the result. At 16,
# a row block of 1800 points is 230 KB and the Jaccard step's index entries
# for 16 queries stay near 0.3 MB an array; at 64 the re-rank's tracemalloc
# peak at n = 1800 rose from 8.8 to 12.7 MB, for no gain in speed.
_RERANK_BLOCK_ROWS = 16


def _row_blocks(total: int):
    """Yield (start, stop): ``_RERANK_BLOCK_ROWS`` rows at a time of ``total``."""
    for start in range(0, total, _RERANK_BLOCK_ROWS):
        yield start, min(start + _RERANK_BLOCK_ROWS, total)


def _norm_row_blocks(q_q: Array, q_g: Array, g_g: Array, peak: float):
    """Yield (start, rows): ``_RERANK_BLOCK_ROWS`` rows at a time of the
    pooled matrix ``[[q_q, q_g], [q_g.T, g_g]]``, divided by ``peak`` when
    it is positive; the matrix itself is never built."""
    nq, total = len(q_q), len(q_q) + len(g_g)
    for start, stop in _row_blocks(total):
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


def _runs(lo: Array, counts: Array) -> Array:
    """The ranges [lo[t], lo[t] + counts[t]) concatenated in order."""
    ends = np.cumsum(counts)
    return (np.arange(ends[-1] if ends.size else 0)
            + np.repeat(lo - (ends - counts), counts))


def _row_sums(lengths: Array, values: Array) -> Array:
    """Each row's own ``values[row].sum()``, for rows of ``lengths`` laid end
    to end. numpy's pairwise sum depends on the row length, so the rows of
    one length are summed together as a (rows, length) array, whose row sums
    are those of the rows alone; a zero-padded form would round otherwise."""
    starts = np.cumsum(lengths) - lengths
    by_length = np.argsort(lengths, kind="stable")
    sums = np.empty(len(lengths))
    edges = np.flatnonzero(np.diff(lengths[by_length])) + 1
    for which in np.split(by_length, edges):
        sums[which] = values[starts[which, None]
                             + np.arange(lengths[which[0]])].sum(axis=1)
    return sums


def _csr(parts: list[tuple[Array, Array, Array]]) -> tuple[Array, Array, Array]:
    """(indptr, columns, values) of sparse rows given as per-block
    (row lengths, columns, values)."""
    lengths, cols, vals = (np.concatenate(p) for p in zip(*parts))
    return np.concatenate(([0], np.cumsum(lengths))), cols, vals


def _partial_rank(norm: Array, m: int) -> Array:
    """The first ``m`` columns of ``np.argsort(norm, axis=1, kind="stable")``.

    Each row keeps the entries at or below its m-th smallest value; one
    stable ``np.lexsort`` on (row, value) orders them all, ties in index
    order, and each row's first m are taken. ``argpartition``'s own order is
    never used, since it breaks ties differently.
    """
    kth = np.partition(norm, m - 1, axis=1)[:, m - 1]
    # "not above" rather than "at or below" keeps nan, as the full sort does;
    # flat positions, since a 2-d np.nonzero is several times slower
    flat = np.flatnonzero(~(norm > kth[:, None]))
    rows = flat // norm.shape[1]
    flat = flat[np.lexsort((norm.ravel()[flat], rows))]
    counts = np.bincount(rows, minlength=len(norm))
    return flat[(np.cumsum(counts) - counts)[:, None] + np.arange(m)] % norm.shape[1]


def _mutual(rank: Array, k: int) -> Array:
    """(n, k + 1) mask over ``rank[:, :k + 1]``: whether that neighbor's own
    top-(k+1) holds the point, so row i's True entries are R(i, k)."""
    mutual = np.empty((len(rank), k + 1), dtype=bool)
    for start, stop in _row_blocks(len(rank)):
        back = rank[rank[start:stop, :k + 1], :k + 1]
        mutual[start:stop] = (back == np.arange(start, stop)[:, None, None]).any(axis=2)
    return mutual


def _expanded_block(start: int, norm: Array, rank: Array, mutual: Array,
                    mutual_half: Array) -> tuple[Array, Array, Array]:
    """Sparse V rows of one row block as (row lengths, sorted columns,
    exp(-dist)), before each row is normalized by its sum."""
    stop, n = start + len(norm), norm.shape[1]
    forward, base = rank[start:stop, :mutual.shape[1]], mutual[start:stop]
    # flat positions in the block: row r's column j is r * n + j
    offset = (np.arange(len(norm)) * n)[:, None]
    expanded = np.zeros(norm.size, dtype=bool)
    expanded[(forward + offset)[base]] = True  # R(i, k1)
    # each candidate c in i's top-(k1+1) with its R(c, round(k1/2))
    cand = rank[forward, :mutual_half.shape[1]] + offset[:, :, None]
    cand_in = mutual_half[forward]
    overlap = (expanded[cand] & cand_in).sum(axis=2)
    take = cand_in & (base & (overlap > (2.0 / 3.0) * cand_in.sum(axis=2)))[:, :, None]
    expanded[cand[take]] = True
    expanded[offset[:, 0] + np.arange(start, stop)] = True  # the point itself
    flat = np.flatnonzero(expanded)
    return (np.bincount(flat // n, minlength=len(norm)), flat % n,
            np.exp(-norm.ravel()[flat]))


def _expanded_rows(q_q: Array, q_g: Array, g_g: Array, peak: float,
                   rank: Array, k1: int) -> tuple[Array, Array, Array]:
    """Sparse V of all points as (indptr, columns, values), from a second
    pass over the normalized row blocks."""
    half = max(1, int(np.rint(k1 / 2.0)))
    mutual, mutual_half = _mutual(rank, k1), _mutual(rank, half)
    indptr, cols, vals = _csr(
        [_expanded_block(start, block, rank, mutual, mutual_half)
         for start, block in _norm_row_blocks(q_q, q_g, g_g, peak)])
    lengths = np.diff(indptr)
    vals /= np.repeat(_row_sums(lengths, vals), lengths)
    return indptr, cols, vals


def _mean_rows(v: tuple[Array, Array, Array], rank: Array,
               k2: int) -> tuple[Array, Array, Array]:
    """Each point's V row replaced by the mean of its top-k2 neighbors' rows.

    Per block of points, their neighbors' entries are laid out point by
    point in neighbor order; one ``np.unique`` over (point, column) keys and
    one ``np.bincount``, which adds in input order, sum each column's terms
    in neighbor order.
    """
    indptr, cols, vals = v
    total = len(indptr) - 1
    parts = []
    for start, stop in _row_blocks(total):
        neighbors = rank[start:stop, :k2].ravel()
        counts = indptr[neighbors + 1] - indptr[neighbors]
        entries = _runs(indptr[neighbors], counts)
        point = np.repeat(np.arange(stop - start).repeat(k2), counts)
        keys, inverse = np.unique(point * total + cols[entries],
                                  return_inverse=True)
        sums = np.bincount(inverse, weights=vals[entries], minlength=keys.size)
        parts.append((np.bincount(keys // total, minlength=stop - start),
                      keys % total, sums / k2))
    return _csr(parts)


def _jaccard_mix(v: tuple[Array, Array, Array], q_g: Array,
                 lambda_value: float) -> Array:
    """lambda * q_g + (1 - lambda) * the Jaccard distance of V's query rows
    to its gallery rows (steps 5 and 6 of ``k_reciprocal_rerank``)."""
    indptr, cols, vals = v
    nq, ng = q_g.shape
    sums = _row_sums(np.diff(indptr), vals)
    # inverted index: gallery nonzeros as (column, gallery row, value),
    # sorted by column, with each column's start offset
    by_col = np.argsort(cols[indptr[nq]:], kind="stable")
    g_rows = np.repeat(np.arange(ng), np.diff(indptr[nq:]))[by_col]
    g_vals = vals[indptr[nq]:][by_col]
    starts = np.searchsorted(cols[indptr[nq]:][by_col], np.arange(nq + ng + 1))
    del by_col

    out = np.empty((nq, ng))
    for start, stop in _row_blocks(nq):
        q_cols, q_vals = (a[indptr[start]:indptr[stop]] for a in (cols, vals))
        lo = starts[q_cols]
        counts = starts[q_cols + 1] - lo
        # index entries of each query column: one run of counts[t] from lo[t]
        hit = _runs(lo, counts)
        query = np.repeat(np.arange(stop - start), np.diff(indptr[start:stop + 1]))
        # in place where it can be: these arrays set the re-rank's peak memory
        keys = np.repeat(query, counts)
        keys *= ng
        keys += g_rows[hit]
        weights = np.repeat(q_vals, counts)
        np.minimum(weights, g_vals[hit], out=weights)
        del hit
        mins = np.bincount(keys, weights=weights, minlength=(stop - start) * ng
                           ).reshape(stop - start, ng)
        del keys, weights
        maxs = sums[start:stop, None] + sums[nq:]
        maxs -= mins
        ratio = np.divide(mins, maxs, out=np.zeros(maxs.shape), where=maxs > 0)
        del mins, maxs
        # lambda * q_g + (1 - lambda) * (1 - ratio): the same products and sums
        np.subtract(1.0, ratio, out=ratio)
        np.multiply(1.0 - lambda_value, ratio, out=out[start:stop])
        out[start:stop] += lambda_value * q_g[start:stop]
    return out


def k_reciprocal_rerank(q_g, q_q, g_g, k1: int = 20, k2: int = 6,
                        lambda_value: float = 0.3) -> Array:
    """Refine query-gallery distances with k-reciprocal neighborhood encoding.

    Zhong et al. 2017 (arXiv:1701.08398), on the pooled n = nq + ng point
    set with distances normalized by their global maximum, the max of the
    three blocks. Neither the pooled (n, n) matrix nor V is ever built, and
    no step loops over points in Python: every pass runs on blocks of
    ``_RERANK_BLOCK_ROWS`` rows, normalized rows are read straight from the
    blocks, and V is kept sparse as one (indptr, columns, values) triple:

    1. ranks: the first m = max(k1 + 1, k2) columns of each row's stable
       ascending order, from one ``np.partition`` per row block and one
       stable ``np.lexsort`` of the block's entries at or below each row's
       m-th value (O(n^2) plus the ties);
    2. reciprocal neighbor sets R(i, k1) and R(i, round(k1/2)) as boolean
       (n, k + 1) masks over the ranks' first k + 1 columns; per row block,
       R(i, k1) is expanded by each candidate's R(c, round(k1/2)) whenever
       more than two thirds of it already lies in R(i, k1), counted on a
       (rows, n) membership mask;
    3. sparse V[i] = normalized exp(-dist) over the expanded set (the point
       itself is always included), from a second pass over the row blocks;
       each row's weights are divided by that row's own ``sum()``;
    4. local query expansion: V[i] replaced by the mean of the V rows of i's
       top-k2 neighbors, duplicate columns summed in neighbor order by one
       ``np.bincount`` per block of points (skipped for k2 <= 1);
    5. Jaccard distance 1 - sum(min(Vi, Vj)) / sum(max(Vi, Vj)) through an
       inverted index of the gallery rows' nonzeros sorted by column: a
       block of queries touches only the gallery entries in its own
       columns, summed by one ``np.bincount`` over (query, gallery row)
       keys, and sum(max) = sum(Vi) + sum(Vj) - sum(min);
    6. output lambda * original_q_g + (1 - lambda) * jaccard, written into
       each block of output rows as its Jaccard rows are made.

    Memory beyond the three input blocks: the (n, m) ranks, two (n, k + 1)
    masks, sparse V (the expanded rows, then their means, a few dozen
    nonzeros per row) and the (nq, ng) result, plus per block of rows one
    row block of n columns, an (n)-wide membership mask, the gathered
    candidate sets and the block's index entries. Past the O(n^2) ranking,
    the cost grows with the nonzeros of V rather than with n^2 per query.
    ``tests/oracles.py`` keeps the per-point form as ``loop_rerank``, which
    this matches bit for bit, and the dense form as ``dense_rerank``, which
    it matches to the last bits, since the Jaccard sums run in another
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

    v = _expanded_rows(q_q, q_g, g_g, peak, rank, k1)
    if k2 > 1:
        v = _mean_rows(v, rank, k2)
    del rank
    return _jaccard_mix(v, q_g, lambda_value)


def clamped_rerank_params(nq: int, ng: int, k1: int, k2: int) -> tuple[int, int]:
    """Shrink (k1, k2) to fit a small query/gallery pool."""
    total = nq + ng
    return max(1, min(k1, total - 1)), max(1, min(k2, total - 1))
