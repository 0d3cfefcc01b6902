"""Brute-force reference implementations used as test oracles.

Everything here is written straight from the definitions with explicit
python loops and sets, independent of the package's vectorized code paths.
The training-step oracle ``naive_forward_train`` keeps the straightforward
branch-by-branch network path (mask, resblock, pool and backward once per
branch) that ``model.forward_train`` factors through one shared resblock
pass, ``dense_rerank`` keeps the dense-V re-ranking that
``retrieval_eval.k_reciprocal_rerank`` computes on sparse rows,
``loop_rerank`` keeps its per-point form (a Python pass per point or query
where the package runs block passes), ``add_at_scatter`` keeps the ``np.add.at`` form of the metric loss's
gradient scatter, and ``oneshot_infer`` keeps the one pass over every image
that ``model.infer`` runs in training-batch blocks. ``uniform_row_partition``
and ``overlap_row_partition`` keep the two free functions that the fixed drop
schedules' ``ranges`` methods replaced, and ``sorted_evaluate`` keeps the
stable-sort ranking that ``retrieval_eval.evaluate`` replaced by counting.
"""

import math

import numpy as np

from elasticdrop import dropmask
from elasticdrop.elastic_loss import (batch_elastic_loss, batch_hard_mine,
                                      elastic_weight, sq_dist_matrix)
from elasticdrop.errors import ConfigError, NumericError
from elasticdrop.model import _encode_cells, _shared_forward, metric_weighting
from elasticdrop.numerics import (linear_backward, linear_forward,
                                  relu_forward, softmax_cross_entropy,
                                  sum_in_order)
from elasticdrop.retrieval_eval import EvalMetrics


def uniform_row_partition(height: int, m: int) -> tuple[tuple[int, int], ...]:
    """Split [0, height) into m equal contiguous row ranges, top to bottom."""
    if m <= 0:
        raise ConfigError(f"uniform_row_partition: m must be positive, got {m}")
    if height <= 0 or height % m != 0:
        raise ConfigError(
            f"uniform_row_partition: m={m} must divide height={height}")
    step = height // m
    return tuple((i * step, (i + 1) * step) for i in range(m))


def overlap_row_partition(height: int, patch_h: int, overlap: int
                          ) -> tuple[tuple[int, int], ...]:
    """Patches of patch_h rows placed at stride patch_h - overlap.

    Ranges are emitted while start + patch_h <= height; if the last emitted
    range ends short of the bottom, one extra range [height - patch_h,
    height) is appended so the partition still covers the whole map.
    """
    if not (0 < overlap < patch_h <= height):
        raise ConfigError(
            f"overlap_row_partition: need 0 < overlap < patch_h <= height, "
            f"got overlap={overlap}, patch_h={patch_h}, height={height}")
    stride = patch_h - overlap
    ranges = []
    start = 0
    while start + patch_h <= height:
        ranges.append((start, start + patch_h))
        start += stride
    if ranges[-1][1] < height:
        ranges.append((height - patch_h, height))
    return tuple(ranges)


def naive_relu_backward(x, g):
    """Upstream where x > 0, an exact +0.0 elsewhere: a select, not a product."""
    return np.where(x > 0.0, g, 0.0)


def naive_sq_dist(u, v) -> float:
    # each square is one correctly rounded product: ``** 2`` goes through
    # C's pow, which can land one ulp off
    s = 0.0
    for d in range(len(u)):
        diff = u[d] - v[d]
        s += diff * diff
    return s


def naive_pairwise_sq_dist(vectors) -> np.ndarray:
    n = len(vectors)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = naive_sq_dist(vectors[i], vectors[j])
    return out


def naive_cross_sq_dist(queries, gallery) -> np.ndarray:
    out = np.zeros((len(queries), len(gallery)))
    for i in range(len(queries)):
        for j in range(len(gallery)):
            out[i, j] = naive_sq_dist(queries[i], gallery[j])
    return out


def naive_hard_mine(dist, ids):
    """Per-anchor exhaustive scan over all same-id / different-id pairs."""
    n = len(ids)
    rows = []
    for a in range(n):
        best_pos, best_pos_idx = -math.inf, -1
        best_neg, best_neg_idx = math.inf, -1
        for j in range(n):
            if j == a:
                continue
            if ids[j] == ids[a]:
                if dist[a][j] > best_pos:
                    best_pos, best_pos_idx = dist[a][j], j
            else:
                if dist[a][j] < best_neg:
                    best_neg, best_neg_idx = dist[a][j], j
        valid = best_pos_idx >= 0 and best_neg_idx >= 0
        rows.append({
            "valid": valid,
            "max_pos": best_pos if valid else 0.0,
            "min_neg": best_neg if valid else 0.0,
            "pos_idx": best_pos_idx if valid else -1,
            "neg_idx": best_neg_idx if valid else -1,
        })
    return rows


def naive_metric_loss(branch_vectors, ids, eta, weighting):
    """Weighted batch-hard hinge over branches, anchor by anchor.

    ``weighting`` is "sigmoid", "detached" or a per-anchor list of constant
    weights. Each valid anchor adds ``w * max(0, eta + max_pos - min_neg)``;
    the sum is divided by the valid (anchor, branch) units. The gradient
    differentiates that term w.r.t. max_pos and min_neg (with the sigmoid
    weight's own derivative under "sigmoid") and chains each through the
    squared distance to the anchor and its mined pair. Returns (loss, grads).
    """
    units, total, grads = 0, 0.0, []
    for vectors in branch_vectors:
        rows = naive_hard_mine(naive_pairwise_sq_dist(vectors), ids)
        grad = np.zeros_like(vectors)
        for a, row in enumerate(rows):
            if not row["valid"]:
                continue
            units += 1
            mp, mn = row["max_pos"], row["min_neg"]
            if isinstance(weighting, str):
                w = 1.0 / (1.0 + math.exp(-mp / (mn + 1.0)))
            else:
                w = weighting[a]
            hinge = eta + mp - mn
            if hinge <= 0.0:
                continue
            total += w * hinge
            d_mp, d_mn = w, -w
            if weighting == "sigmoid":
                d_mp += hinge * w * (1.0 - w) / (mn + 1.0)
                d_mn -= hinge * w * (1.0 - w) * mp / (mn + 1.0) ** 2
            p, q = row["pos_idx"], row["neg_idx"]
            for d in range(vectors.shape[1]):
                pos = 2.0 * (vectors[a][d] - vectors[p][d])
                neg = 2.0 * (vectors[a][d] - vectors[q][d])
                grad[a][d] += d_mp * pos + d_mn * neg
                grad[p][d] -= d_mp * pos
                grad[q][d] -= d_mn * neg
        grads.append(grad)
    return total / units, [g / units for g in grads]


def add_at_scatter(rows, updates, count) -> np.ndarray:
    """``elastic_loss._scatter_rows`` as ``np.add.at`` into zero rows: each
    row sums its updates in input order."""
    out = np.zeros((count, np.shape(updates)[1]))
    np.add.at(out, rows, updates)
    return out


def mined_weights(vectors, ids) -> np.ndarray:
    """(B, N) elastic weights of stacked branches at their mined pairs,
    mined a second time, apart from the loss."""
    hard = batch_hard_mine(np.stack([sq_dist_matrix(v, v) for v in vectors]),
                           ids)
    return elastic_weight(hard.max_pos_dist, hard.min_neg_dist)


def naive_evaluate(q_desc, q_ids, q_cams, g_desc, g_ids, g_cams, ks,
                   dist=None):
    """Explicit-loop CMC / mAP with same-id same-camera junk filtering.

    Ties in distance break toward the lower gallery index. Returns
    (rank_k dict, mAP, counted queries).
    """
    nq, ng = len(q_ids), len(g_ids)
    if dist is None:
        dist = naive_cross_sq_dist(q_desc, g_desc)
    counted = 0
    ap_sum = 0.0
    hits = {k: 0 for k in ks}
    for i in range(nq):
        order = sorted(range(ng), key=lambda j: (dist[i][j], j))
        ranked = [j for j in order
                  if not (g_ids[j] == q_ids[i] and g_cams[j] == q_cams[i])]
        matches = [g_ids[j] == q_ids[i] for j in ranked]
        if not any(matches):
            continue
        counted += 1
        precisions = []
        seen = 0
        for pos, hit in enumerate(matches, start=1):
            if hit:
                seen += 1
                precisions.append(seen / pos)
        ap_sum += sum(precisions) / len(precisions)
        for k in ks:
            if any(matches[:k]):
                hits[k] += 1
    if counted == 0:
        return {k: 0.0 for k in ks}, 0.0, 0
    return {k: hits[k] / counted for k in ks}, ap_sum / counted, counted


def sorted_evaluate(query, gallery, ks, dist):
    """``retrieval_eval.evaluate`` by one stable argsort of each query's row.

    Given (query, gallery) ``RetrievalSet``s, positive ranks and the
    precomputed distances; inputs are assumed valid. Returns EvalMetrics.
    """
    ks = sorted({int(k) for k in ks})
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
        ap_sum += sum_in_order(precisions) / hit_pos.size
        for k in ks:
            if match[:k].any():
                hits[k] += 1
    if counted == 0:
        return EvalMetrics({k: 0.0 for k in ks}, 0.0, 0)
    return EvalMetrics({k: hits[k] / counted for k in ks}, ap_sum / counted, counted)


def _ordered_neighbors(dist_row, count):
    order = sorted(range(len(dist_row)), key=lambda j: (dist_row[j], j))
    return order[:count]


def rerank_reference(q_g, q_q, g_g, k1=20, k2=6, lambda_value=0.3):
    """k-reciprocal re-ranking written from the step-by-step definition.

    Mirrors the documented contract of the production routine using plain
    python sets and loops throughout.
    """
    q_g = np.asarray(q_g, dtype=np.float64)
    nq, ng = q_g.shape
    total = nq + ng
    dist = np.zeros((total, total))
    for i in range(total):
        for j in range(total):
            if i < nq and j < nq:
                dist[i, j] = q_q[i][j]
            elif i < nq <= j:
                dist[i, j] = q_g[i][j - nq]
            elif j < nq <= i:
                dist[i, j] = q_g[j][i - nq]
            else:
                dist[i, j] = g_g[i - nq][j - nq]
    peak = dist.max()
    if peak > 0:
        dist = dist / peak

    def reciprocal(i, k):
        forward = _ordered_neighbors(dist[i], k + 1)
        out = set()
        for j in forward:
            if i in _ordered_neighbors(dist[j], k + 1):
                out.add(j)
        return out

    half = max(1, int(np.rint(k1 / 2.0)))
    recip = [reciprocal(i, k1) for i in range(total)]
    recip_half = [reciprocal(i, half) for i in range(total)]

    v = np.zeros((total, total))
    for i in range(total):
        expanded = set(recip[i]) | {i}
        for c in recip[i]:
            cand = recip_half[c]
            if cand and len(cand & recip[i]) > (2.0 / 3.0) * len(cand):
                expanded |= cand
        idx = sorted(expanded)
        weights = [math.exp(-dist[i, j]) for j in idx]
        norm = sum(weights)
        for j, w in zip(idx, weights):
            v[i, j] = w / norm

    if k2 > 1:
        v_new = np.zeros_like(v)
        for i in range(total):
            neigh = _ordered_neighbors(dist[i], k2)
            for col in range(total):
                v_new[i, col] = sum(v[j, col] for j in neigh) / len(neigh)
        v = v_new

    final = np.zeros((nq, ng))
    for i in range(nq):
        for j in range(ng):
            col = nq + j
            num = sum(min(v[i, t], v[col, t]) for t in range(total))
            den = sum(max(v[i, t], v[col, t]) for t in range(total))
            jaccard = 1.0 - (num / den if den > 0 else 0.0)
            final[i, j] = lambda_value * q_g[i, j] + (1.0 - lambda_value) * jaccard
    return final


def _dense_reciprocal_set(rank, i, k):
    """Indices j among i's top-(k+1) whose own top-(k+1) contains i."""
    forward = rank[i, :k + 1]
    backward = rank[forward, :k + 1]
    return forward[(backward == i).any(axis=1)]


def dense_rerank(q_g, q_q, g_g, k1=20, k2=6, lambda_value=0.3):
    """The dense form of ``retrieval_eval.k_reciprocal_rerank``.

    The same steps on a dense (n, n) V, with a full stable argsort and
    per-query (ng, n) min/max reductions. The production routine keeps V as
    sparse rows and sums the Jaccard terms in another order, so the two
    agree to the last bits. Inputs are assumed valid.
    """
    q_g = np.asarray(q_g, dtype=np.float64)
    q_q = np.asarray(q_q, dtype=np.float64)
    g_g = np.asarray(g_g, dtype=np.float64)
    nq, ng = q_g.shape
    total = nq + ng

    full = np.block([[q_q, q_g], [q_g.T, g_g]])
    peak = full.max()
    norm = full / peak if peak > 0 else full.copy()
    rank = np.argsort(norm, axis=1, kind="stable")

    half = max(1, int(np.rint(k1 / 2.0)))
    recip = [_dense_reciprocal_set(rank, i, k1) for i in range(total)]
    recip_half = [_dense_reciprocal_set(rank, i, half) for i in range(total)]

    v = np.zeros((total, total))
    for i in range(total):
        base = set(int(j) for j in recip[i])
        expanded = base | {i}
        for c in recip[i]:
            cand = set(int(j) for j in recip_half[c])
            if cand and len(cand & base) > (2.0 / 3.0) * len(cand):
                expanded |= cand
        idx = np.fromiter(sorted(expanded), dtype=np.int64)
        weights = np.exp(-norm[i, idx])
        v[i, idx] = weights / weights.sum()

    if k2 > 1:
        v = np.stack([v[rank[i, :k2]].mean(axis=0) for i in range(total)])

    v_gallery = v[nq:]
    jaccard = np.zeros((nq, ng))
    for i in range(nq):
        mins = np.minimum(v[i], v_gallery).sum(axis=1)
        maxs = np.maximum(v[i], v_gallery).sum(axis=1)
        jaccard[i] = 1.0 - np.divide(mins, maxs, out=np.zeros(ng), where=maxs > 0)

    return lambda_value * q_g + (1.0 - lambda_value) * jaccard


def _partial_rank(norm, m):
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


def _reciprocal_sets(rank, k):
    """Per point i, the j among i's top-(k+1) whose own top-(k+1) holds i."""
    forward = rank[:, :k + 1]
    mutual = (rank[forward, :k + 1]
              == np.arange(len(rank))[:, None, None]).any(axis=2)
    return [set(f[keep].tolist()) for f, keep in zip(forward, mutual)]


def _expanded_row(i, norm_row, recip, recip_half):
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


def _mean_row(rows, neighbors):
    """Mean of sparse rows, summing each column in neighbor order."""
    cols, inverse = np.unique(np.concatenate([rows[j][0] for j in neighbors]),
                              return_inverse=True)
    sums = np.bincount(inverse, weights=np.concatenate([rows[j][1] for j in neighbors]),
                       minlength=cols.size)
    return cols, sums / len(neighbors)


def loop_rerank(q_g, q_q, g_g, k1=20, k2=6, lambda_value=0.3):
    """The per-point form of ``retrieval_eval.k_reciprocal_rerank``.

    The same steps with one Python pass per point or query: a row loop of
    argsorts for the ranks, Python sets for the reciprocal expansion, one
    ``np.unique`` and ``np.bincount`` per point for the query expansion and
    one inverted-index lookup per query for the Jaccard distance. Every sum
    runs in the same order as the block passes, so the two agree bit for
    bit. The pooled matrix is built whole; inputs are assumed valid.
    """
    q_g = np.asarray(q_g, dtype=np.float64)
    q_q = np.asarray(q_q, dtype=np.float64)
    g_g = np.asarray(g_g, dtype=np.float64)
    nq, ng = q_g.shape
    total = nq + ng

    norm = np.block([[q_q, q_g], [q_g.T, g_g]])
    peak = norm.max()
    if peak > 0:
        norm /= peak
    rank = _partial_rank(norm, max(k1 + 1, k2))

    half = max(1, int(np.rint(k1 / 2.0)))
    recip = _reciprocal_sets(rank, k1)
    recip_half = _reciprocal_sets(rank, half)
    rows = [_expanded_row(i, norm[i], recip, recip_half) for i in range(total)]
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


def nearest_neighbor_id_accuracy(query_images, query_ids, ref_images, ref_ids):
    """Raw-pixel 1-NN classification accuracy of query ids against a reference set."""
    correct = 0
    for qi, qid in zip(query_images, query_ids):
        best, best_id = math.inf, None
        for ri, rid in zip(ref_images, ref_ids):
            d = float(((qi - ri) ** 2).sum())
            if d < best:
                best, best_id = d, rid
        correct += int(best_id == qid)
    return correct / len(query_ids)


def random_retrieval_instance(rng, max_n=30, dim_range=(2, 6), cam_range=(1, 4)):
    """Random query/gallery instance with id and camera labels for oracle tests."""
    nq = int(rng.integers(1, max_n + 1))
    ng = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(*dim_range))
    n_ids = int(rng.integers(1, 8))
    n_cams = int(rng.integers(*cam_range))
    q_desc = rng.normal(size=(nq, d))
    g_desc = rng.normal(size=(ng, d))
    q_ids = rng.integers(0, n_ids, size=nq)
    g_ids = rng.integers(0, n_ids, size=ng)
    q_cams = rng.integers(0, n_cams, size=nq)
    g_cams = rng.integers(0, n_cams, size=ng)
    return q_desc, q_ids, q_cams, g_desc, g_ids, g_cams


def einsum_shared_forward(feat, keep, params, config):
    """``model._shared_forward`` with its band sums as one ``np.einsum``."""
    cell_count = config.height * config.width
    if config.use_resblock:
        res_pre = linear_forward(feat, params.res_w, params.res_b)
        y = feat + relu_forward(res_pre)
        dropped_cell = relu_forward(params.res_b.value)
    else:
        y, res_pre, dropped_cell = feat, None, 0.0
    y = y.reshape(-1, cell_count, config.feat_channels)
    dropped = 1.0 - keep
    band_sums = np.einsum("bk,nkc->bnc", dropped, y)
    dropped_count = dropped.sum(axis=1)
    sums = (y.sum(axis=1) - band_sums
            + dropped_count[:, None, None] * dropped_cell)
    cache = {"keep": keep, "dropped_count": dropped_count, "feat": feat,
             "res_pre": res_pre}
    return sums / cell_count, cache


def einsum_shared_backward(d_pooled, cache, params, config):
    """``model._shared_backward`` with its per-cell fold as one ``np.einsum``."""
    d_cells = d_pooled / (config.height * config.width)
    d_y = np.einsum("bk,bnc->nkc", cache["keep"], d_cells)
    d_y = d_y.reshape(-1, config.feat_channels)
    if not config.use_resblock:
        return d_y
    d_res = naive_relu_backward(cache["res_pre"], d_y)
    d_feat, gw, gb = linear_backward(cache["feat"], params.res_w, d_res)
    params.res_w.grad += gw
    d_dropped = cache["dropped_count"] @ d_cells.sum(axis=1)
    params.res_b.grad += gb + np.where(params.res_b.value > 0.0, d_dropped, 0.0)
    return d_feat + d_y


def oneshot_infer(images, params, config):
    """``model.infer`` as one encoder, resblock and embedding pass over all
    the images at once."""
    feat = _encode_cells(images, params, config)[3]
    keep = np.ones((1, config.height * config.width))
    pooled, _ = _shared_forward(feat, keep, params, config)
    descs = linear_forward(pooled[0], params.emb_w, params.emb_b)
    if not np.isfinite(descs).all():
        raise NumericError("infer: descriptors must be finite")
    return descs


def _naive_branch_forward(fmap, mask, params, config):
    """Mask the map, run the resblock on every cell, pool, embed, classify."""
    n = fmap.shape[0]
    cell_count = config.height * config.width
    masked = fmap * mask if mask.ndim == 4 else dropmask.apply_mask(fmap, mask)
    z = masked.reshape(-1, config.feat_channels)
    res_pre = None
    y = z
    if config.use_resblock:
        res_pre = linear_forward(z, params.res_w, params.res_b)
        y = z + relu_forward(res_pre)
    pooled = y.reshape(n, cell_count, config.feat_channels).mean(axis=1)
    desc = linear_forward(pooled, params.emb_w, params.emb_b)
    logits = linear_forward(desc, params.cls_w, params.cls_b)
    cache = {"mask": mask, "z": z, "res_pre": res_pre, "pooled": pooled,
             "desc": desc}
    return desc, logits, cache


def _naive_branch_backward(d_desc, d_logits, cache, params, config, d_fmap):
    """One branch's full backward; adds its map gradient to d_fmap."""
    n = d_desc.shape[0]
    cell_count = config.height * config.width
    gd, gw, gb = linear_backward(cache["desc"], params.cls_w, d_logits)
    params.cls_w.grad += gw
    params.cls_b.grad += gb
    d_desc = d_desc + gd
    d_pooled, gw, gb = linear_backward(cache["pooled"], params.emb_w, d_desc)
    params.emb_w.grad += gw
    params.emb_b.grad += gb
    d_y = np.repeat(d_pooled[:, None, :] / cell_count, cell_count, axis=1)
    d_y = d_y.reshape(-1, config.feat_channels)
    if config.use_resblock:
        d_res = naive_relu_backward(cache["res_pre"], d_y)
        d_z, gw, gb = linear_backward(cache["z"], params.res_w, d_res)
        params.res_w.grad += gw
        params.res_b.grad += gb
        d_z = d_z + d_y
    else:
        d_z = d_y
    d_masked = d_z.reshape(n, config.height, config.width, config.feat_channels)
    mask = cache["mask"]
    d_fmap += d_masked * mask if mask.ndim == 4 else \
        dropmask.apply_mask(d_masked, mask)


def naive_forward_train(images, ids, params, config, rng=None):
    """Branch-by-branch training step: every branch masks the encoder map and
    runs its own resblock, pool and backward.

    Returns (total loss, branch descriptors); gradients accumulate into
    ``params`` exactly as ``model.forward_train`` does.
    """
    images = np.asarray(images, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    n = images.shape[0]
    scheme = config.drop_scheme
    if isinstance(scheme, dropmask.RandomizedDrop):
        masks = [dropmask.baseline_mask(scheme, config.height, config.width,
                                        config.feat_channels, rng,
                                        batch_size=n)]
    else:
        masks = dropmask.branch_masks(scheme, config.height, config.width)
        if config.keep_branches is not None:
            masks = masks[:config.keep_branches]
    if config.use_global_branch:
        masks = masks + [np.ones((config.height, config.width))]

    cells = images.reshape(-1, config.in_channels)
    a1 = linear_forward(cells, params.enc_w1, params.enc_b1)
    h1 = relu_forward(a1)
    feat = linear_forward(h1, params.enc_w2, params.enc_b2)
    fmap = feat.reshape(n, config.height, config.width, config.feat_channels)

    descs, logits, caches = [], [], []
    for mask in masks:
        d, lg, cache = _naive_branch_forward(fmap, mask, params, config)
        descs.append(d)
        logits.append(lg)
        caches.append(cache)

    metric_loss, metric_grads = batch_elastic_loss(
        np.stack(descs), ids, config.eta, metric_weighting(config))
    ce_total = 0.0
    d_logits = []
    for lg in logits:
        ce, g = softmax_cross_entropy(lg, ids)
        ce_total += ce
        d_logits.append(g)

    d_fmap = np.zeros_like(fmap)
    for i, cache in enumerate(caches):
        _naive_branch_backward(metric_grads[i], d_logits[i], cache, params,
                               config, d_fmap)
    d_feat = d_fmap.reshape(-1, config.feat_channels)
    d_h1, gw, gb = linear_backward(h1, params.enc_w2, d_feat)
    params.enc_w2.grad += gw
    params.enc_b2.grad += gb
    d_a1 = naive_relu_backward(a1, d_h1)
    _, gw, gb = linear_backward(cells, params.enc_w1, d_a1)
    params.enc_w1.grad += gw
    params.enc_b1.grad += gb
    return metric_loss + ce_total, descs
