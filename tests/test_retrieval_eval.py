import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (dense_rerank, loop_rerank, naive_evaluate,
                     random_retrieval_instance, rerank_reference,
                     sorted_evaluate)

from elasticdrop import retrieval_eval
from elasticdrop.elastic_loss import sq_dist_matrix
from elasticdrop.errors import ConfigError, NumericError, ShapeError
from elasticdrop.retrieval_eval import (EvalMetrics, RetrievalSet,
                                        clamped_rerank_params, evaluate,
                                        k_reciprocal_rerank)


def make_set(desc, ids, cams):
    return RetrievalSet(descriptors=np.asarray(desc, dtype=float),
                        ids=np.asarray(ids), cameras=np.asarray(cams))


@st.composite
def tied_retrieval_cases(draw):
    """(query, gallery, ks, dist): few ids and cameras, so junk entries and
    queries without a positive are common, integer distances that tie,
    and ranks up to three past the gallery size."""
    nq, ng = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    labels = st.integers(0, 3)
    cams = st.integers(0, 2)
    query = make_set(np.zeros((nq, 1)), draw(arrays(np.int64, nq, elements=labels)),
                     draw(arrays(np.int64, nq, elements=cams)))
    gallery = make_set(np.zeros((ng, 1)), draw(arrays(np.int64, ng, elements=labels)),
                       draw(arrays(np.int64, ng, elements=cams)))
    dist = draw(arrays(np.int64, (nq, ng), elements=st.integers(0, 3)))
    ks = draw(st.lists(st.integers(1, ng + 3), min_size=1, max_size=4))
    return query, gallery, ks, dist.astype(float)


class TestEvaluate:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(tied_retrieval_cases())
    def test_counts_match_the_sorted_form(self, case):
        query, gallery, ks, dist = case
        assert (evaluate(query, gallery, ks=ks, dist=dist)
                == sorted_evaluate(query, gallery, ks, dist))

    def test_counts_match_the_sorted_form_on_clustered_data(self):
        # a one-camera gallery: its own camera's queries see only junk
        query, gallery = clustered_sets(np.random.default_rng(31), ng=20)
        dist = sq_dist_matrix(query.descriptors, gallery.descriptors)
        got = evaluate(query, gallery, ks=[1, 5, 10, 500], dist=dist)
        assert got == sorted_evaluate(query, gallery, [1, 5, 10, 500], dist)
        assert got.num_valid_queries == 40

    @staticmethod
    def crowded_case(rng, ng):
        """Queries of ids 0, 0 and 1 against a gallery that is four fifths
        id 0 across two cameras, with tied integer distances."""
        ids = (rng.random(ng) < 0.2).astype(np.int64)
        gallery = make_set(np.zeros((ng, 1)), ids, rng.integers(0, 2, ng))
        query = make_set(np.zeros((3, 1)), [0, 0, 1], [0, 1, 0])
        return query, gallery, rng.integers(0, 40, (3, ng)).astype(float)

    def test_many_positives_match_the_sorted_form(self):
        query, gallery, dist = self.crowded_case(np.random.default_rng(5), 3000)
        got = evaluate(query, gallery, ks=[1, 5, 100, 3000], dist=dist)
        assert got == sorted_evaluate(query, gallery, [1, 5, 100, 3000], dist)
        assert got.num_valid_queries == 3

    def test_many_positives_use_memory_linear_in_the_gallery(self):
        # one (positives, ng) boolean temporary would be about 1600 * 4000 bytes
        query, gallery, dist = self.crowded_case(np.random.default_rng(6), 4000)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            evaluate(query, gallery, ks=[1, 5], dist=dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry < 2_000_000

    def test_correct_first(self):
        query = make_set([[0.0, 0.0]], [1], [0])
        gallery = make_set([[0.1, 0.0], [5.0, 5.0]], [1, 2], [1, 1])
        m = evaluate(query, gallery, ks=[1, 2])
        assert m.rank_k[1] == 1.0 and m.mAP == 1.0
        assert m.num_valid_queries == 1

    def test_hand_ap_half(self):
        # filtered ranking: wrong, correct, wrong, correct -> AP 0.5
        query = make_set([[0.0]], [1], [0])
        gallery = make_set([[0.0]] * 4, [2, 1, 3, 1], [1, 1, 1, 1])
        dist = np.array([[1.0, 2.0, 3.0, 4.0]])
        m = evaluate(query, gallery, ks=[1, 2, 3, 4], dist=dist)
        assert m.mAP == pytest.approx(0.5, abs=1e-15)
        assert m.rank_k[1] == 0.0 and m.rank_k[2] == 1.0

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            q_desc, q_ids, q_cams, g_desc, g_ids, g_cams = \
                random_retrieval_instance(rng)
            ks = [1, 3, 5]
            m = evaluate(make_set(q_desc, q_ids, q_cams),
                         make_set(g_desc, g_ids, g_cams), ks=ks)
            ranks, mAP, counted = naive_evaluate(q_desc, q_ids, q_cams, g_desc,
                                                 g_ids, g_cams, ks)
            assert m.num_valid_queries == counted
            assert m.mAP == mAP
            for k in ks:
                assert m.rank_k[k] == ranks[k]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        q_desc, q_ids, q_cams, g_desc, g_ids, g_cams = \
            random_retrieval_instance(rng)
        before = evaluate(make_set(q_desc, q_ids, q_cams),
                          make_set(g_desc, g_ids, g_cams), ks=[1, 5])
        perm = rng.permutation(len(g_ids))
        after = evaluate(make_set(q_desc, q_ids, q_cams),
                         make_set(g_desc[perm], g_ids[perm], g_cams[perm]),
                         ks=[1, 5])
        assert before.mAP == after.mAP
        assert before.rank_k == after.rank_k

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        q_desc, q_ids, q_cams, g_desc, g_ids, g_cams = \
            random_retrieval_instance(rng)
        a = evaluate(make_set(q_desc, q_ids, q_cams),
                     make_set(g_desc, g_ids, g_cams), ks=[1, 5])
        b = evaluate(make_set(q_desc * 0.5, q_ids, q_cams),
                     make_set(g_desc * 0.5, g_ids, g_cams), ks=[1, 5])
        assert a.mAP == b.mAP and a.rank_k == b.rank_k

    def test_map_one_iff_positives_first(self):
        # positives strictly closer than all negatives -> mAP exactly 1
        query = make_set([[0.0]], [1], [0])
        gallery = make_set([[0.1], [0.2], [5.0], [6.0]], [1, 1, 2, 3],
                           [1, 1, 1, 1])
        assert evaluate(query, gallery, ks=[1]).mAP == 1.0
        # one negative ahead of the second positive -> mAP < 1
        gallery2 = make_set([[0.1], [3.0], [2.0], [6.0]], [1, 1, 2, 3],
                            [1, 1, 1, 1])
        assert evaluate(query, gallery2, ks=[1]).mAP < 1.0

    def test_junk_duplicate_never_affects(self):
        rng = np.random.default_rng(9)
        q_desc, q_ids, q_cams, g_desc, g_ids, g_cams = \
            random_retrieval_instance(rng)
        base = evaluate(make_set(q_desc, q_ids, q_cams),
                        make_set(g_desc, g_ids, g_cams), ks=[1, 5])
        # append an exact duplicate of query 0 sharing id and camera
        g2 = np.vstack([g_desc, q_desc[0]])
        gi2 = np.append(g_ids, q_ids[0])
        gc2 = np.append(g_cams, q_cams[0])
        withdup = evaluate(make_set(q_desc, q_ids, q_cams),
                           make_set(g2, gi2, gc2), ks=[1, 5])
        assert base.mAP == withdup.mAP and base.rank_k == withdup.rank_k

    def test_no_positive_queries_skipped(self):
        query = make_set([[0.0], [1.0]], [1, 9], [0, 0])
        gallery = make_set([[0.0], [2.0]], [1, 2], [1, 1])
        m = evaluate(query, gallery, ks=[1])
        assert m.num_valid_queries == 1

    def test_all_queries_skipped_gives_zeros(self):
        query = make_set([[0.0]], [5], [0])
        gallery = make_set([[0.0]], [9], [0])
        m = evaluate(query, gallery, ks=[1])
        assert m.num_valid_queries == 0 and m.mAP == 0.0

    def test_repeated_ks_scored_once(self):
        # a repeated k added each hit again: rank-1 read 2.0 for ks [1, 1]
        query = make_set([[0.0], [10.0]], [1, 2], [0, 0])
        gallery = make_set([[0.1], [10.1], [5.0]], [1, 2, 3], [1, 1, 1])
        once = evaluate(query, gallery, ks=[1, 2])
        assert once.rank_k[1] == 1.0
        assert evaluate(query, gallery, ks=[2, 1, 1, 2]) == once

    def test_empty_gallery_rejected(self):
        query = make_set([[0.0]], [1], [0])
        with pytest.raises(ConfigError):
            evaluate(query, RetrievalSet(np.zeros((0, 1)), np.zeros(0, int),
                                          np.zeros(0, int)), ks=[1])

    def test_dim_mismatch_rejected(self):
        query = make_set([[0.0, 1.0]], [1], [0])
        gallery = make_set([[0.0]], [1], [1])
        with pytest.raises(ShapeError):
            evaluate(query, gallery, ks=[1])

    def test_overflowing_distances_rejected(self):
        # both squared distances overflow to inf and would tie
        query = make_set([[0.0]], [1], [0])
        gallery = make_set([[2e200], [1e200]], [2, 1], [1, 1])
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                       match="finite"):
            evaluate(query, gallery, ks=(1,))

    @pytest.mark.parametrize("ks", [[0], [1, 0], [-1]])
    def test_non_positive_k_rejected(self, ks):
        query = make_set([[0.0]], [1], [0])
        gallery = make_set([[0.0]], [1], [1])
        with pytest.raises(ConfigError, match="ks must be positive integers"):
            evaluate(query, gallery, ks=ks)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2,), (3, 2)])
    def test_wrong_shaped_given_distances_rejected(self, shape):
        query = make_set([[0.0]], [1], [0])
        gallery = make_set([[0.0], [1.0]], [2, 1], [1, 1])
        with pytest.raises(ShapeError, match=re.escape("vs (1, 2)")):
            evaluate(query, gallery, ks=(1,), dist=np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_given_distances_rejected(self, bad):
        query = make_set([[0.0]], [1], [0])
        gallery = make_set([[0.0], [0.0]], [2, 1], [1, 1])
        with pytest.raises(NumericError, match="finite"):
            evaluate(query, gallery, ks=(1,), dist=np.array([[bad, 1.0]]))

    def test_rank_k_non_decreasing(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            q_desc, q_ids, q_cams, g_desc, g_ids, g_cams = \
                random_retrieval_instance(rng)
            ks = [1, 2, 3, 5, 10]
            m = evaluate(make_set(q_desc, q_ids, q_cams),
                         make_set(g_desc, g_ids, g_cams), ks=ks)
            vals = [m.rank_k[k] for k in ks]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert m.mAP <= m.rank_k[10] + 1e-12


def random_rerank_instance(rng, max_n=20):
    """Query and gallery descriptors of random sizes and width."""
    nq = int(rng.integers(2, max_n + 1))
    ng = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(2, 6))
    return rng.normal(size=(nq, d)), rng.normal(size=(ng, d))


class TestKReciprocalRerank:
    def test_lambda_one_returns_original(self):
        q, g = random_rerank_instance(np.random.default_rng(0))
        q_g = sq_dist_matrix(q, g)
        out = k_reciprocal_rerank(q_g, q, g, k1=4, k2=2, lambda_value=1.0)
        assert np.array_equal(out, q_g)

    def test_identical_descriptors_all_equal(self):
        nq, ng = 4, 6
        q_g = np.zeros((nq, ng))
        out = k_reciprocal_rerank(q_g, np.zeros((nq, 3)), np.zeros((ng, 3)),
                                  k1=3, k2=2, lambda_value=0.3)
        assert np.allclose(out, out[0, 0])
        order = np.argsort(out[0], kind="stable")
        assert np.array_equal(order, np.arange(ng))

    def test_matches_definition_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            args = rerank_blocks(*random_rerank_instance(rng, max_n=12))
            total = len(args[1]) + len(args[2])
            k1 = int(rng.integers(1, min(20, total - 1) + 1))
            k2 = int(rng.integers(1, min(6, total - 1) + 1))
            fast = k_reciprocal_rerank(*args, k1=k1, k2=k2, lambda_value=0.3)
            ref = rerank_reference(*oracle_blocks(*args), k1=k1, k2=k2,
                                   lambda_value=0.3)
            assert np.abs(fast - ref).max() < 1e-9

    def test_k_out_of_range_rejected(self):
        q_g, q, g = np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((3, 2))
        with pytest.raises(ConfigError):
            k_reciprocal_rerank(q_g, q, g, k1=5, k2=2)
        with pytest.raises(ConfigError):
            k_reciprocal_rerank(q_g, q, g, k1=2, k2=5)

    @pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
    def test_lambda_outside_unit_interval_rejected(self, lam):
        q_g, q, g = np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((3, 2))
        with pytest.raises(ConfigError, match=re.escape("outside [0, 1]")):
            k_reciprocal_rerank(q_g, q, g, k1=2, k2=1, lambda_value=lam)

    def test_inconsistent_blocks_rejected(self):
        # gallery rows, query rows, descriptor widths, a 1-d query
        for q_shape, g_shape in [((2, 2), (4, 2)), ((3, 2), (3, 2)),
                                 ((2, 2), (3, 1)), ((2,), (3, 2))]:
            with pytest.raises(ShapeError, match="do not agree"):
                k_reciprocal_rerank(np.zeros((2, 3)), np.zeros(q_shape),
                                    np.zeros(g_shape))

    def test_empty_gallery_rejected(self):
        with pytest.raises(ConfigError, match="gallery is empty"):
            k_reciprocal_rerank(np.zeros((3, 0)), np.zeros((3, 2)),
                                np.zeros((0, 2)), k1=1, k2=1)

    def test_empty_query_gives_empty_result(self):
        g = np.arange(8.0).reshape(4, 2)
        out = k_reciprocal_rerank(np.zeros((0, 4)), np.zeros((0, 2)), g,
                                  k1=2, k2=2)
        assert out.shape == (0, 4) and out.dtype == np.float64

    def test_overflowing_self_distance_raises(self):
        # q_g does not vouch for the descriptors: the query-query distance
        # of these finite descriptors overflows, and the kernel rejects it
        q = np.array([[1e200], [-1e200]])
        g = np.array([[0.0], [1.0], [2.0]])
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                       match="must be finite"):
            k_reciprocal_rerank(np.zeros((2, 3)), q, g, k1=2, k2=2)

    def test_improves_noisy_ranking(self):
        # clustered ids: re-ranking should not hurt mAP on an easy instance
        rng = np.random.default_rng(3)
        centers = rng.normal(scale=4.0, size=(4, 3))
        q_desc = np.vstack([centers[i] + rng.normal(scale=0.8, size=3)
                            for i in range(4) for _ in range(3)])
        g_desc = np.vstack([centers[i] + rng.normal(scale=0.8, size=3)
                            for i in range(4) for _ in range(5)])
        q_ids = np.repeat(np.arange(4), 3)
        g_ids = np.repeat(np.arange(4), 5)
        q_cams = np.zeros(12, dtype=int)
        g_cams = np.ones(20, dtype=int)
        base = evaluate(make_set(q_desc, q_ids, q_cams),
                        make_set(g_desc, g_ids, g_cams), ks=[1])
        k1, k2 = clamped_rerank_params(12, 20, 20, 6)
        dist = k_reciprocal_rerank(sq_dist_matrix(q_desc, g_desc), q_desc,
                                   g_desc, k1=k1, k2=k2)
        rr = evaluate(make_set(q_desc, q_ids, q_cams),
                      make_set(g_desc, g_ids, g_cams), ks=[1], dist=dist)
        assert rr.mAP >= base.mAP - 0.05


def rerank_peak_bytes(args) -> int:
    """tracemalloc's peak of one default re-rank call beyond its entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        k_reciprocal_rerank(*args, k1=20, k2=6)
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def clustered_sets(rng, nq=60, ng=180, n_ids=20, dim=8):
    """Query and gallery sets drawn around per-identity centres."""
    centers = rng.normal(scale=2.0, size=(n_ids, dim))

    def draw(n):
        ids = np.arange(n) % n_ids
        cams = np.arange(n) // n_ids % 3
        return make_set(centers[ids] + rng.normal(size=(n, dim)), ids, cams)

    return draw(nq), draw(ng)


def rerank_blocks(q_desc, g_desc):
    """``k_reciprocal_rerank``'s arguments: the query-gallery block and the
    descriptors."""
    return sq_dist_matrix(q_desc, g_desc), q_desc, g_desc


def oracle_blocks(q_g, q_desc, g_desc):
    """The oracles' arguments for the same call: the query-gallery block as
    given, and the query-query and gallery-gallery blocks of the
    descriptors."""
    return q_g, sq_dist_matrix(q_desc, q_desc), sq_dist_matrix(g_desc, g_desc)


def self_block_bytes(query, gallery) -> int:
    """Bytes of the two self-distance blocks the re-rank computes."""
    return 8 * (len(query) ** 2 + len(gallery) ** 2)


@st.composite
def integer_rerank_cases(draw):
    """Small integer-valued descriptors, so distances tie often."""
    nq, ng = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    dim = draw(st.integers(1, 3))
    values = st.integers(-2, 2)
    q = draw(arrays(np.int64, (nq, dim), elements=values)).astype(float)
    g = draw(arrays(np.int64, (ng, dim), elements=values)).astype(float)
    total = nq + ng
    return (q, g, draw(st.integers(1, total - 1)),
            draw(st.integers(1, total - 1)), draw(st.floats(0.0, 1.0)))


@st.composite
def blocked_rerank_cases(draw):
    """``integer_rerank_cases`` as re-rank arguments, with a nan at one entry
    of the query-gallery block in some cases, and a row-block size in
    [2, n). A nan descriptor raises instead, as
    ``test_ties_nan_and_k2_edges`` checks."""
    q, g, k1, k2, lam = draw(integer_rerank_cases())
    args = rerank_blocks(q, g)
    if draw(st.booleans()):
        args[0].flat[draw(st.integers(0, args[0].size - 1))] = np.nan
    return args, k1, k2, lam, draw(st.integers(2, len(q) + len(g) - 1))


class TestSparseRerank:
    """The sparse routine against the dense form it replaced and the
    step-by-step definition."""

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_matches_dense_oracle_on_clustered_data(self, lam):
        query, gallery = clustered_sets(np.random.default_rng(11))
        args = rerank_blocks(query.descriptors, gallery.descriptors)
        fast = k_reciprocal_rerank(*args, k1=20, k2=6, lambda_value=lam)
        dense = dense_rerank(*oracle_blocks(*args), k1=20, k2=6,
                             lambda_value=lam)
        assert np.abs(fast - dense).max() < 1e-12
        assert (evaluate(query, gallery, ks=[1, 5, 10], dist=fast).to_dict()
                == evaluate(query, gallery, ks=[1, 5, 10], dist=dense).to_dict())

    @pytest.mark.parametrize("values, k1, k2", [
        (3, 1, 5), (3, 3, 8), (3, 6, 20), (1, 5, 10)],
        ids=["k1_1", "k1_3", "k1_6", "all_zero"])
    def test_ties_follow_the_stable_order(self, values, k1, k2):
        # integer descriptors below ``values`` (all zero for 1), so distances
        # tie; k2 > k1 + 1, so query expansion reads ranks past R(i, k1)
        rng = np.random.default_rng(5)
        q = rng.integers(0, values, size=(12, 2)).astype(float)
        g = rng.integers(0, values, size=(28, 2)).astype(float)
        args = rerank_blocks(q, g)
        fast = k_reciprocal_rerank(*args, k1=k1, k2=k2, lambda_value=0.3)
        ref = rerank_reference(*oracle_blocks(*args), k1=k1, k2=k2,
                               lambda_value=0.3)
        assert np.abs(fast - ref).max() < 1e-9

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(integer_rerank_cases())
    def test_matches_definition_property(self, case):
        q, g, k1, k2, lam = case
        args = rerank_blocks(q, g)
        fast = k_reciprocal_rerank(*args, k1=k1, k2=k2, lambda_value=lam)
        ref = rerank_reference(*oracle_blocks(*args), k1=k1, k2=k2,
                               lambda_value=lam)
        assert np.abs(fast - ref).max() < 1e-9


class TestStreamedRows:
    """The pooled (n, n) matrix is read in row blocks and never built."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(blocked_rerank_cases())
    def test_block_size_does_not_change_the_result(self, case):
        args, k1, k2, lam, drawn = case
        n = len(args[1]) + len(args[2])
        outs = []
        for size in (1, drawn, n):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(retrieval_eval, "_RERANK_BLOCK_ROWS", size)
                outs.append(k_reciprocal_rerank(*args, k1=k1, k2=k2,
                                                lambda_value=lam))
        assert all(out.tobytes() == outs[0].tobytes() for out in outs)
        # the dense form normalizes by the pooled matrix's max, so a nan in
        # q_g leaves every distance unscaled there too
        np.testing.assert_allclose(
            outs[0], dense_rerank(*oracle_blocks(*args), k1=k1, k2=k2,
                                  lambda_value=lam),
            rtol=0, atol=1e-12)

    def test_memory_below_one_pooled_matrix(self):
        # the bound is one pooled (n, n) float64 matrix, never built whole,
        # beyond the two self-distance blocks the call makes as its inputs
        query, gallery = clustered_sets(np.random.default_rng(21), nq=250,
                                        ng=750)
        args = rerank_blocks(query.descriptors, gallery.descriptors)
        n = len(query) + len(gallery)
        peak = rerank_peak_bytes(args)
        assert peak - self_block_bytes(query, gallery) < 8 * n * n


class TestBlockedRerank:
    """The block passes against the per-point form they replaced, bit for
    bit, at every row-block size."""

    @staticmethod
    def assert_matches_loop(args, k1, k2, lam, sizes):
        ref = loop_rerank(*oracle_blocks(*args), k1=k1, k2=k2,
                          lambda_value=lam).tobytes()
        for size in sizes:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(retrieval_eval, "_RERANK_BLOCK_ROWS", size)
                out = k_reciprocal_rerank(*args, k1=k1, k2=k2,
                                          lambda_value=lam)
            assert out.tobytes() == ref, size

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(blocked_rerank_cases())
    def test_matches_the_per_point_form(self, case):
        args, k1, k2, lam, drawn = case
        n = len(args[1]) + len(args[2])
        self.assert_matches_loop(args, k1, k2, lam, (1, drawn, n))

    @pytest.mark.parametrize("values, k1, k2", [
        (3, 1, 5), (3, 3, 8), (3, 6, 20), (1, 5, 10), (3, 4, 1), (1, 7, 1)],
        ids=["k1_1", "k1_3", "k1_6", "all_zero", "k2_1", "all_zero_k2_1"])
    @pytest.mark.parametrize("nan_block", [None, 0, 1, 2])
    def test_ties_nan_and_k2_edges(self, values, k1, k2, nan_block):
        # integer descriptors below ``values`` (all zero for 1) tie; k2 = 1
        # skips the query expansion, k2 > k1 + 1 reads ranks past R(i, k1).
        # nan_block indexes the arguments (q_g, query, gallery): a nan in q_g
        # leaves every distance unscaled, a nan descriptor raises, since its
        # self-distance block would hold a nan
        rng = np.random.default_rng(8)
        q = rng.integers(0, values, size=(12, 2)).astype(float)
        g = rng.integers(0, values, size=(28, 2)).astype(float)
        args = rerank_blocks(q, g)
        if nan_block is not None:
            args[nan_block][1, 1] = np.nan
        if nan_block in (1, 2):
            with pytest.raises(NumericError, match="must be finite"):
                k_reciprocal_rerank(*args, k1=k1, k2=k2, lambda_value=0.3)
            return
        self.assert_matches_loop(args, k1, k2, 0.3, (1, 7, 40))

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_matches_on_clustered_data(self, lam):
        query, gallery = clustered_sets(np.random.default_rng(11))
        args = rerank_blocks(query.descriptors, gallery.descriptors)
        self.assert_matches_loop(args, 20, 6, lam, (1, 16, 64, 240))

    def test_memory_below_the_per_point_form(self):
        # the per-point form peaked at 4.53 MB here beyond its input blocks;
        # 5 MB pins the block passes' temporaries below one pooled matrix's
        # 8 MB by a margin
        query, gallery = clustered_sets(np.random.default_rng(21), nq=250,
                                        ng=750)
        args = rerank_blocks(query.descriptors, gallery.descriptors)
        peak = rerank_peak_bytes(args)
        assert peak - self_block_bytes(query, gallery) < 5_000_000

    def test_memory_beyond_the_self_blocks(self):
        # the self-distance blocks are freed before the query expansion and
        # the Jaccard step, which then fit in their memory: 0.97 MB beyond
        # them here, against 4.17 MB while both blocks stayed alive
        query, gallery = clustered_sets(np.random.default_rng(21), nq=250,
                                        ng=750)
        args = rerank_blocks(query.descriptors, gallery.descriptors)
        peak = rerank_peak_bytes(args)
        assert peak - self_block_bytes(query, gallery) < 2_000_000

    def test_later_steps_peak_below_steps_1_to_3(self):
        # the re-rank peaks in steps 1-3, beside the 5.0 MB of self-distance
        # blocks: 5.97 MB here. Each later step, traced from its own entry,
        # stays below that: 1.66 MB in the query expansion, 4.32 MB in the
        # Jaccard step
        query, gallery = clustered_sets(np.random.default_rng(21), nq=250,
                                        ng=750)
        args = rerank_blocks(query.descriptors, gallery.descriptors)
        peaks_before, step_peaks = [], {}

        def traced(name):
            real_step = getattr(retrieval_eval, name)

            def step(*step_args, **kwargs):
                entry, peak = tracemalloc.get_traced_memory()
                peaks_before.append(peak)
                tracemalloc.reset_peak()
                out = real_step(*step_args, **kwargs)
                step_peaks[name] = tracemalloc.get_traced_memory()[1] - entry
                return out
            return step

        with pytest.MonkeyPatch.context() as mp:
            for name in ("_mean_rows", "_jaccard_mix"):
                mp.setattr(retrieval_eval, name, traced(name))
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                k_reciprocal_rerank(*args, k1=20, k2=6)
            finally:
                tracemalloc.stop()
        first_steps = peaks_before[0] - start
        assert first_steps > self_block_bytes(query, gallery)
        assert step_peaks["_mean_rows"] < first_steps
        assert step_peaks["_jaccard_mix"] < first_steps

    @pytest.mark.parametrize("k2, step", [(6, "_mean_rows"), (1, "_jaccard_mix")])
    def test_self_blocks_freed_before_the_later_steps(self, k2, step):
        # k2 = 1 skips the query expansion, so the Jaccard step comes first
        q, g = random_rerank_instance(np.random.default_rng(9))
        original = retrieval_eval.sq_dist_matrix
        self_blocks, alive_at_entry = [], []

        def tracking_sq_dist_matrix(a, b):
            out = original(a, b)
            if b is a:
                self_blocks.append(weakref.ref(out))
            return out

        def entered(*args, **kwargs):
            alive_at_entry.append([ref() is not None for ref in self_blocks])
            return real_step(*args, **kwargs)

        real_step = getattr(retrieval_eval, step)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval_eval, "sq_dist_matrix", tracking_sq_dist_matrix)
            mp.setattr(retrieval_eval, step, entered)
            k_reciprocal_rerank(*rerank_blocks(q, g), k1=4, k2=k2)
        assert len(self_blocks) == 2
        assert alive_at_entry == [[False, False]]


class TestClampedParams:
    def test_clamps_to_pool(self):
        assert clamped_rerank_params(3, 4, 20, 6) == (6, 6)
        assert clamped_rerank_params(100, 100, 20, 6) == (20, 6)


class TestRetrievalSet:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            RetrievalSet(np.zeros((2, 3)), np.zeros(3, int), np.zeros(2, int))

    def test_finite_validation(self):
        # the set holds what it is given; the distance kernel rejects a
        # non-finite descriptor on every path that reads one
        bad = make_set([[0.0], [np.nan], [1.0]], [0, 1, 1], [0, 0, 0])
        good = make_set([[0.0], [1.0], [2.0]], [0, 1, 1], [1, 1, 1])
        with pytest.raises(NumericError, match="must be finite"):
            evaluate(good, bad)
        with pytest.raises(NumericError, match="must be finite"):
            k_reciprocal_rerank(np.zeros((3, 3)), good.descriptors,
                                bad.descriptors, k1=2, k2=2)


class TestEvalMetrics:
    def test_to_dict(self):
        m = EvalMetrics({1: 0.5, 5: 0.75}, 0.6, 10)
        d = m.to_dict()
        assert d["rank"] == {"1": 0.5, "5": 0.75}
        assert d["mAP"] == 0.6 and d["num_valid_queries"] == 10
