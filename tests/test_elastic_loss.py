from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (add_at_scatter, mined_weights, naive_cross_sq_dist,
                     naive_hard_mine, naive_metric_loss, naive_pairwise_sq_dist)

from elasticdrop import elastic_loss
from elasticdrop.elastic_loss import (batch_elastic_loss, batch_hard_mine,
                                      batch_hard_triplet_loss, elastic_weight,
                                      sq_dist_matrix)
from elasticdrop.errors import (ConfigError, DegenerateBatchError, NumericError,
                               ShapeError)
from elasticdrop.numerics import finite_diff_grad, max_rel_error


def random_batch(rng, n=16, d=8, n_ids=4):
    """(N, D) descriptors and N ids with at least two distinct ids."""
    ids = rng.integers(0, n_ids, size=n)
    ids[0], ids[1] = 0, 1
    return rng.normal(size=(n, d)), ids


def pairwise(vectors):
    return sq_dist_matrix(vectors, vectors)


def single(loss_fn, vectors, ids, *args):
    """A loss over one (N, D) branch: the stack of one, and its (N, D) grad."""
    loss, grads = loss_fn(np.asarray(vectors, dtype=float)[None], ids, *args)
    return loss, grads[0]


class TestPairwiseSqDist:
    def test_identical_rows_zero(self):
        assert not pairwise(np.array([[1.0, 2.0], [1.0, 2.0]])).any()

    def test_one_dimensional(self):
        dist = pairwise(np.array([[0.0], [3.0]]))
        assert dist[0, 1] == 9.0 and dist[1, 0] == 9.0
        assert dist[0, 0] == 0.0 and dist[1, 1] == 0.0

    def test_equals_naive_double_loop_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, d = int(rng.integers(2, 12)), int(rng.integers(1, 9))
            vectors, _ = random_batch(rng, n=n, d=d)
            assert np.array_equal(pairwise(vectors),
                                  naive_pairwise_sq_dist(vectors))

    def test_symmetric_zero_diagonal(self):
        vectors, _ = random_batch(np.random.default_rng(5))
        dist = pairwise(vectors)
        assert np.array_equal(dist, dist.T)
        assert not np.diagonal(dist).any()


def block_rows(m):
    """Rows of ``a`` per block of ``sq_dist_matrix`` against m columns."""
    return max(1, elastic_loss._SQ_DIST_BLOCK_BYTES // (8 * max(m, 1)))


def assert_matches_naive(a, b):
    """Bit-identical to the per-pair loop, with both inputs left as given."""
    a_before, b_before = np.array(a, copy=True), np.array(b, copy=True)
    dist = sq_dist_matrix(a, b)
    assert dist.dtype == np.float64 and dist.shape == (len(a), len(b))
    assert np.array_equal(dist, naive_cross_sq_dist(a, b))
    assert np.array_equal(a, a_before) and np.array_equal(b, b_before)


@st.composite
def blocked_cases(draw):
    """(a, b, block bytes): small sets, any block height from one row up."""
    n, m = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    dim = draw(st.integers(0, 12))
    if draw(st.booleans()):
        values = st.integers(-2, 2)  # ties everywhere
    else:
        values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    a = draw(arrays(np.float64, (n, dim), elements=values))
    b = draw(arrays(np.float64, (m, dim), elements=values))
    return a, b, draw(st.integers(1, 10)) * 8 * max(m, 1)


@st.composite
def overflow_cases(draw):
    """(a, b): small sets mixing small values with magnitudes up to 1e160,
    so that some squared distances overflow."""
    n, m, dim = (draw(st.integers(0, 6)) for _ in range(3))
    values = st.one_of(
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        st.floats(-1e160, 1e160, allow_nan=False, allow_infinity=False))
    return (draw(arrays(np.float64, (n, dim), elements=values)),
            draw(arrays(np.float64, (m, dim), elements=values)))


class TestSqDistBlocks:
    """The row-blocked kernel against the naive per-pair loop."""

    @pytest.mark.parametrize("m, full_blocks, extra_rows", [
        (elastic_loss._SQ_DIST_BLOCK_BYTES // 8 + 1, 3, 0),
        (1350, 2, 5),
        (1350, 2, 0),
        (40, 0, 7),
    ], ids=["one_row_blocks", "ragged_last_block", "full_blocks_only",
            "single_block"])
    def test_block_layouts(self, m, full_blocks, extra_rows):
        # 9 features: numpy's pairwise summation regroups sums of 8 or more
        # terms, so a reduction over features would show here
        n = full_blocks * block_rows(m) + extra_rows
        rng = np.random.default_rng(n)
        assert_matches_naive(rng.normal(size=(n, 9)), rng.normal(size=(m, 9)))

    @pytest.mark.parametrize("n, m, dim", [
        (7, 3, 32), (3, 7, 32), (0, 5, 3), (5, 0, 3), (0, 0, 3), (4, 6, 0)])
    def test_unequal_and_empty_sets(self, n, m, dim):
        rng = np.random.default_rng(n * 10 + m)
        assert_matches_naive(rng.normal(size=(n, dim)),
                             rng.normal(size=(m, dim)))

    def test_strided_fortran_and_int_inputs(self):
        rng = np.random.default_rng(7)
        wide = rng.normal(size=(2 * 60, 3 * 10))
        strided = wide[::2, ::3]
        assert not strided.flags.c_contiguous
        fortran = np.asfortranarray(rng.normal(size=(50, 10)))
        ints = rng.integers(-5, 6, size=(30, 10))
        assert_matches_naive(strided, fortran)
        assert_matches_naive(fortran, strided)
        assert_matches_naive(ints, strided)
        assert_matches_naive(ints, ints[::-1])

    def test_tie_heavy_integer_data(self):
        # values in {-1, 0, 1}: most distances tie, across ragged blocks
        rng = np.random.default_rng(9)
        m = 1350
        a = rng.integers(-1, 2, size=(block_rows(m) + 3, 3)).astype(float)
        b = rng.integers(-1, 2, size=(m, 3)).astype(float)
        assert_matches_naive(a, b)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(blocked_cases())
    def test_matches_naive_property(self, case):
        a, b, block_bytes = case
        with mock.patch.object(elastic_loss, "_SQ_DIST_BLOCK_BYTES",
                               block_bytes):
            assert_matches_naive(a, b)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(overflow_cases())
    def test_finite_or_numeric_error_property(self, case):
        a, b = case
        with np.errstate(over="ignore"):
            naive = naive_cross_sq_dist(a, b)
            if np.isfinite(naive).all():
                assert_matches_naive(a, b)
            else:
                with pytest.raises(NumericError, match="finite"):
                    sq_dist_matrix(a, b)


def full_kernel(a):
    """Self-distances of (n, D) ``a`` from one unmirrored kernel call."""
    return elastic_loss._sq_dists(a[None], a[None])[0]


class TestMirroredSelfDistances:
    """``sq_dist_matrix(a, a)`` runs row tiles of the kernel from the
    diagonal on and mirrors them; every byte matches the full kernel."""

    TILE = 4

    @pytest.mark.parametrize("n", [0, 1, TILE - 1, TILE, TILE + 1,
                                   3 * TILE + 5])
    def test_tiles_match_the_full_kernel(self, n):
        # the tile is the kernel's block height at n columns, TILE here
        a = np.random.default_rng(n).normal(size=(n, 9))
        with mock.patch.object(elastic_loss, "_SQ_DIST_BLOCK_BYTES",
                               8 * max(n, 1) * self.TILE):
            assert elastic_loss._block_rows(n) == self.TILE
            got = sq_dist_matrix(a, a)
            want = full_kernel(a)
        assert got.shape == (n, n) and got.tobytes() == want.tobytes()
        assert got.tobytes() == sq_dist_matrix(a, a.copy()).tobytes()

    @pytest.mark.parametrize("n", [1, 23, 24, 25, 1350])
    def test_default_tiles_match_the_full_kernel(self, n):
        # 1350 rows tile by 24: the rerank_eval gallery's self-distances
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, 32))
        assert sq_dist_matrix(a, a).tobytes() == full_kernel(a).tobytes()
        ties = rng.integers(-1, 2, size=(n, 3)).astype(float)
        assert (sq_dist_matrix(ties, ties).tobytes()
                == full_kernel(ties).tobytes())

    def test_loss_stack_matches_the_tiles(self):
        # the loss keeps one stacked call over its (B, N, D) branches
        vectors = np.random.default_rng(41).normal(size=(4, 32, 16))
        stacked = elastic_loss._sq_dists(vectors, vectors)
        want = np.stack([sq_dist_matrix(v, v) for v in vectors])
        assert stacked.tobytes() == want.tobytes()

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 13), (9, 13)])
    def test_overflow_raises_in_any_tile(self, i, j):
        # rows i and j overflow only against each other: inside the first
        # tile, or in the tile of row i, mirrored into row j's
        a = np.zeros((17, 2))
        a[i, 0], a[j, 0] = 1e154, -1e154
        with mock.patch.object(elastic_loss, "_SQ_DIST_BLOCK_BYTES",
                               8 * 17 * self.TILE):
            with np.errstate(over="ignore"):
                with pytest.raises(NumericError, match="must be finite"):
                    sq_dist_matrix(a, a)


@st.composite
def stacked_sets(draw):
    """(B, n, D) descriptors at one drawn scale, and a block size in bytes
    from one row of the whole stack up."""
    b, n, dim = draw(st.integers(1, 5)), draw(st.integers(2, 40)), \
        draw(st.integers(1, 70))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    vectors = np.random.default_rng(seed).normal(size=(b, n, dim)) * scale
    return vectors, draw(st.integers(1, 50)) * 8 * b * n


class TestStackedSqDists:
    """The (B, n, m) kernel against one ``sq_dist_matrix`` call per set."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(stacked_sets())
    def test_matches_per_set_calls(self, case):
        vectors, block_bytes = case
        want = np.stack([sq_dist_matrix(v, v) for v in vectors])
        got = elastic_loss._sq_dists(vectors, vectors)
        assert got.tobytes() == want.tobytes()
        with mock.patch.object(elastic_loss, "_SQ_DIST_BLOCK_BYTES",
                               block_bytes):
            blocked = elastic_loss._sq_dists(vectors, vectors)
        assert blocked.tobytes() == want.tobytes()

    def test_unequal_sets(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(3, 7, 9)), rng.normal(size=(3, 5, 9))
        got = elastic_loss._sq_dists(a, b)
        assert got.shape == (3, 7, 5)
        for k in range(3):
            assert np.array_equal(got[k], naive_cross_sq_dist(a[k], b[k]))

    @pytest.mark.parametrize("value, overflows", [(9e153, False),
                                                  (1e154, True)])
    def test_loss_raises_on_overflow(self, value, overflows):
        # every squared difference is finite; only the middle branch's sum
        # over its two features passes the float maximum
        vectors = np.zeros((3, 4, 2))
        vectors[:, 1] = 1.0
        vectors[:, 3] = 2.0
        vectors[1, 2] = value
        ids = np.array([0, 0, 1, 1])
        with np.errstate(over="ignore"):
            if overflows:
                with pytest.raises(NumericError,
                                   match="squared distances must be finite"):
                    batch_elastic_loss(vectors, ids)
            else:
                assert np.isfinite(batch_elastic_loss(vectors, ids)[0])


@st.composite
def shared_hard_rows(draw):
    """(B, N, D) descriptors and N ids in which one row of each branch is
    the hardest positive or negative of several anchors: a far member of
    id 0 for its mates, and a member of id 1 near every id-0 anchor."""
    k, dim = draw(st.integers(3, 6)), draw(st.integers(1, 9))
    others = draw(st.integers(2, 5))
    b = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ids = np.concatenate([np.zeros(k, int), np.ones(others, int)])
    vectors = rng.normal(size=(b, k + others, dim))
    vectors[:, k - 1] += 20.0  # id 0's far member
    vectors[:, k] = vectors[:, :k - 1].mean(axis=1) + 0.01  # id 1's near one
    weighting = draw(st.sampled_from(["sigmoid", "detached", 1.0]))
    return vectors, ids, weighting


class TestGradientScatter:
    """The bincount scatter against ``np.add.at``, bit for bit."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(shared_hard_rows())
    def test_matches_add_at(self, case):
        vectors, ids, weighting = case
        calls = []

        def recording(rows, updates, count):
            out = scatter(rows, updates, count)
            calls.append((rows, updates, count, out))
            return out

        scatter = elastic_loss._scatter_rows
        with mock.patch.object(elastic_loss, "_scatter_rows", recording):
            _, grads = batch_elastic_loss(vectors, ids, 3.0, weighting)
        (rows, updates, count, out), = calls
        # some row takes updates from more than one anchor
        assert np.bincount(rows).max() > 2
        assert out.tobytes() == add_at_scatter(rows, updates, count).tobytes()
        assert grads.tobytes() == out.reshape(vectors.shape).tobytes()

    @pytest.mark.parametrize("count, dim", [(4, 3), (0, 2), (3, 0)])
    def test_no_updates_gives_float_zeros(self, count, dim):
        out = elastic_loss._scatter_rows(np.zeros(0, np.intp),
                                         np.zeros((0, dim)), count)
        assert out.dtype == np.float64 and out.shape == (count, dim)
        assert not out.any()


class TestBatchHardMine:
    def test_hand_example(self):
        hard = batch_hard_mine(pairwise(np.array([[0.0], [1.0], [5.0], [5.5]])),
                               [0, 0, 1, 1])
        assert hard.max_pos_dist[0] == 1.0
        assert hard.hardest_pos_index[0] == 1
        assert hard.min_neg_dist[0] == 25.0
        assert hard.hardest_neg_index[0] == 2
        assert hard.valid.all()

    def test_all_same_id_invalid(self):
        hard = batch_hard_mine(pairwise(np.arange(6.0).reshape(3, 2)), [7, 7, 7])
        assert not hard.valid.any()
        assert (hard.hardest_pos_index == -1).all()

    def test_two_per_id_forced_positive(self):
        hard = batch_hard_mine(pairwise(np.array([[0.0], [2.0], [9.0], [9.1]])),
                               [0, 0, 1, 1])
        assert hard.hardest_pos_index[0] == 1
        assert hard.hardest_pos_index[1] == 0
        assert hard.hardest_pos_index[2] == 3

    def test_ties_break_to_lowest_index(self):
        # anchor 0 equidistant from both negatives and both positives
        vectors = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0],
                            [0.0, 2.0], [0.0, -2.0]])
        hard = batch_hard_mine(pairwise(vectors), [0, 0, 0, 1, 1])
        assert hard.hardest_pos_index[0] == 1
        assert hard.hardest_neg_index[0] == 3

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (4,), (2, 4, 3)])
    def test_dist_ids_mismatch_rejected(self, shape):
        with pytest.raises(ShapeError, match="batch_hard_mine: dist"):
            batch_hard_mine(np.zeros(shape), [0, 0, 1, 1])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            vectors, ids = random_batch(rng, n=n, d=int(rng.integers(1, 6)),
                                        n_ids=int(rng.integers(2, 5)))
            dist = pairwise(vectors)
            hard = batch_hard_mine(dist, ids)
            for a, ref in enumerate(naive_hard_mine(dist, ids)):
                assert hard.valid[a] == ref["valid"]
                if ref["valid"]:
                    assert hard.max_pos_dist[a] == ref["max_pos"]
                    assert hard.min_neg_dist[a] == ref["min_neg"]
                    assert hard.hardest_pos_index[a] == ref["pos_idx"]
                    assert hard.hardest_neg_index[a] == ref["neg_idx"]

    def test_scaling_leaves_indices(self):
        rng = np.random.default_rng(23)
        vectors, ids = random_batch(rng)
        hard = batch_hard_mine(pairwise(vectors), ids)
        hard2 = batch_hard_mine(pairwise(vectors * 2.7), ids)
        assert np.array_equal(hard.hardest_pos_index, hard2.hardest_pos_index)
        assert np.array_equal(hard.hardest_neg_index, hard2.hardest_neg_index)

    def test_stack_mines_each_matrix(self):
        # (B, N, N) mining equals mining each matrix alone, ties included
        rng = np.random.default_rng(19)
        ids = np.array([0, 0, 1, 1, 1, 2, 0, 2])
        stack = np.stack([pairwise(rng.integers(-1, 2, size=(8, 2)).astype(float))
                          for _ in range(4)])
        hard = batch_hard_mine(stack, ids)
        for b, dist in enumerate(stack):
            one = batch_hard_mine(dist, ids)
            for field in ("max_pos_dist", "min_neg_dist", "hardest_pos_index",
                          "hardest_neg_index", "valid"):
                assert np.array_equal(getattr(hard, field)[b],
                                      getattr(one, field))


class TestHardTripletLoss:
    def test_satisfied_margin_zero(self):
        loss, grads = single(batch_hard_triplet_loss,
                             [[0.0], [0.1], [50.0], [50.1]], [0, 0, 1, 1], 3.0)
        assert loss == 0.0
        assert not grads.any()

    def test_hinge_value(self):
        # one valid anchor pattern: max_pos 4, min_neg 1 per anchor 0
        vectors, ids = np.array([[0.0], [2.0], [1.0], [9.0]]), [0, 0, 1, 1]
        hard = batch_hard_mine(pairwise(vectors), ids)
        assert hard.max_pos_dist[0] == 4.0 and hard.min_neg_dist[0] == 1.0
        loss, _ = single(batch_hard_triplet_loss, vectors, ids, 3.0)
        # all four anchors contribute; anchor 0's hinge is eta + 4 - 1 = 6
        per_anchor = [max(0.0, 3.0 + hard.max_pos_dist[a] - hard.min_neg_dist[a])
                      for a in range(4)]
        assert loss == pytest.approx(np.mean(per_anchor), rel=1e-12)
        assert per_anchor[0] == 6.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            vectors, ids = random_batch(rng)
            _, grads = single(batch_hard_triplet_loss, vectors, ids, 3.0)
            fd = finite_diff_grad(
                lambda v: single(batch_hard_triplet_loss, v, ids, 3.0)[0],
                vectors)
            assert max_rel_error(grads, fd) < 1e-6

    def test_degenerate_batch_raises(self):
        with pytest.raises(DegenerateBatchError):
            single(batch_hard_triplet_loss, [[0.0], [1.0]], [3, 3])


class TestElasticWeight:
    def test_zero_max_pos(self):
        assert elastic_weight(0.0, 17.0) == 0.5

    def test_frozen_value(self):
        w = elastic_weight(2.0, 1.0)
        assert w == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_asymptote_below_one(self):
        w = elastic_weight(1e12, 0.5)
        assert 0.5 <= w < 1.0
        assert w > 0.999999

    def test_bound_over_random_pairs(self):
        rng = np.random.default_rng(0)
        mp = rng.uniform(0.0, 100.0, size=100_000)
        mn = rng.uniform(0.0, 100.0, size=100_000)
        w = elastic_weight(mp, mn)
        assert (w >= 0.5).all() and (w < 1.0).all()

    def test_monotonic_in_max_pos(self):
        mps = np.linspace(0.0, 20.0, 50)
        for mn in (0.0, 1.0, 5.0):
            ws = elastic_weight(mps, np.full_like(mps, mn))
            assert (np.diff(ws) > 0).all()

    def test_monotonic_in_min_neg(self):
        mns = np.linspace(0.0, 20.0, 50)
        for mp in (0.5, 2.0, 10.0):
            ws = elastic_weight(np.full_like(mns, mp), mns)
            assert (np.diff(ws) < 0).all()

    def test_negative_input_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            elastic_weight(-0.1, 1.0)
        with pytest.raises(ConfigError, match="non-negative"):
            elastic_weight(1.0, -0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError, match="must be finite"):
            elastic_weight(float("nan"), 1.0)


class TestElasticTripletLoss:
    def test_zero_hinge_zero_loss(self):
        loss, grads = single(batch_elastic_loss, [[0.0], [0.1], [50.0], [50.1]],
                             [0, 0, 1, 1])
        assert loss == 0.0 and not grads.any()

    def test_frozen_single_anchor_value(self):
        # both valid anchors mine max_pos 4, min_neg 1; eta 3
        loss, _ = single(batch_elastic_loss, [[0.0], [2.0], [1.0]], [0, 0, 1])
        assert loss == pytest.approx(5.284782467867294, abs=1e-14)

    def test_fully_degenerate_batch_value(self):
        loss, _ = single(batch_elastic_loss, np.zeros((4, 3)), [0, 0, 1, 1], 3.0)
        assert loss == pytest.approx(1.5, abs=1e-15)

    def test_gradient_default_mode(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            vectors, ids = random_batch(rng)
            _, grads = single(batch_elastic_loss, vectors, ids)
            fd = finite_diff_grad(
                lambda v: single(batch_elastic_loss, v, ids)[0], vectors)
            assert max_rel_error(grads, fd) < 1e-6

    def test_gradient_detached_mode(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            vectors, ids = random_batch(rng)
            _, grads = single(batch_elastic_loss, vectors, ids, 3.0, "detached")
            hard = batch_hard_mine(pairwise(vectors), ids)
            w0 = 1.0 / (1.0 + np.exp(-hard.max_pos_dist / (hard.min_neg_dist + 1.0)))
            fd = finite_diff_grad(
                lambda v: single(batch_elastic_loss, v, ids, 3.0, w0)[0],
                vectors)
            assert max_rel_error(grads, fd) < 1e-6

    def test_reduction_to_hard_loss(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            vectors, ids = random_batch(rng, n=int(rng.integers(4, 17)))
            elastic, _ = single(batch_elastic_loss, vectors, ids, 3.0, 1.0)
            hard, _ = single(batch_hard_triplet_loss, vectors, ids, 3.0)
            assert abs(elastic - hard) < 1e-12

    def test_damping(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            vectors, ids = random_batch(rng, n=8, d=3)
            hard = batch_hard_mine(pairwise(vectors), ids)
            raw = 3.0 + hard.max_pos_dist - hard.min_neg_dist
            delta = hard.max_pos_dist / (hard.min_neg_dist + 1.0)
            w = 1.0 / (1.0 + np.exp(-delta))
            for a in np.flatnonzero(hard.valid & (raw > 0)):
                elastic_term = w[a] * raw[a]
                assert elastic_term < raw[a]
                assert elastic_term >= 0.5 * raw[a]

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateBatchError):
            single(batch_elastic_loss, [[0.0], [1.0]], [1, 1])


class TestBatchElasticLoss:
    def test_single_branch_reduces(self):
        # branches share ids, so each holds a third of the valid units: the
        # stacked loss is the mean of the one-branch losses
        rng = np.random.default_rng(47)
        vectors = rng.normal(size=(3, 16, 8))
        _, ids = random_batch(rng)
        multi, mgrads = batch_elastic_loss(vectors, ids)
        for b in range(3):
            _, sgrads = single(batch_elastic_loss, vectors[b], ids)
            assert np.allclose(3.0 * mgrads[b], sgrads, atol=1e-15)
        losses = [single(batch_elastic_loss, v, ids)[0] for v in vectors]
        assert multi == pytest.approx(np.mean(losses), abs=1e-15)

    def test_duplicated_branch_equals_single(self):
        rng = np.random.default_rng(53)
        vectors, ids = random_batch(rng)
        one, _ = single(batch_elastic_loss, vectors, ids)
        double, _ = batch_elastic_loss(np.stack([vectors, vectors]), ids)
        assert double == pytest.approx(one, rel=1e-12)

    def test_gradients_per_branch(self):
        rng = np.random.default_rng(59)
        ids = np.repeat(np.arange(3), 4)
        vectors = rng.normal(size=(3, 12, 5))
        _, grads = batch_elastic_loss(vectors, ids)
        fd = finite_diff_grad(lambda v: batch_elastic_loss(v, ids)[0], vectors)
        for bi in range(3):
            assert max_rel_error(grads[bi], fd[bi]) < 1e-6

    def test_inconsistent_ids_rejected(self):
        rng = np.random.default_rng(61)
        with pytest.raises(ValueError):
            batch_elastic_loss(rng.normal(size=(2, 4, 3)), [0, 0, 1])

    def test_plain_batch_variant_matches_frozen_weight(self):
        rng = np.random.default_rng(67)
        ids = np.repeat(np.arange(3), 4)
        vectors = rng.normal(size=(2, 12, 5))
        plain, _ = batch_hard_triplet_loss(vectors, ids, 3.0)
        # recompute via mean of per-branch hinges over all valid units
        total, units = 0.0, 0
        for v in vectors:
            hard = batch_hard_mine(pairwise(v), ids)
            raw = 3.0 + hard.max_pos_dist - hard.min_neg_dist
            total += np.where(hard.valid & (raw > 0), raw, 0.0).sum()
            units += int(hard.valid.sum())
        assert plain == pytest.approx(total / units, rel=1e-12)

    @pytest.mark.parametrize("weighting", ["softmax", None, float("inf")])
    def test_unknown_weighting_rejected(self, weighting):
        vectors, ids = random_batch(np.random.default_rng(73))
        with pytest.raises(ConfigError, match="weighting"):
            single(batch_elastic_loss, vectors, ids, 3.0, weighting)

    @pytest.mark.parametrize("eta", [0.0, -1.0, float("nan")])
    def test_non_positive_eta_rejected(self, eta):
        vectors, ids = random_batch(np.random.default_rng(79))
        with pytest.raises(ConfigError, match="eta must be positive"):
            single(batch_elastic_loss, vectors, ids, eta)

    @pytest.mark.parametrize("kind", ["sigmoid", "detached", "scalar",
                                      "per_anchor", "per_unit"])
    def test_stats_hold_the_weights_used(self, kind):
        rng = np.random.default_rng(83)
        ids = np.repeat(np.arange(3), 4)
        vectors = rng.normal(size=(2, 12, 5))
        weighting = {"sigmoid": "sigmoid", "detached": "detached",
                     "scalar": 0.7, "per_anchor": rng.uniform(size=12),
                     "per_unit": rng.uniform(size=(2, 12))}[kind]
        stats = {}
        loss, _ = batch_elastic_loss(vectors, ids, 3.0, weighting, stats)
        if isinstance(weighting, str):
            expected = mined_weights(vectors, ids)
        else:
            expected = np.broadcast_to(weighting, (2, 12))
        assert stats["weights"].shape == (2, 12)
        assert np.array_equal(stats["weights"], expected)
        # the weights are an output only: the loss is the one without stats
        assert loss == batch_elastic_loss(vectors, ids, 3.0, weighting)[0]


class TestMetricLossCore:
    @pytest.mark.parametrize("branches", [1, 3])
    @pytest.mark.parametrize("weighting", ["sigmoid", "detached", "fixed",
                                           "per_anchor"])
    @pytest.mark.parametrize("integer_ties", [False, True])
    def test_matches_per_anchor_oracle(self, weighting, branches, integer_ties):
        rng = np.random.default_rng(71)
        ids = np.array([0, 0, 1, 1, 1, 2, 2, 3, 0, 2])
        if integer_ties:
            # small integer coordinates: many equal distances, so mining
            # must break every tie toward the lowest index in both
            vectors = [rng.integers(-1, 2, size=(10, 3)).astype(float)
                       for _ in range(branches)]
        else:
            vectors = [rng.normal(size=(10, 4)) for _ in range(branches)]
        if weighting == "fixed":
            core_w, oracle_w = 1.0, [1.0] * 10
        elif weighting == "per_anchor":
            core_w = rng.uniform(0.5, 1.0, size=10)
            oracle_w = list(core_w)
        else:
            core_w = oracle_w = weighting
        loss, grads = batch_elastic_loss(np.stack(vectors), ids, 2.0, core_w)
        want, want_grads = naive_metric_loss(vectors, ids, 2.0, oracle_w)
        assert loss > 0.0
        assert abs(loss - want) <= 1e-12
        for got, ref in zip(grads, want_grads):
            assert np.abs(got - ref).max() <= 1e-12


class TestDescriptorBatch:
    """Checks on the stacked descriptor batch the loss takes."""

    def test_requires_two_vectors(self):
        with pytest.raises(ShapeError):
            batch_elastic_loss(np.zeros((1, 1, 3)), np.array([0]))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            single(batch_elastic_loss, np.array([[np.inf, 0.0], [0.0, 0.0]]),
                   np.array([0, 1]))

    @pytest.mark.parametrize("shape", [(4, 3), (0, 4, 3), (1, 2, 4, 3)])
    def test_requires_stacked_branches(self, shape):
        with pytest.raises(ShapeError):
            batch_elastic_loss(np.zeros(shape), np.array([0, 0, 1, 1]))

    @pytest.mark.parametrize("weighting", ["sigmoid", "detached", 1.0])
    def test_rejects_overflowing_distances(self, weighting):
        # finite descriptors whose squared distances overflow to inf: the
        # loss was nan or inf, with finite gradients under a constant weight
        vectors = np.array([[[0.0], [1e200], [2e200], [3e200]]])
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                       match="finite"):
            batch_elastic_loss(vectors, np.array([0, 0, 1, 1]), 3.0, weighting)

    @pytest.mark.parametrize("weighting", ["sigmoid", "detached", 1.0])
    def test_rejects_overflowing_loss(self, weighting):
        # every hinge is a finite eta, but their sum overflows: the loss was
        # inf with all-finite gradients
        with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                       match="finite"):
            batch_elastic_loss(np.zeros((1, 4, 1)), np.array([0, 0, 1, 1]),
                               1e308, weighting)
