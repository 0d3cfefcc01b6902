import numpy as np
import pytest

from oracles import naive_hard_mine, naive_metric_loss, naive_pairwise_sq_dist

from elasticdrop.elastic_loss import (DescriptorBatch, ElasticParams, HardPairs,
                                      _metric_loss,
                                      batch_elastic_loss, batch_hard_mine,
                                      batch_hard_triplet_loss,
                                      elastic_triplet_loss, elastic_weight,
                                      hard_triplet_loss, pairwise_sq_dist)
from elasticdrop.errors import DegenerateBatchError, ShapeError
from elasticdrop.numerics import finite_diff_grad, max_rel_error


def make_batch(vectors, ids):
    return DescriptorBatch(vectors=np.asarray(vectors, dtype=float),
                           ids=np.asarray(ids))


def random_batch(rng, n=16, d=8, n_ids=4):
    ids = rng.integers(0, n_ids, size=n)
    # force at least two distinct ids
    ids[0], ids[1] = 0, 1
    return make_batch(rng.normal(size=(n, d)), ids)


class TestPairwiseSqDist:
    def test_identical_rows_zero(self):
        batch = make_batch([[1.0, 2.0], [1.0, 2.0]], [0, 1])
        assert not pairwise_sq_dist(batch).any()

    def test_one_dimensional(self):
        batch = make_batch([[0.0], [3.0]], [0, 1])
        dist = pairwise_sq_dist(batch)
        assert dist[0, 1] == 9.0 and dist[1, 0] == 9.0
        assert dist[0, 0] == 0.0 and dist[1, 1] == 0.0

    def test_equals_naive_double_loop_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n, d = int(rng.integers(2, 12)), int(rng.integers(1, 9))
            batch = random_batch(rng, n=n, d=d)
            assert np.array_equal(pairwise_sq_dist(batch),
                                  naive_pairwise_sq_dist(batch.vectors))

    def test_symmetric_zero_diagonal(self):
        batch = random_batch(np.random.default_rng(5))
        dist = pairwise_sq_dist(batch)
        assert np.array_equal(dist, dist.T)
        assert not np.diagonal(dist).any()


class TestBatchHardMine:
    def test_hand_example(self):
        batch = make_batch([[0.0], [1.0], [5.0], [5.5]], [0, 0, 1, 1])
        hard = batch_hard_mine(pairwise_sq_dist(batch), batch.ids)
        assert hard.max_pos_dist[0] == 1.0
        assert hard.hardest_pos_index[0] == 1
        assert hard.min_neg_dist[0] == 25.0
        assert hard.hardest_neg_index[0] == 2
        assert hard.valid.all()

    def test_all_same_id_invalid(self):
        batch = make_batch(np.arange(6.0).reshape(3, 2), [7, 7, 7])
        hard = batch_hard_mine(pairwise_sq_dist(batch), batch.ids)
        assert not hard.valid.any()
        assert (hard.hardest_pos_index == -1).all()

    def test_two_per_id_forced_positive(self):
        batch = make_batch([[0.0], [2.0], [9.0], [9.1]], [0, 0, 1, 1])
        hard = batch_hard_mine(pairwise_sq_dist(batch), batch.ids)
        assert hard.hardest_pos_index[0] == 1
        assert hard.hardest_pos_index[1] == 0
        assert hard.hardest_pos_index[2] == 3

    def test_ties_break_to_lowest_index(self):
        # anchor 0 equidistant from both negatives and both positives
        batch = make_batch([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0],
                            [0.0, 2.0], [0.0, -2.0]], [0, 0, 0, 1, 1])
        hard = batch_hard_mine(pairwise_sq_dist(batch), batch.ids)
        assert hard.hardest_pos_index[0] == 1
        assert hard.hardest_neg_index[0] == 3

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            batch = random_batch(rng, n=n, d=int(rng.integers(1, 6)),
                                 n_ids=int(rng.integers(2, 5)))
            dist = pairwise_sq_dist(batch)
            hard = batch_hard_mine(dist, batch.ids)
            for a, ref in enumerate(naive_hard_mine(dist, batch.ids)):
                assert hard.valid[a] == ref["valid"]
                if ref["valid"]:
                    assert hard.max_pos_dist[a] == ref["max_pos"]
                    assert hard.min_neg_dist[a] == ref["min_neg"]
                    assert hard.hardest_pos_index[a] == ref["pos_idx"]
                    assert hard.hardest_neg_index[a] == ref["neg_idx"]

    def test_scaling_leaves_indices(self):
        rng = np.random.default_rng(23)
        batch = random_batch(rng)
        hard = batch_hard_mine(pairwise_sq_dist(batch), batch.ids)
        scaled = make_batch(batch.vectors * 2.7, batch.ids)
        hard2 = batch_hard_mine(pairwise_sq_dist(scaled), scaled.ids)
        assert np.array_equal(hard.hardest_pos_index, hard2.hardest_pos_index)
        assert np.array_equal(hard.hardest_neg_index, hard2.hardest_neg_index)


class TestHardTripletLoss:
    def test_satisfied_margin_zero(self):
        batch = make_batch([[0.0], [0.1], [50.0], [50.1]], [0, 0, 1, 1])
        loss, grads = hard_triplet_loss(batch, eta=3.0)
        assert loss == 0.0
        assert not grads.any()

    def test_hinge_value(self):
        # one valid anchor pattern: max_pos 4, min_neg 1 per anchor 0
        batch = make_batch([[0.0], [2.0], [1.0], [9.0]], [0, 0, 1, 1])
        dist = pairwise_sq_dist(batch)
        hard = batch_hard_mine(dist, batch.ids)
        assert hard.max_pos_dist[0] == 4.0 and hard.min_neg_dist[0] == 1.0
        loss, _ = hard_triplet_loss(batch, eta=3.0)
        # all four anchors contribute; anchor 0's hinge is eta + 4 - 1 = 6
        per_anchor = [max(0.0, 3.0 + hard.max_pos_dist[a] - hard.min_neg_dist[a])
                      for a in range(4)]
        assert loss == pytest.approx(np.mean(per_anchor), rel=1e-12)
        assert per_anchor[0] == 6.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            batch = random_batch(rng)
            _, grads = hard_triplet_loss(batch, eta=3.0)
            fd = finite_diff_grad(
                lambda v: hard_triplet_loss(make_batch(v, batch.ids), eta=3.0)[0],
                batch.vectors)
            assert max_rel_error(grads, fd) < 1e-6

    def test_degenerate_batch_raises(self):
        batch = make_batch([[0.0], [1.0]], [3, 3])
        with pytest.raises(DegenerateBatchError):
            hard_triplet_loss(batch)


class TestElasticWeight:
    def test_zero_max_pos(self):
        delta, w = elastic_weight(0.0, 17.0)
        assert delta == 0.0 and w == 0.5

    def test_frozen_value(self):
        delta, w = elastic_weight(2.0, 1.0)
        assert delta == 1.0
        assert w == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_asymptote_below_one(self):
        _, w = elastic_weight(1e12, 0.5)
        assert 0.5 <= w < 1.0
        assert w > 0.999999

    def test_bound_over_random_pairs(self):
        rng = np.random.default_rng(0)
        mp = rng.uniform(0.0, 100.0, size=100_000)
        mn = rng.uniform(0.0, 100.0, size=100_000)
        _, w = elastic_weight(mp, mn)
        assert (w >= 0.5).all() and (w < 1.0).all()

    def test_monotonic_in_max_pos(self):
        mps = np.linspace(0.0, 20.0, 50)
        for mn in (0.0, 1.0, 5.0):
            _, ws = elastic_weight(mps, np.full_like(mps, mn))
            assert (np.diff(ws) > 0).all()

    def test_monotonic_in_min_neg(self):
        mns = np.linspace(0.0, 20.0, 50)
        for mp in (0.5, 2.0, 10.0):
            _, ws = elastic_weight(np.full_like(mns, mp), mns)
            assert (np.diff(ws) < 0).all()

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            elastic_weight(-0.1, 1.0)
        with pytest.raises(ValueError):
            elastic_weight(1.0, -0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            elastic_weight(float("nan"), 1.0)


class TestElasticTripletLoss:
    def test_zero_hinge_zero_loss(self):
        batch = make_batch([[0.0], [0.1], [50.0], [50.1]], [0, 0, 1, 1])
        loss, grads = elastic_triplet_loss(batch)
        assert loss == 0.0 and not grads.any()

    def test_frozen_single_anchor_value(self):
        # construct hard pairs directly: max_pos 4, min_neg 1, eta 3
        hard = HardPairs(max_pos_dist=np.array([4.0]),
                         min_neg_dist=np.array([1.0]),
                         hardest_pos_index=np.array([1]),
                         hardest_neg_index=np.array([2]),
                         valid=np.array([True]))
        batch = make_batch([[0.0], [2.0], [1.0]], [0, 0, 1])
        loss, _ = elastic_triplet_loss(batch, hard=hard)
        assert loss == pytest.approx(5.284782467867294, abs=1e-14)

    def test_fully_degenerate_batch_value(self):
        batch = make_batch(np.zeros((4, 3)), [0, 0, 1, 1])
        loss, _ = elastic_triplet_loss(batch, ElasticParams(eta=3.0))
        assert loss == pytest.approx(1.5, abs=1e-15)

    def test_gradient_default_mode(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            batch = random_batch(rng)
            _, grads = elastic_triplet_loss(batch)
            fd = finite_diff_grad(
                lambda v: elastic_triplet_loss(make_batch(v, batch.ids))[0],
                batch.vectors)
            assert max_rel_error(grads, fd) < 1e-6

    def test_gradient_detached_mode(self):
        rng = np.random.default_rng(37)
        params = ElasticParams(detach_weight=True)
        for _ in range(10):
            batch = random_batch(rng)
            _, grads = elastic_triplet_loss(batch, params)
            hard = batch_hard_mine(pairwise_sq_dist(batch), batch.ids)
            w0 = 1.0 / (1.0 + np.exp(-hard.max_pos_dist / (hard.min_neg_dist + 1.0)))
            fd = finite_diff_grad(
                lambda v: elastic_triplet_loss(make_batch(v, batch.ids), params,
                                               weight_override=w0)[0],
                batch.vectors)
            assert max_rel_error(grads, fd) < 1e-6

    def test_reduction_to_hard_loss(self):
        rng = np.random.default_rng(41)
        params = ElasticParams(detach_weight=True)
        for _ in range(100):
            batch = random_batch(rng, n=int(rng.integers(4, 17)))
            elastic, _ = elastic_triplet_loss(batch, params, weight_override=1.0)
            hard, _ = hard_triplet_loss(batch, eta=3.0)
            assert abs(elastic - hard) < 1e-12

    def test_damping(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            batch = random_batch(rng, n=8, d=3)
            dist = pairwise_sq_dist(batch)
            hard = batch_hard_mine(dist, batch.ids)
            raw = 3.0 + hard.max_pos_dist - hard.min_neg_dist
            delta = hard.max_pos_dist / (hard.min_neg_dist + 1.0)
            w = 1.0 / (1.0 + np.exp(-delta))
            for a in np.flatnonzero(hard.valid & (raw > 0)):
                elastic_term = w[a] * raw[a]
                assert elastic_term < raw[a]
                assert elastic_term >= 0.5 * raw[a]

    def test_degenerate_raises(self):
        batch = make_batch([[0.0], [1.0]], [1, 1])
        with pytest.raises(DegenerateBatchError):
            elastic_triplet_loss(batch)


class TestBatchElasticLoss:
    def test_single_branch_reduces(self):
        rng = np.random.default_rng(47)
        batch = random_batch(rng)
        single, sgrads = elastic_triplet_loss(batch)
        multi, mgrads = batch_elastic_loss([batch])
        assert multi == pytest.approx(single, abs=1e-15)
        assert np.allclose(mgrads[0], sgrads, atol=1e-15)

    def test_duplicated_branch_equals_single(self):
        rng = np.random.default_rng(53)
        batch = random_batch(rng)
        single, _ = elastic_triplet_loss(batch)
        double, _ = batch_elastic_loss([batch, batch])
        assert double == pytest.approx(single, rel=1e-12)

    def test_gradients_per_branch(self):
        rng = np.random.default_rng(59)
        ids = np.repeat(np.arange(3), 4)
        branches = [make_batch(rng.normal(size=(12, 5)), ids) for _ in range(3)]
        _, grads = batch_elastic_loss(branches)
        for bi in range(3):
            def loss_of(v, bi=bi):
                swapped = [make_batch(v, ids) if j == bi else branches[j]
                           for j in range(3)]
                return batch_elastic_loss(swapped)[0]

            fd = finite_diff_grad(loss_of, branches[bi].vectors)
            assert max_rel_error(grads[bi], fd) < 1e-6

    def test_inconsistent_ids_rejected(self):
        rng = np.random.default_rng(61)
        a = make_batch(rng.normal(size=(4, 3)), [0, 0, 1, 1])
        b = make_batch(rng.normal(size=(4, 3)), [0, 1, 0, 1])
        with pytest.raises(ValueError):
            batch_elastic_loss([a, b])

    def test_plain_batch_variant_matches_frozen_weight(self):
        rng = np.random.default_rng(67)
        ids = np.repeat(np.arange(3), 4)
        branches = [make_batch(rng.normal(size=(12, 5)), ids) for _ in range(2)]
        plain, _ = batch_hard_triplet_loss(branches, eta=3.0)
        # recompute via mean of per-branch hinges over all valid units
        total, units = 0.0, 0
        for b in branches:
            hard = batch_hard_mine(pairwise_sq_dist(b), b.ids)
            raw = 3.0 + hard.max_pos_dist - hard.min_neg_dist
            total += np.where(hard.valid & (raw > 0), raw, 0.0).sum()
            units += int(hard.valid.sum())
        assert plain == pytest.approx(total / units, rel=1e-12)


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
        loss, grads = _metric_loss([make_batch(v, ids) for v in vectors],
                                   2.0, core_w)
        want, want_grads = naive_metric_loss(vectors, ids, 2.0, oracle_w)
        assert loss > 0.0
        assert abs(loss - want) <= 1e-12
        for got, ref in zip(grads, want_grads):
            assert np.abs(got - ref).max() <= 1e-12


class TestDescriptorBatch:
    def test_requires_two_vectors(self):
        with pytest.raises(ShapeError):
            DescriptorBatch(np.zeros((1, 3)), np.array([0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DescriptorBatch(np.array([[np.inf, 0.0], [0.0, 0.0]]), np.array([0, 1]))

    def test_cameras_length_checked(self):
        with pytest.raises(ShapeError):
            DescriptorBatch(np.zeros((2, 2)), np.array([0, 1]),
                            cameras=np.array([0]))
