import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nearest_neighbor_id_accuracy

from elasticdrop.data_synth import (SynthConfig, generate, occlude, pk_batches,
                                    stack_images)
from elasticdrop.errors import ConfigError


class TestSynthConfig:
    def test_part_count_must_divide_height(self):
        with pytest.raises(ConfigError):
            SynthConfig(height=8, part_count=3)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(noise_sigma=-1.0)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SynthConfig(occlusion_fraction=1.5)


class TestGenerate:
    def test_noiseless_limit_identical_samples(self):
        cfg = SynthConfig(seed=3, num_ids=4, samples_per_id=6, num_cameras=1,
                          noise_sigma=0.0, camera_shift_sigma=0.0,
                          occluded_query_prob=0.0)
        ds = generate(cfg)
        by_id = {}
        for s in ds.train + ds.query + ds.gallery:
            by_id.setdefault(s.id, []).append(s.image)
        for images in by_id.values():
            for img in images[1:]:
                assert np.array_equal(img, images[0])

    def test_occlusion_zeroes_bottom_half(self):
        cfg = SynthConfig(seed=0, num_ids=6, samples_per_id=10, height=8,
                          part_count=4, occlusion_fraction=0.5,
                          occluded_query_prob=1.0)
        ds = generate(cfg)
        assert ds.query and all(s.occluded for s in ds.query)
        for s in ds.query:
            assert not s.image[4:].any()
            assert s.image[:4].any()

    def test_occlusion_preserves_top_rows(self):
        # the occlusion coin flip is drawn after the render, so the two
        # configs below produce identical unoccluded pixels
        kwargs = dict(seed=11, num_ids=3, samples_per_id=10, height=8,
                      part_count=4, occlusion_fraction=0.5)
        occ = generate(SynthConfig(occluded_query_prob=1.0, **kwargs))
        clean = generate(SynthConfig(occluded_query_prob=0.0, **kwargs))
        assert all(s.occluded for s in occ.query)
        for so, sc in zip(occ.query, clean.query):
            assert np.array_equal(so.image, occlude(sc.image, 0.5))
            assert np.array_equal(so.image[:4], sc.image[:4])

    def test_deterministic(self):
        cfg = SynthConfig(seed=9, num_ids=5, samples_per_id=8)
        a, b = generate(cfg), generate(cfg)
        for sa, sb in zip(a.train + a.query + a.gallery,
                          b.train + b.query + b.gallery):
            assert np.array_equal(sa.image, sb.image)
            assert (sa.id, sa.camera, sa.occluded) == (sb.id, sb.camera, sb.occluded)

    def test_splits_disjoint_and_query_ids_in_gallery(self):
        cfg = SynthConfig(seed=1, num_ids=10, samples_per_id=20)
        ds = generate(cfg)
        assert len(ds.train) == 12 * 10
        assert len(ds.query) == 4 * 10
        assert len(ds.gallery) == 4 * 10
        gallery_ids = {s.id for s in ds.gallery}
        assert {s.id for s in ds.query} <= gallery_ids

    def test_separability_over_seeds(self):
        for seed in range(5):
            cfg = SynthConfig(seed=seed, num_ids=10, samples_per_id=10,
                              noise_sigma=0.1, camera_shift_sigma=0.1,
                              occluded_query_prob=0.0)
            ds = generate(cfg)
            qi, qids, _ = stack_images(ds.query)
            gi, gids, _ = stack_images(ds.gallery)
            acc = nearest_neighbor_id_accuracy(qi, qids, gi, gids)
            assert acc > 0.95

    def test_within_id_closer_than_between(self):
        # signature separation stays well above 3 x noise_sigma here
        for seed in range(5):
            cfg = SynthConfig(seed=seed, num_ids=8, samples_per_id=6,
                              noise_sigma=0.2, camera_shift_sigma=0.2)
            ds = generate(cfg)
            images, ids, _ = stack_images(ds.train)
            flat = images.reshape(len(ids), -1)
            within, between = [], []
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    d = float(((flat[i] - flat[j]) ** 2).sum())
                    (within if ids[i] == ids[j] else between).append(d)
            assert np.mean(within) < np.mean(between)

    def test_camera_round_robin(self):
        cfg = SynthConfig(seed=0, num_ids=2, samples_per_id=6, num_cameras=3)
        ds = generate(cfg)
        for pid in range(2):
            cams = [s.camera for s in ds.train if s.id == pid]
            assert set(cams) == {0, 1, 2}


class TestPkBatches:
    def test_small_epoch_covers_all(self):
        ids = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        batches = pk_batches(ids, p=2, k=2, seed=0)
        assert len(batches) == 2
        used = np.concatenate(batches)
        assert sorted(used.tolist()) == list(range(8))

    def test_batch_structure(self):
        ids = np.repeat(np.arange(10), 7)
        for seed in range(5):
            batches = pk_batches(ids, p=4, k=3, seed=seed)
            for batch in batches:
                assert batch.size == 12
                batch_ids = ids[batch]
                unique, counts = np.unique(batch_ids, return_counts=True)
                assert unique.size == 4
                assert (counts == 3).all()
            # without replacement across the whole epoch
            epoch = np.concatenate(batches)
            assert np.unique(epoch).size == epoch.size

    def test_paper_scale_batch_size(self):
        ids = np.repeat(np.arange(16), 4)
        batches = pk_batches(ids, p=16, k=4, seed=1)
        assert batches and batches[0].size == 64

    def test_deterministic(self):
        ids = np.repeat(np.arange(6), 5)
        a = pk_batches(ids, p=3, k=2, seed=42)
        b = pk_batches(ids, p=3, k=2, seed=42)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_insufficient_ids_rejected(self):
        ids = np.array([0, 0, 1, 1])
        with pytest.raises(ConfigError):
            pk_batches(ids, p=3, k=2, seed=0)

    def test_insufficient_samples_rejected(self):
        ids = np.array([0, 1, 2])
        with pytest.raises(ConfigError):
            pk_batches(ids, p=2, k=2, seed=0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(counts=st.lists(st.integers(0, 9), max_size=8),
           p=st.integers(1, 5), k=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_drawn_counts(self, counts, p, k, seed):
        # either a ConfigError, exactly when fewer than p ids have k samples,
        # or at least one batch of p distinct ids x k samples
        ids = np.random.default_rng(seed).permutation(
            np.repeat(np.arange(len(counts)), counts))
        if sum(c >= k for c in counts) < p:
            with pytest.raises(ConfigError):
                pk_batches(ids, p=p, k=k, seed=seed)
            return
        batches = pk_batches(ids, p=p, k=k, seed=seed)
        assert batches
        for batch in batches:
            unique, per_id = np.unique(ids[batch], return_counts=True)
            assert unique.size == p and (per_id == k).all()
        epoch = np.concatenate(batches)
        assert np.unique(epoch).size == epoch.size
