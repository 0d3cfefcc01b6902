import numpy as np
import pytest

from oracles import overlap_row_partition, uniform_row_partition

from elasticdrop.dropmask import (DROP_SCHEMES, BatchDropBlock, BatchDropout,
                                  DropBlock, ElementDropout, NoDrop,
                                  OverlapRowDrop, RandomizedDrop,
                                  SpatialDropout, UniformRowDrop, apply_mask,
                                  baseline_mask, branch_masks)
from elasticdrop.errors import ConfigError, ShapeError
from elasticdrop.model import ModelConfig

# one valid instance of every DROP_SCHEMES kind on an 8x4 grid
SCHEME_CASES = {
    "uniform": UniformRowDrop(m=4),
    "overlap": OverlapRowDrop(patch_h=4, overlap=1),
    "none": NoDrop(),
    "element_dropout": ElementDropout(0.25),
    "spatial_dropout": SpatialDropout(0.25),
    "batch_dropout": BatchDropout(0.25),
    "dropblock": DropBlock(2, 2),
    "batch_dropblock": BatchDropBlock(0.25),
}


class TestUniformPartition:
    def test_feature_height_24_m6(self):
        part = UniformRowDrop(m=6).ranges(24)
        assert part == ((0, 4), (4, 8), (8, 12), (12, 16), (16, 20), (20, 24))

    def test_m8(self):
        part = UniformRowDrop(m=8).ranges(24)
        assert len(part) == 8
        assert all(e - s == 3 for s, e in part)

    def test_unit_patches(self):
        part = UniformRowDrop(m=6).ranges(6)
        assert part == tuple((i, i + 1) for i in range(6))

    def test_non_divisor_rejected(self):
        with pytest.raises(ConfigError):
            UniformRowDrop(m=5).ranges(24)

    def test_bad_m_rejected(self):
        with pytest.raises(ConfigError):
            UniformRowDrop(m=0).ranges(24)

    def test_coverage_and_disjointness(self):
        for h in range(1, 49):
            for m in range(1, 13):
                if h % m:
                    continue
                part = UniformRowDrop(m=m).ranges(h)
                rows = [set(range(s, e)) for s, e in part]
                assert set().union(*rows) == set(range(h))
                for i in range(len(rows)):
                    for j in range(i + 1, len(rows)):
                        assert not rows[i] & rows[j]


class TestOverlapPartition:
    def test_stride_rule_h24(self):
        part = OverlapRowDrop(patch_h=4, overlap=1).ranges(24)
        assert part == ((0, 4), (3, 7), (6, 10), (9, 13), (12, 16),
                               (15, 19), (18, 22), (20, 24))
        assert len(part) == 8

    def test_stride_rule_h6(self):
        part = OverlapRowDrop(patch_h=3, overlap=1).ranges(6)
        assert part == ((0, 3), (2, 5), (3, 6))

    def test_zero_overlap_rejected(self):
        with pytest.raises(ConfigError):
            OverlapRowDrop(patch_h=4, overlap=0).ranges(24)

    def test_overlap_ge_patch_rejected(self):
        with pytest.raises(ConfigError):
            OverlapRowDrop(patch_h=4, overlap=4).ranges(24)

    def test_coverage_and_consecutive_overlap(self):
        for h in range(2, 49):
            for patch_h in range(2, h + 1):
                for overlap in range(1, patch_h):
                    part = OverlapRowDrop(patch_h, overlap).ranges(h)
                    rows = [set(range(s, e)) for s, e in part]
                    assert set().union(*rows) == set(range(h))
                    # consecutive ranges share `overlap` rows except at the clamp
                    for i in range(len(rows) - 2):
                        assert len(rows[i] & rows[i + 1]) == overlap



def _ranges_or_error(build):
    """build()'s ranges, or None where it raises a ConfigError."""
    try:
        return build()
    except ConfigError:
        return None


def test_ranges_match_partition_functions():
    """Each fixed schedule's ``ranges`` against the free partition function
    it replaced: the same ranges, and a ConfigError at exactly the same
    heights, for every constructible parameter set."""
    heights = range(-1, 49)
    for m in range(1, 50):
        kind = UniformRowDrop(m=m)
        for h in heights:
            assert (_ranges_or_error(lambda: kind.ranges(h))
                    == _ranges_or_error(lambda: uniform_row_partition(h, m))
                    ), (h, m)
    for patch_h in range(2, 50):
        for overlap in range(1, patch_h):
            kind = OverlapRowDrop(patch_h=patch_h, overlap=overlap)
            for h in heights:
                want = _ranges_or_error(
                    lambda: overlap_row_partition(h, patch_h, overlap))
                assert _ranges_or_error(lambda: kind.ranges(h)) == want, (
                    h, patch_h, overlap)


class TestDropPatchMask:
    def test_third_patch_zeroed(self):
        mask = branch_masks(UniformRowDrop(m=6), 24, 8)[2]
        assert mask.shape == (24, 8)
        assert not mask[8:12].any()
        assert int((mask == 0).sum()) == 32
        assert mask[:8].all() and mask[12:].all()

    def test_single_range_full_drop(self):
        masks = branch_masks(UniformRowDrop(m=1), 4, 3)
        assert len(masks) == 1 and not masks[0].any()

    def test_popcount(self):
        masks = branch_masks(UniformRowDrop(m=4), 12, 7)
        assert len(masks) == 4
        for mask in masks:
            assert int((mask == 0).sum()) == 3 * 7

    def test_deterministic_across_calls(self):
        a = branch_masks(UniformRowDrop(m=6), 24, 8)[1]
        b = branch_masks(UniformRowDrop(m=6), 24, 8)[1]
        assert np.array_equal(a, b)

class TestApplyMask:
    def test_all_ones_identity(self):
        fm = np.arange(24.0).reshape(2, 3, 4)
        assert np.array_equal(apply_mask(fm, np.ones((2, 3))), fm)

    def test_all_zeros(self):
        fm = np.arange(24.0).reshape(2, 3, 4)
        assert not apply_mask(fm, np.zeros((2, 3))).any()

    def test_branch_mask_zeroes_channel_sums(self):
        rng = np.random.default_rng(0)
        fm = rng.normal(size=(12, 5, 6))
        mask = branch_masks(UniformRowDrop(m=4), 12, 5)[1]
        out = apply_mask(fm, mask)
        assert not out[3:6].any()
        assert np.array_equal(out[:3], fm[:3])
        assert np.array_equal(out[6:], fm[6:])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        fm = rng.normal(size=(8, 4, 3))
        mask = branch_masks(UniformRowDrop(m=2), 8, 4)[0]
        once = apply_mask(fm, mask)
        assert np.array_equal(apply_mask(once, mask), once)

    def test_input_unmodified(self):
        fm = np.ones((4, 4, 2))
        before = fm.copy()
        apply_mask(fm, np.zeros((4, 4)))
        assert np.array_equal(fm, before)

    def test_batched_maps(self):
        fm = np.ones((3, 4, 4, 2))
        mask = branch_masks(UniformRowDrop(m=2), 4, 4)[1]
        out = apply_mask(fm, mask)
        assert out.shape == fm.shape
        assert not out[:, 2:].any()

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            apply_mask(np.ones((4, 4, 2)), np.ones((3, 4)))
        with pytest.raises(ShapeError):
            apply_mask(np.ones((4, 4)), np.ones((4, 4)))


class TestBranchMasks:
    def test_no_drop_single_ones(self):
        masks = branch_masks(NoDrop(), 8, 4)
        assert len(masks) == 1 and masks[0].all()

    def test_uniform_count(self):
        assert len(branch_masks(UniformRowDrop(m=4), 8, 4)) == 4

    def test_overlap_count_derived(self):
        assert len(branch_masks(OverlapRowDrop(patch_h=4, overlap=1), 24, 8)) == 8

    def test_random_kind_rejected(self):
        with pytest.raises(ConfigError):
            branch_masks(ElementDropout(0.5), 8, 4)

    @pytest.mark.parametrize("kind", [NoDrop(), UniformRowDrop(m=4),
                                      OverlapRowDrop(patch_h=4, overlap=1)])
    def test_non_positive_width_rejected(self, kind):
        with pytest.raises(ConfigError, match="width must be positive"):
            branch_masks(kind, 8, 0)

    @pytest.mark.parametrize("height", [0, -1])
    def test_non_positive_height_rejected(self, height):
        # NoDrop's one empty range fits any height, so only this check
        # stops an empty or a negative-height mask
        with pytest.raises(ConfigError, match="height and width must be positive"):
            branch_masks(NoDrop(), height, 4)


class TestBaselineMask:
    def setup_method(self):
        self.rng = np.random.default_rng(42)

    @pytest.mark.parametrize("kind", [
        ElementDropout(0.0), SpatialDropout(0.0), BatchDropout(0.0),
        DropBlock(2, 2, rate=0.0), BatchDropBlock(0.0),
    ])
    def test_rate_zero_identity(self, kind):
        masks = baseline_mask(kind, 8, 4, 3, self.rng, batch_size=2)
        assert masks.shape == (2, 8, 4, 3)
        assert (masks == 1.0).all()

    def test_batch_dropblock_third_of_24(self):
        masks = baseline_mask(BatchDropBlock(1.0 / 3.0), 24, 8, 2, self.rng,
                              batch_size=4)
        zero_rows = np.flatnonzero(~masks[0].any(axis=(1, 2)))
        assert zero_rows.size == 8
        assert np.array_equal(zero_rows, np.arange(zero_rows[0], zero_rows[0] + 8))
        for n in range(1, 4):
            assert np.array_equal(masks[n], masks[0])

    def test_spatial_dropout_whole_channels(self):
        masks = baseline_mask(SpatialDropout(0.5), 6, 5, 8, self.rng, batch_size=3)
        for n in range(3):
            for c in range(8):
                channel = masks[n, :, :, c]
                assert channel.all() or not channel.any()

    def test_batch_dropout_shared(self):
        masks = baseline_mask(BatchDropout(0.5), 6, 5, 8, self.rng, batch_size=3)
        assert np.array_equal(masks[1], masks[0])
        assert np.array_equal(masks[2], masks[0])

    def test_element_dropout_rescales(self):
        rate = 0.25
        masks = baseline_mask(ElementDropout(rate), 20, 20, 8, self.rng)
        kept = masks[masks > 0]
        assert np.allclose(kept, 1.0 / (1.0 - rate))
        # kept fraction is near 1 - rate
        assert abs((masks > 0).mean() - (1.0 - rate)) < 0.05

    def test_dropblock_block_shape(self):
        masks = baseline_mask(DropBlock(3, 2), 8, 6, 4, self.rng, batch_size=5)
        for n in range(5):
            dropped = ~masks[n].astype(bool)
            rows = np.flatnonzero(dropped.any(axis=(1, 2)))
            cols = np.flatnonzero(dropped.any(axis=(0, 2)))
            assert rows.size == 3 and cols.size == 2
            assert int(dropped.sum()) == 3 * 2 * 4

    def test_invalid_rate(self):
        with pytest.raises(ConfigError):
            baseline_mask(ElementDropout(1.0), 4, 4, 2, self.rng)
        with pytest.raises(ConfigError):
            baseline_mask(SpatialDropout(-0.1), 4, 4, 2, self.rng)
        with pytest.raises(ConfigError):
            baseline_mask(BatchDropBlock(1.5), 4, 4, 2, self.rng)

    @pytest.mark.parametrize("kind, args", [
        (ElementDropout, (1.5,)), (SpatialDropout, (1.0,)),
        (BatchDropout, (-0.1,)), (DropBlock, (0, 2)), (DropBlock, (2, 2, 1.5)),
        (BatchDropBlock, (1.0,)), (UniformRowDrop, (0,)),
        (OverlapRowDrop, (2, 2)), (OverlapRowDrop, (3, 0)),
    ])
    def test_parameters_checked_on_construction(self, kind, args):
        with pytest.raises(ConfigError):
            kind(*args)

    def test_block_exceeding_map(self):
        with pytest.raises(ConfigError, match="exceeds the map"):
            baseline_mask(DropBlock(5, 2), 4, 4, 2, self.rng)
        with pytest.raises(ConfigError, match="exceeds the map"):
            ModelConfig(height=8, width=4,
                        drop_scheme=DropBlock(block_h=9, block_w=1))

    @pytest.mark.parametrize("rate", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("kind", [SpatialDropout, BatchDropout])
    def test_channel_dropout_draw_stream(self, kind, rate):
        rng = np.random.default_rng(7)
        masks = baseline_mask(kind(rate), 6, 5, 8, rng, batch_size=3)
        # the reference formula: a (batch, C) draw per sample for spatial
        # dropout, one (C,) draw for batch dropout, no draw at rate 0
        ref = np.random.default_rng(7)
        expected = np.ones((3, 6, 5, 8))
        if rate > 0.0:
            if kind is SpatialDropout:
                chan = ref.random((3, 8)) >= rate
                expected *= chan[:, None, None, :].astype(np.float64)
            else:
                chan = ref.random(8) >= rate
                expected *= chan[None, None, None, :].astype(np.float64)
        assert masks.dtype == np.float64 and masks.shape == expected.shape
        assert masks.tobytes() == expected.tobytes()
        # the same count of values was drawn
        assert rng.random() == ref.random()

    def test_deterministic_kind_rejected(self):
        with pytest.raises(ConfigError):
            baseline_mask(UniformRowDrop(4), 8, 4, 2, self.rng)

    @pytest.mark.parametrize("dims", [(0, 4, 2, 1), (8, 0, 2, 1), (8, 4, 0, 1),
                                      (8, 4, 2, 0), (8, 4, 2, -1)])
    def test_non_positive_dimension_rejected(self, dims):
        height, width, channels, batch = dims
        with pytest.raises(ConfigError, match="dimensions must be positive"):
            baseline_mask(ElementDropout(0.25), height, width, channels,
                          self.rng, batch_size=batch)


class TestSchemeKinds:
    def test_every_scheme_has_a_case(self):
        assert SCHEME_CASES.keys() == DROP_SCHEMES.keys()

    @pytest.mark.parametrize("kind", SCHEME_CASES.values(), ids=SCHEME_CASES)
    def test_fixed_or_randomized(self, kind):
        """A kind either has fixed branch masks or draws its masks, never both
        and never neither, and every module agrees on which."""
        try:
            branch_masks(kind, 8, 4)
            fixed = True
        except ConfigError:
            fixed = False
        try:
            drawn = baseline_mask(kind, 8, 4, 3, np.random.default_rng(0),
                                  batch_size=2).shape == (2, 8, 4, 3)
        except ConfigError:
            drawn = False
        config = ModelConfig(height=8, width=4, drop_scheme=kind)
        assert not config.use_global_branch
        assert (isinstance(kind, RandomizedDrop) == drawn == (not fixed)
                == (config.keep_rows is None))
