"""Deterministic row-band drop schedules plus randomized dropout baselines.

The consecutive schedule partitions the feature-map height into horizontal
patches, a tuple of (start, end) row ranges from top to bottom, and assigns
branch i the mask that zeroes exactly range i, the same rows for every
sample in every batch. Masks are float 0/1 grids applied by
multiplication, so the backward pass is the same mask applied to the
upstream gradient. ``DROP_SCHEMES`` is the one table of scheme classes,
keyed by the name configs and checkpoints use.

The five randomized strategies (element dropout, spatial dropout, batch
dropout, dropblock, batch dropblock) exist for side-by-side comparison runs
and draw from an explicit numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, ShapeError

Array = np.ndarray


# --- drop strategy kinds -------------------------------------------------
#
# Parameters are checked on construction: dropout rates lie in [0, 1), a
# block's sides and a schedule's patch counts are positive. Whether a block
# or patch fits a given map is checked where the map size is known, a block
# only by ``DropBlock.check_fits``.

class RandomizedDrop:
    """Base of the randomized kinds, whose masks ``baseline_mask`` draws each step."""


@dataclass(frozen=True)
class _RateDrop(RandomizedDrop):
    """A dropout whose one parameter is a drop rate in [0, 1)."""
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"drop rate must lie in [0, 1), got {self.rate}")


class ElementDropout(_RateDrop):
    """Independent Bernoulli drop per cell and channel, rescaled by 1/(1-rate)."""


class SpatialDropout(_RateDrop):
    """Whole channels dropped independently per sample."""


class BatchDropout(_RateDrop):
    """One channel drop pattern shared across the whole batch."""


@dataclass(frozen=True)
class DropBlock(RandomizedDrop):
    """One random contiguous block zeroed per sample (with probability rate)."""
    block_h: int
    block_w: int
    rate: float = 1.0

    def __post_init__(self):
        # rate is the per-sample probability of dropping a block; 1.0 = always.
        if self.block_h < 1 or self.block_w < 1:
            raise ConfigError(
                f"DropBlock: block sides must be positive, got "
                f"{self.block_h}x{self.block_w}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"DropBlock: rate must lie in [0, 1], got {self.rate}")

    def check_fits(self, height: int, width: int) -> None:
        """Raise unless the block fits a height x width map."""
        if self.block_h > height or self.block_w > width:
            raise ConfigError(
                f"DropBlock: block {self.block_h}x{self.block_w} exceeds the "
                f"map {height}x{width}")


@dataclass(frozen=True)
class BatchDropBlock(RandomizedDrop):
    """One random row band (fraction of the height) zeroed, shared across the batch."""
    rows_fraction: float

    def __post_init__(self):
        if not 0.0 <= self.rows_fraction < 1.0:
            raise ConfigError(
                f"BatchDropBlock: rows_fraction must lie in [0, 1), got "
                f"{self.rows_fraction}")


@dataclass(frozen=True)
class UniformRowDrop:
    """Consecutive schedule over m equal patches; branch i drops patch i."""
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"UniformRowDrop: m must be positive, got {self.m}")


@dataclass(frozen=True)
class OverlapRowDrop:
    """Consecutive schedule with patches of patch_h rows overlapping by `overlap`."""
    patch_h: int
    overlap: int

    def __post_init__(self):
        if not 0 < self.overlap < self.patch_h:
            raise ConfigError(
                f"OverlapRowDrop: need 0 < overlap < patch_h, got "
                f"overlap={self.overlap}, patch_h={self.patch_h}")


@dataclass(frozen=True)
class NoDrop:
    """Single branch, nothing dropped."""


# the one name -> class table of drop schemes; configs and checkpoints name
# a scheme by its key
DROP_SCHEMES = {
    "uniform": UniformRowDrop,
    "overlap": OverlapRowDrop,
    "none": NoDrop,
    "element_dropout": ElementDropout,
    "spatial_dropout": SpatialDropout,
    "batch_dropout": BatchDropout,
    "dropblock": DropBlock,
    "batch_dropblock": BatchDropBlock,
}

DropStrategyKind = Union[tuple(DROP_SCHEMES.values())]


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


# no caller in the package: perfbench/spans.py wraps it by name
def apply_mask(feature_map, mask) -> Array:
    """Multiply an (H, W, C) or (N, H, W, C) map by an (H, W) mask.

    The mask broadcasts over channels (and the batch axis when present);
    the input array is left unmodified.
    """
    fm = np.asarray(feature_map, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2:
        raise ShapeError(f"apply_mask: mask must be 2-d, got {mask.shape}")
    if fm.ndim == 3:
        if fm.shape[:2] != mask.shape:
            raise ShapeError(f"apply_mask: map {fm.shape} vs mask {mask.shape}")
        return fm * mask[:, :, None]
    if fm.ndim == 4:
        if fm.shape[1:3] != mask.shape:
            raise ShapeError(f"apply_mask: map {fm.shape} vs mask {mask.shape}")
        return fm * mask[None, :, :, None]
    raise ShapeError(f"apply_mask: map must be 3-d or 4-d, got {fm.shape}")


def branch_masks(kind: DropStrategyKind, height: int, width: int) -> list[Array]:
    """All branch masks of a deterministic schedule, in branch order.

    Branch i's mask is a float64 (height, width) grid of ones with the rows
    of range i zeroed; NoDrop is the one empty range, a single all-ones
    mask. Randomized kinds have no fixed masks and are rejected here (see
    ``baseline_mask``).
    """
    if width <= 0:
        raise ConfigError(f"branch_masks: width must be positive, got {width}")
    if isinstance(kind, NoDrop):
        ranges = ((0, 0),)
    elif isinstance(kind, UniformRowDrop):
        ranges = uniform_row_partition(height, kind.m)
    elif isinstance(kind, OverlapRowDrop):
        ranges = overlap_row_partition(height, kind.patch_h, kind.overlap)
    else:
        raise ConfigError(f"branch_masks: {type(kind).__name__} is not deterministic")
    masks = []
    for start, end in ranges:
        mask = np.ones((height, width))
        mask[start:end] = 0.0
        masks.append(mask)
    return masks


def baseline_mask(kind: DropStrategyKind, height: int, width: int, channels: int,
                  rng: np.random.Generator, batch_size: int = 1) -> Array:
    """Draw one batch worth of masks for a randomized dropout strategy.

    Returns a float64 array of shape (batch_size, height, width, channels).
    Per-batch strategies (BatchDropout, BatchDropBlock) repeat one draw over
    the batch axis; per-sample strategies draw independently per sample.
    Only ElementDropout rescales kept entries; the block-style strategies
    stay plain keep/drop.
    """
    if min(height, width, channels, batch_size) <= 0:
        raise ConfigError("baseline_mask: all dimensions must be positive")
    shape = (batch_size, height, width, channels)

    if isinstance(kind, ElementDropout):
        if kind.rate == 0.0:
            return np.ones(shape)
        keep = rng.random(shape) >= kind.rate
        return keep.astype(np.float64) / (1.0 - kind.rate)

    if isinstance(kind, (SpatialDropout, BatchDropout)):
        keep = np.ones(shape)
        if kind.rate > 0.0:
            n = batch_size if isinstance(kind, SpatialDropout) else 1
            keep *= rng.random((n, 1, 1, channels)) >= kind.rate
        return keep

    if isinstance(kind, DropBlock):
        kind.check_fits(height, width)
        masks = np.ones(shape)
        for n in range(batch_size):
            if kind.rate < 1.0 and rng.random() >= kind.rate:
                continue
            top = int(rng.integers(0, height - kind.block_h + 1))
            left = int(rng.integers(0, width - kind.block_w + 1))
            masks[n, top:top + kind.block_h, left:left + kind.block_w, :] = 0.0
        return masks

    if isinstance(kind, BatchDropBlock):
        masks = np.ones(shape)
        rows = int(round(kind.rows_fraction * height))
        if rows > 0:
            top = int(rng.integers(0, height - rows + 1))
            masks[:, top:top + rows, :, :] = 0.0
        return masks

    raise ConfigError(f"baseline_mask: {type(kind).__name__} is not a randomized strategy")
