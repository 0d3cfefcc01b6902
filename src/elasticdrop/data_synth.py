"""Seeded synthetic multi-camera identity images with vertical part structure.

Each identity owns one signature vector per horizontal band; a sample paints
band j with signature j across all of that band's cells, then adds a
camera-specific channel shift and i.i.d. gaussian noise. Occlusion zeroes a
fraction of rows from the bottom, which is how the occluded query split is
produced. Everything is a pure function of the config, so identical configs
give bit-identical datasets.

Per identity the samples are split 60/20/20 into train/query/gallery (in
sample order, so splits are disjoint and every query id exists in the
gallery); cameras cycle round-robin over a given id's samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_array_bytes

Array = np.ndarray

TRAIN_FRACTION = 0.6
QUERY_FRACTION = 0.2


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    num_ids: int = 30
    samples_per_id: int = 20
    num_cameras: int = 3
    height: int = 8
    width: int = 4
    channels: int = 6
    part_count: int = 4
    noise_sigma: float = 0.25
    camera_shift_sigma: float = 0.5
    occlusion_fraction: float = 0.25
    occluded_query_prob: float = 0.5

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"SynthConfig: seed must be non-negative, "
                              f"got {self.seed}")
        if self.num_ids < 1 or self.samples_per_id < 2 or self.num_cameras < 1:
            raise ConfigError("SynthConfig: need >= 1 id, >= 2 samples/id, >= 1 camera")
        if min(self.height, self.width, self.channels, self.part_count) < 1:
            raise ConfigError("SynthConfig: dimensions must be positive")
        if self.height % self.part_count != 0:
            raise ConfigError(
                f"SynthConfig: part_count={self.part_count} must divide "
                f"height={self.height}")
        # by the sign bit, as numpy's normal() checks a scale: -0.0 too
        if any(math.copysign(1.0, s) < 0
               for s in (self.noise_sigma, self.camera_shift_sigma)):
            raise ConfigError("SynthConfig: sigmas must be non-negative")
        if not (0.0 <= self.occlusion_fraction <= 1.0
                and 0.0 <= self.occluded_query_prob <= 1.0):
            raise ConfigError("SynthConfig: fractions must lie in [0, 1]")
        check_array_bytes("SynthConfig", {
            "images (num_ids * samples_per_id, height, width, channels)":
                (self.num_ids * self.samples_per_id, self.height, self.width,
                 self.channels),
            "camera shifts (num_cameras, channels)":
                (self.num_cameras, self.channels)})


@dataclass
class Sample:
    image: Array
    id: int
    camera: int
    occluded: bool


@dataclass
class SynthDataset:
    train: list[Sample]
    query: list[Sample]
    gallery: list[Sample]


def occlude(image: Array, fraction: float) -> Array:
    """Zero the bottom round(fraction * H) rows; top rows are untouched."""
    out = np.array(image, dtype=np.float64)
    rows = int(round(fraction * out.shape[0]))
    if rows > 0:
        out[out.shape[0] - rows:, :, :] = 0.0
    return out


def _render(signatures: Array, shift: Array, noise: Array, part_count: int,
            out: Array) -> None:
    """Paint the bands into ``out``, then add the shift and the noise."""
    band = out.shape[0] // part_count
    for j in range(part_count):
        out[j * band:(j + 1) * band, :, :] = signatures[j]
    out += shift
    out += noise


def generate(config: SynthConfig) -> SynthDataset:
    """Materialize the train/query/gallery splits for one config.

    Every image is a view into one (num_ids * samples_per_id, H, W, C) array,
    allocated before the first sample is drawn, so a dataset the host cannot
    hold raises MemoryError up front instead of growing sample by sample.
    """
    rng = np.random.default_rng(config.seed)
    c = config
    signatures = rng.normal(0.0, 1.0, size=(c.num_ids, c.part_count, c.channels))
    camera_shift = rng.normal(0.0, c.camera_shift_sigma,
                              size=(c.num_cameras, c.channels))

    n_train = int(round(TRAIN_FRACTION * c.samples_per_id))
    n_query = int(round(QUERY_FRACTION * c.samples_per_id))
    n_train = max(1, min(n_train, c.samples_per_id - 2))
    n_query = max(1, min(n_query, c.samples_per_id - n_train - 1))

    images = np.empty((c.num_ids * c.samples_per_id, c.height, c.width,
                       c.channels))
    train: list[Sample] = []
    query: list[Sample] = []
    gallery: list[Sample] = []
    for pid in range(c.num_ids):
        for s in range(c.samples_per_id):
            camera = s % c.num_cameras
            noise = rng.normal(0.0, c.noise_sigma,
                               size=(c.height, c.width, c.channels))
            image = images[pid * c.samples_per_id + s]
            _render(signatures[pid], camera_shift[camera], noise,
                    c.part_count, image)
            occluded = False
            if n_train <= s < n_train + n_query:
                occluded = bool(rng.random() < c.occluded_query_prob)
                if occluded:
                    image[...] = occlude(image, c.occlusion_fraction)
            sample = Sample(image=image, id=pid, camera=camera, occluded=occluded)
            if s < n_train:
                train.append(sample)
            elif s < n_train + n_query:
                query.append(sample)
            else:
                gallery.append(sample)
    return SynthDataset(train=train, query=query, gallery=gallery)


def stack_images(samples: list[Sample]) -> tuple[Array, np.ndarray, np.ndarray]:
    """(images, ids, cameras) arrays for a list of samples."""
    images = np.stack([s.image for s in samples])
    ids = np.array([s.id for s in samples], dtype=np.int64)
    cameras = np.array([s.camera for s in samples], dtype=np.int64)
    return images, ids, cameras


def pk_batches(ids, p: int, k: int, seed) -> list[np.ndarray]:
    """Identity-balanced index batches: p distinct ids with k samples each.

    Samples are chunked per id without replacement for one epoch; leftover
    chunks that cannot fill a batch of p distinct ids are dropped.
    Deterministic given the seed.
    """
    ids = np.asarray(ids)
    if p < 1 or k < 1:
        raise ConfigError(f"pk_batches: p={p}, k={k} must be positive")
    rng = np.random.default_rng(seed)
    units: list[tuple[int, np.ndarray]] = []
    eligible = 0
    for pid in np.unique(ids):
        idx = np.flatnonzero(ids == pid)
        if idx.size >= k:
            eligible += 1
        rng.shuffle(idx)
        for start in range(0, idx.size - k + 1, k):
            units.append((int(pid), idx[start:start + k]))
    if eligible < p:
        raise ConfigError(
            f"pk_batches: need {p} ids with >= {k} samples, found {eligible}")
    order = rng.permutation(len(units))
    pool = [units[i] for i in order]

    batches: list[np.ndarray] = []
    while True:
        chosen: list[int] = []
        used_ids: set[int] = set()
        for i, (pid, _) in enumerate(pool):
            if pid not in used_ids:
                chosen.append(i)
                used_ids.add(pid)
                if len(chosen) == p:
                    break
        if len(chosen) < p:
            break
        batches.append(np.concatenate([pool[i][1] for i in chosen]))
        for i in reversed(chosen):
            pool.pop(i)
    return batches

