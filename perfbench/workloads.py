"""The benchmark's workloads: run configs, generated inputs, expected counts.

Every input is a pure function of the workload seed. The figures the
outputs must reproduce (``num_valid_queries``, log length) are derived here
from the inputs alone, independently of the program.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Acceptance criterion 7's data section: 30 ids x 20 samples, 8x4x6 grids,
# every query occluded.
TRAIN_DATA = {
    "num_ids": 30, "samples_per_id": 20, "num_cameras": 3,
    "height": 8, "width": 4, "channels": 6, "part_count": 4,
    "noise_sigma": 0.25, "camera_shift_sigma": 0.5,
    "occlusion_fraction": 0.25, "occluded_query_prob": 1.0,
}
TRAIN_MODEL = {
    "feat_channels": 64, "embed_dim": 32, "epochs": 50,
    "warmup_epochs": 5, "decay_epochs": [30, 42],
}
TRAIN_EVAL = {"ks": [1, 5]}

# data_synth's per-identity split: the first 60% of an id's samples train,
# the next 20% are queries, the rest gallery; cameras cycle over samples.
TRAIN_FRACTION = 0.6
QUERY_FRACTION = 0.2

# rerank_eval: identity-clustered embeddings over three cameras.
RERANK_IDS = 150
RERANK_QUERIES_PER_ID = 3
RERANK_GALLERY_PER_ID = 9
RERANK_DIM = 32
RERANK_CAMERAS = 3
RERANK_CAMERA_SIGMA = 0.35
RERANK_NOISE_SIGMA = 0.8
RERANK_EVAL = {"ks": [1, 5, 10], "rerank": True, "k1": 20, "k2": 6,
               "lambda_value": 0.3}

NAMES = ("train_consecutive", "train_dropblock_triplet", "rerank_eval")

# mAP a working program always beats on these inputs: trained models score
# 0.6-0.87 over seeds 1-30 and re-ranking 0.73-0.77, a random ranking ~0.05.
TRAIN_MAP_FLOOR = 0.3
RERANK_MAP_FLOOR = 0.5


@dataclass(frozen=True)
class Prepared:
    """One workload's command and what its outputs must show."""

    argv: list[str]  # elasticdrop arguments without --out
    config: Path
    quality_split: str  # metrics.json section that carries the quality figures
    expected_valid: dict[str, int]  # split -> num_valid_queries
    epochs: int  # rows train_log.csv must hold; 0 when no log is written
    quality_floor: float  # mAP must exceed this


def _valid_train_queries(data: dict) -> dict[str, int]:
    """Queries with a same-id gallery sample on another camera, per split."""
    n = data["samples_per_id"]
    n_train = max(1, min(round(TRAIN_FRACTION * n), n - 2))
    n_query = max(1, min(round(QUERY_FRACTION * n), n - n_train - 1))
    cams = data["num_cameras"]
    gallery_cams = {s % cams for s in range(n_train + n_query, n)}
    per_id = sum(1 for s in range(n_train, n_train + n_query)
                 if gallery_cams - {s % cams})
    # occluded_query_prob is 1.0, so every query lands in the occluded split
    return {"clean": 0, "occluded": per_id * data["num_ids"]}


def train_config(name: str, seed: int) -> dict:
    model = dict(TRAIN_MODEL, seed=seed)
    if name == "train_consecutive":
        model.update(branches=4, drop_scheme={"kind": "uniform", "m": 4},
                     loss="elastic")
    else:
        # one randomized branch, block as ablate-dropout builds it for m=4
        model.update(branches=1, loss="triplet",
                     drop_scheme={"kind": "dropblock", "block_h": 2, "block_w": 2})
    return {"data": dict(TRAIN_DATA, seed=seed), "model": model,
            "eval": TRAIN_EVAL}


def _unit_rms(rows):
    return rows / np.sqrt(np.mean(rows * rows, axis=1, keepdims=True))


def rerank_sets(seed: int):
    """(query, gallery) rows of (id, camera, vector) for rerank_eval."""
    rng = np.random.default_rng([seed, 7])
    # unit-rms centres and fixed-size camera shifts keep the difficulty, and
    # so the quality figures, close from one seed to the next
    centers = _unit_rms(rng.normal(size=(RERANK_IDS, RERANK_DIM)))
    shifts = RERANK_CAMERA_SIGMA * _unit_rms(
        rng.normal(size=(RERANK_CAMERAS, RERANK_DIM)))

    def draw(per_id):
        ids = np.repeat(np.arange(RERANK_IDS), per_id)
        cams = np.tile(np.arange(per_id) % RERANK_CAMERAS, RERANK_IDS)
        vecs = (centers[ids] + shifts[cams]
                + rng.normal(0.0, RERANK_NOISE_SIGMA, size=(ids.size, RERANK_DIM)))
        order = rng.permutation(ids.size)
        return ids[order], cams[order], vecs[order]

    return draw(RERANK_QUERIES_PER_ID), draw(RERANK_GALLERY_PER_ID)


def embedding_csv(ids, cams, vecs) -> str:
    """The eval command's embedding CSV: id, camera, then the floats."""
    lines = ["id,camera," + ",".join(f"f{i}" for i in range(vecs.shape[1]))]
    for pid, cam, row in zip(ids.tolist(), cams.tolist(), vecs.tolist()):
        lines.append(f"{pid},{cam}," + ",".join(repr(x) for x in row))
    return "\n".join(lines) + "\n"


def _valid_rerank_queries(query, gallery) -> int:
    q_ids, q_cams, _ = query
    g_ids, g_cams, _ = gallery
    seen = set(zip(g_ids.tolist(), g_cams.tolist()))
    cams_by_id: dict[int, set] = {}
    for pid, cam in seen:
        cams_by_id.setdefault(pid, set()).add(cam)
    return sum(1 for pid, cam in zip(q_ids.tolist(), q_cams.tolist())
               if cams_by_id.get(pid, set()) - {cam})


def prepare(name: str, seed: int, work_dir: Path) -> Prepared:
    """Write the workload's inputs under work_dir and describe its command."""
    work_dir.mkdir(parents=True, exist_ok=True)
    config = work_dir / "config.json"
    if name == "rerank_eval":
        config.write_text(json.dumps({"eval": RERANK_EVAL}, sort_keys=True))
        query, gallery = rerank_sets(seed)
        (work_dir / "query.csv").write_text(embedding_csv(*query))
        (work_dir / "gallery.csv").write_text(embedding_csv(*gallery))
        return Prepared(
            argv=["eval", "--config", str(config),
                  "--query-csv", str(work_dir / "query.csv"),
                  "--gallery-csv", str(work_dir / "gallery.csv")],
            config=config, quality_split="all",
            expected_valid={"all": _valid_rerank_queries(query, gallery)},
            epochs=0, quality_floor=RERANK_MAP_FLOOR)
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    doc = train_config(name, seed)
    config.write_text(json.dumps(doc, sort_keys=True))
    return Prepared(argv=["train", "--config", str(config)], config=config,
                    quality_split="occluded",
                    expected_valid=_valid_train_queries(doc["data"]),
                    epochs=doc["model"]["epochs"],
                    quality_floor=TRAIN_MAP_FLOOR)
