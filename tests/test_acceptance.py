"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import naive_evaluate, random_retrieval_instance, rerank_reference

from elasticdrop.cli import main, run_config_from_dict, run_train_eval
from elasticdrop.dropmask import (NoDrop, overlap_row_partition,
                                  uniform_row_partition)
from elasticdrop.elastic_loss import (batch_elastic_loss,
                                      batch_hard_triplet_loss, elastic_weight,
                                      sq_dist_matrix)
from elasticdrop.gradcheck import run_gradient_checks
from elasticdrop.retrieval_eval import (RetrievalSet, evaluate,
                                        k_reciprocal_rerank)


def _report(num: int, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} ({elapsed:.2f}s) {detail}")


def test_criterion_1_weight_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 100_000
    max_pos = np.concatenate([rng.uniform(0.0, 50.0, n // 2),
                              rng.exponential(10.0, n // 2)])
    min_neg = np.concatenate([rng.uniform(0.0, 50.0, n // 2),
                              rng.exponential(10.0, n // 2)])
    _, w = elastic_weight(max_pos, min_neg)
    violations = int(((w < 0.5) | (w >= 1.0)).sum())
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 1.0
    _report(1, ok, elapsed, f"violations={violations}/{n}")
    assert violations == 0
    assert elapsed < 1.0


def test_criterion_2_reduction_to_hard_triplet():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 17))
        ids = rng.integers(0, 4, size=n)
        ids[0], ids[1] = 0, 1
        vectors = rng.normal(size=(1, n, int(rng.integers(2, 9))))
        elastic, _ = batch_elastic_loss(vectors, ids, 3.0, 1.0)
        hard, _ = batch_hard_triplet_loss(vectors, ids, 3.0)
        worst = max(worst, abs(elastic - hard))
    # multi-branch form as well
    for _ in range(20):
        ids = np.repeat(np.arange(3), 4)
        vectors = rng.normal(size=(3, 12, 5))
        frozen = sum(batch_elastic_loss(v[None], ids, 3.0, 1.0)[0]
                     for v in vectors)
        plain, _ = batch_hard_triplet_loss(vectors, ids, 3.0)
        # same unit count per branch here, so the means agree
        worst = max(worst, abs(frozen / 3.0 - plain))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    _report(2, ok, elapsed, f"max |elastic(w=1) - hard| = {worst:.3e}")
    assert worst < 1e-12
    assert elapsed < 5.0


def test_criterion_3_gradient_fidelity():
    start = time.perf_counter()
    report = run_gradient_checks(seed=0, trials=10)
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{s['name']}={s['max_rel_error']:.2e}"
                       for s in report["suites"])
    ok = report["passed"] and elapsed < 30.0
    _report(3, ok, elapsed, detail)
    assert report["passed"], detail
    assert elapsed < 30.0


def test_criterion_4_mask_algebra():
    start = time.perf_counter()
    width = 8
    checked = 0
    for h in range(1, 49):
        for m in range(1, 13):
            if h % m:
                continue
            part = uniform_row_partition(h, m)
            zero_sets = [set(range(s, e)) for s, e in part]
            assert set().union(*zero_sets) == set(range(h))
            for i, rows in enumerate(zero_sets):
                assert len(rows) * width == (h // m) * width
                for other in zero_sets[i + 1:]:
                    assert not rows & other
            checked += 1
    overlap_checked = 0
    for h in range(2, 49):
        for patch_h in range(2, h + 1):
            for overlap in range(1, patch_h):
                part = overlap_row_partition(h, patch_h, overlap)
                union = set()
                for s, e in part:
                    union |= set(range(s, e))
                assert union == set(range(h))
                overlap_checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _report(4, ok, elapsed,
            f"uniform configs={checked}, overlap configs={overlap_checked}")
    assert elapsed < 5.0


def test_criterion_5_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(555)
    ks = [1, 3, 5, 10]
    for _ in range(200):
        q_desc, q_ids, q_cams, g_desc, g_ids, g_cams = \
            random_retrieval_instance(rng, max_n=30)
        metrics = evaluate(RetrievalSet(q_desc, q_ids, q_cams),
                           RetrievalSet(g_desc, g_ids, g_cams), ks=ks)
        ranks, m_ap, counted = naive_evaluate(q_desc, q_ids, q_cams,
                                              g_desc, g_ids, g_cams, ks)
        assert metrics.num_valid_queries == counted
        assert metrics.mAP == m_ap
        for k in ks:
            assert metrics.rank_k[k] == ranks[k]
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(5, ok, elapsed, "200 instances, exact equality incl. junk filtering")
    assert elapsed < 10.0


def test_criterion_6_rerank_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(666)
    worst = 0.0
    for _ in range(50):
        nq = int(rng.integers(2, 21))
        ng = int(rng.integers(2, 21))
        d = int(rng.integers(2, 6))
        q = rng.normal(size=(nq, d))
        g = rng.normal(size=(ng, d))
        total = nq + ng
        k1 = int(rng.integers(1, min(20, total - 1) + 1))
        k2 = int(rng.integers(1, min(6, total - 1) + 1))
        lam = float(rng.uniform(0.0, 1.0))
        fast = k_reciprocal_rerank(sq_dist_matrix(q, g), sq_dist_matrix(q, q),
                                   sq_dist_matrix(g, g), k1=k1, k2=k2,
                                   lambda_value=lam)
        ref = rerank_reference(sq_dist_matrix(q, g), sq_dist_matrix(q, q),
                               sq_dist_matrix(g, g), k1=k1, k2=k2,
                               lambda_value=lam)
        worst = max(worst, float(np.abs(fast - ref).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 20.0
    _report(6, ok, elapsed, f"max abs diff = {worst:.3e} over 50 instances")
    assert worst < 1e-9
    assert elapsed < 20.0


TREND_CONFIG = {
    "data": {"num_ids": 30, "samples_per_id": 20, "num_cameras": 3,
             "height": 8, "width": 4, "channels": 6, "part_count": 4,
             "noise_sigma": 0.25, "camera_shift_sigma": 0.5,
             "occlusion_fraction": 0.25, "occluded_query_prob": 1.0,
             "seed": 0},
    "model": {"feat_channels": 64, "embed_dim": 32, "branches": 4,
              "drop_scheme": {"kind": "uniform", "m": 4}, "epochs": 50,
              "warmup_epochs": 5, "decay_epochs": [30, 42], "seed": 0},
    "eval": {"ks": [1, 5]},
}


def test_criterion_7_desk_scale_trend():
    start = time.perf_counter()
    base = run_config_from_dict(TREND_CONFIG)
    variants = {
        "drop_elastic": base.model,
        "nodrop_elastic": replace(base.model, drop_scheme=NoDrop()),
        "drop_triplet": replace(base.model, loss="triplet"),
    }
    rank1 = {name: [] for name in variants}
    m_ap = {name: [] for name in variants}
    for seed in range(5):
        for name, model_cfg in variants.items():
            cfg = replace(base, data=replace(base.data, seed=seed),
                          model=replace(model_cfg, seed=seed))
            _, _, metrics = run_train_eval(cfg)
            rank1[name].append(metrics["occluded"]["rank"]["1"])
            m_ap[name].append(metrics["occluded"]["mAP"])
    mean = {name: float(np.mean(vals)) for name, vals in rank1.items()}
    strict_wins = sum(a > b for a, b in zip(rank1["drop_elastic"],
                                            rank1["nodrop_elastic"]))
    a_ok = (mean["drop_elastic"] >= mean["nodrop_elastic"] - 0.005
            and strict_wins >= 3)
    map_elastic = float(np.mean(m_ap["drop_elastic"]))
    map_triplet = float(np.mean(m_ap["drop_triplet"]))
    b_ok = map_elastic >= map_triplet - 0.005
    elapsed = time.perf_counter() - start
    ok = a_ok and b_ok and elapsed < 600.0
    _report(7, ok, elapsed,
            f"(a) drop R1={mean['drop_elastic']:.3f} vs "
            f"no-drop R1={mean['nodrop_elastic']:.3f}, wins={strict_wins}/5; "
            f"(b) elastic mAP={map_elastic:.3f} vs triplet mAP={map_triplet:.3f}")
    assert a_ok, (mean, strict_wins)
    assert b_ok, (map_elastic, map_triplet)
    assert elapsed < 600.0


def test_criterion_8_train_determinism(tmp_path):
    start = time.perf_counter()
    doc = {
        "data": {"seed": 3, "num_ids": 8, "samples_per_id": 8,
                 "num_cameras": 2, "height": 4, "width": 2, "channels": 3,
                 "part_count": 2, "occluded_query_prob": 0.5},
        "model": {"feat_channels": 8, "embed_dim": 4, "branches": 2,
                  "drop_scheme": {"kind": "uniform", "m": 2}, "epochs": 4,
                  "warmup_epochs": 1, "decay_epochs": [4], "batch_p": 2,
                  "batch_k": 2, "seed": 3},
        "eval": {"ks": [1, 5]},
        "output_dir": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "a")]) == 0
    first = (tmp_path / "a" / "metrics.json").read_bytes()
    assert main(["train", "--config", str(cfg_path),
                 "--out", str(tmp_path / "b")]) == 0
    second = (tmp_path / "b" / "metrics.json").read_bytes()
    ok = first == second
    elapsed = time.perf_counter() - start
    _report(8, ok, elapsed, f"metrics.json {len(first)} bytes, byte-identical")
    assert ok
