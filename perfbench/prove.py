"""Record each workload's quality per seed, then check the benchmark's steadiness.

    python3 perfbench/prove.py

Writes ``perfbench/baseline.json``. First, for every workload ``run.py``
knows and each seed of REFERENCE_SEEDS, runs one command and records its
``quality_map`` and ``quality_rank1``; ``run.py`` fails every later command
whose figures differ from these. Then, for each workload of BENCHMARK.json,
runs ``run.py --trace 0`` once per seed of SEEDS and one ``--trace 1`` run.
For every end-to-end metric it reports the median and the quartile spread,
(Q3 - Q1) / median with the quartiles of ``statistics.quantiles(values,
n=4)``, and whether the spread stays below a third of the metric's bound in
BENCHMARK.json. The record also carries the
machine: nproc, python, numpy, BLAS and its thread count, L2 and L3 sizes
next to the re-ranking matrix size, and the git commit.

Run it from the root of a checkout; it takes about 45 minutes. Exits 1 when a
run fails or a spread is not below a third of its bound.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)
REFERENCE_SEEDS = range(0, 32)


def cache_sizes() -> dict[str, int | None]:
    """Data/unified cache sizes of cpu0 by level, as Linux lists them."""
    sizes: dict[str, int | None] = {"l2_bytes": None, "l3_bytes": None}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Data", "Unified") and level in ("2", "3"):
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            sizes[f"l{level}_bytes"] = int(size.rstrip("KM")) * scale
    return sizes


def reference_quality(name: str, work: Path) -> dict[str, dict]:
    """One command per reference seed; its quality figures by seed."""
    out = {}
    for seed in REFERENCE_SEEDS:
        prepared = workloads.prepare(name, seed, work / "inputs")
        rep = run.run_rep(prepared, work, seed, False,
                          time.perf_counter() + run.HARD_LIMIT_S)
        if rep.errors:
            raise RuntimeError(f"{name} seed {seed}: {rep.errors}")
        out[str(seed)] = run.quality(rep.metrics, prepared.quality_split)
    print(f"{name}: quality recorded for seeds {REFERENCE_SEEDS.start}-"
          f"{REFERENCE_SEEDS.stop - 1}", flush=True)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; returns its result line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    for line in proc.stdout.splitlines():
        if line.startswith("FAIL") or line.startswith("no quality recorded"):
            print(f"  {line}", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def write(record: dict) -> None:
    run.BASELINE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    record = {"seeds": list(SEEDS), "reference_seeds": list(REFERENCE_SEEDS),
              "seconds": spec["run_seconds"], "commit": run.git_commit(ROOT),
              "machine": {**run.machine(), **cache_sizes()},
              "workloads": {name: {} for name in workloads.NAMES}}
    work = ROOT / ".perfbench_work" / f"prove-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for name in workloads.NAMES:
            record["workloads"][name]["quality_by_seed"] = \
                reference_quality(name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    write(record)  # the runs below check their quality against it

    steady = True
    for name in names:
        results = []
        for seed in SEEDS:
            result = run_once(name, seed, spec["run_seconds"], 0)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
            steady &= result["correct"]
            results.append(result)
        traced = run_once(name, SEEDS[0], spec["run_seconds"], 1)
        steady &= traced["correct"]
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            row = {"values": values, **spread(values), "bound": metric["bound"]}
            row["steady"] = row["spread"] < metric["bound"] / 3
            steady &= row["steady"]
            rows[metric["name"]] = row
            print(f"  {metric['name']:<16} median {row['median']:.6g} "
                  f"spread {row['spread']:.4f} bound {metric['bound']} "
                  f"{'ok' if row['steady'] else 'NOT STEADY'}", flush=True)
        record["workloads"][name].update(
            end_to_end=rows, per_layer_seed=SEEDS[0],
            per_layer={k: v["value"] for k, v in traced["metrics"].items()})
    rerank = record["workloads"].get("rerank_eval")
    if rerank:
        record["machine"]["rerank_matrix_bytes"] = \
            rerank["per_layer"]["retrieval_eval.rerank_matrix_bytes"]
    write(record)
    print(f"wrote {run.BASELINE}; {'steady' if steady else 'NOT steady'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
