"""elasticdrop benchmark: one workload through the public CLI, outputs checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Load is a closed loop with one client:
each command (``elasticdrop.cli.main``) runs in a fresh interpreter
(``child.py``), and the next starts only after it ends, for ``--seconds``
(at least three commands), starting a command only while it should end in
time. Set-up probes run before and after the commands, and the fixed
reference task (``reference.py``) before the first command and after each
one, so that every command's wall time is also read as a multiple of the
reference task's (``wall_ref``). With ``--trace 0``
the last line reports the end-to-end metrics listed in BENCHMARK.json; with
``--trace 1`` untraced and traced commands alternate and it reports the
per-layer metrics: spans from the traced ones, CPU time and page faults
from the untraced ones. The last line of stdout is always
one JSON object: correct, attempted, failed, metrics.

Exit codes: 0 result printed, 2 the program could not be set up (no result).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HARD_LIMIT_S = 170.0  # whole run, including set-up probes
SETUP_PROBES = 4  # before the commands, and as many after them
MIN_REPS = 3
# The program's BLAS pool: OpenBLAS's own default of one thread per usable
# CPU, set explicitly so that it never exceeds nproc.
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Quality figures of the occluded split (train) or all queries (rerank_eval).
# Not metrics of BENCHMARK.json: they do not measure speed. Instead every
# command must reproduce, within QUALITY_TOLERANCE, the figures baseline.json
# records for its workload and seed, so a change that alters results fails.
QUALITY_UNITS = {"quality_map": "ratio", "quality_rank1": "ratio"}
BASELINE = BENCH_DIR / "baseline.json"
# Both figures depend only on rankings: scaling every linear layer's output
# by 1 + 1e-9 leaves them exactly unchanged on the train workloads, 1 + 1e-5
# moves mAP by about 0.012. One flipped train query moves rank-1 by 0.008.
QUALITY_TOLERANCE = 0.005
RUSAGE_KEYS = ("os.user_s", "os.sys_s", "os.minor_faults")


class SetupFailed(Exception):
    """The program cannot even be imported and configured."""


@dataclass
class Rep:
    traced: bool
    setup_s: float = math.nan
    wall_s: float = math.nan
    wall_ref: float = math.nan
    rusage: dict = field(default_factory=dict)  # RUSAGE_KEYS
    peak_rss_kb: float = math.nan
    digests: dict = field(default_factory=dict)
    metrics: dict | None = None
    layer: dict | None = None
    missing: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_ENV})
    return env


def _run_child(config: Path, result: Path, deadline: float, extra=(),
               stdout=subprocess.DEVNULL) -> tuple[dict | None, str]:
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--root", str(ROOT),
           "--config", str(config), "--result", str(result), *extra]
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        return None, "no time left before the run's hard limit"
    try:
        proc = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE,
                              env=_child_env(), timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        return None, f"command killed after {timeout:.0f} s"
    if proc.returncode != 0 or not result.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        return None, f"child exited {proc.returncode}: {tail[0]}"
    return json.loads(result.read_text()), ""


def reference_probe(deadline: float) -> float:
    """Seconds the fixed reference task takes now, in a fresh interpreter."""
    timeout = deadline - time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "reference.py")],
                              capture_output=True, text=True, env=_child_env(),
                              timeout=max(timeout, 0.001))
        return float(proc.stdout)
    except (subprocess.TimeoutExpired, ValueError) as exc:
        raise SetupFailed(f"reference task failed: {exc}") from exc


def setup_probe(prepared, work: Path, deadline: float) -> float:
    out, err = _run_child(prepared.config, work / "probe.json", deadline)
    if out is None:
        raise SetupFailed(err)
    return out["setup_s"]


# --- output checks ------------------------------------------------------------

def _numbers(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from _numbers(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _numbers(v)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


def check_outputs(prepared, out_dir: Path) -> tuple[dict | None, list[str]]:
    """Parse and check one command's output files; returns (metrics, errors)."""
    errors = []
    try:
        metrics = json.loads((out_dir / "metrics.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"metrics.json unreadable: {exc}"]
    if not all(math.isfinite(x) for x in _numbers(metrics)):
        errors.append("metrics.json holds a non-finite number")
    for split, expected in prepared.expected_valid.items():
        got = metrics.get(split, {}).get("num_valid_queries")
        if got != expected:
            errors.append(f"{split}: num_valid_queries {got}, expected {expected}")
    part = metrics.get(prepared.quality_split, {})
    m_ap, rank1 = part.get("mAP"), part.get("rank", {}).get("1")
    if not (isinstance(m_ap, float) and prepared.quality_floor < m_ap <= 1.0):
        errors.append(f"{prepared.quality_split}: mAP {m_ap!r} outside "
                      f"({prepared.quality_floor}, 1]")
    if not (isinstance(rank1, float) and 0.0 <= rank1 <= 1.0):
        errors.append(f"{prepared.quality_split}: rank-1 {rank1!r} outside [0, 1]")
    if prepared.epochs:
        errors += _check_train_files(out_dir, metrics.get("config_hash"),
                                     prepared.epochs)
    return metrics, errors


def _check_train_files(out_dir: Path, chash, epochs: int) -> list[str]:
    errors = []
    try:
        lines = (out_dir / "train_log.csv").read_text().splitlines()
        blob = json.loads((out_dir / "checkpoint.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"train outputs unreadable: {exc}"]
    if lines[:1] != [f"# config_hash={chash}"]:
        errors.append("train_log.csv config_hash differs from metrics.json")
    rows = [row.split(",") for row in lines[2:]]
    if len(rows) != epochs:
        errors.append(f"train_log.csv has {len(rows)} epochs, expected {epochs}")
    try:
        finite = all(math.isfinite(float(v)) for row in rows for v in row)
    except ValueError:
        finite = False
    if not finite:
        errors.append("train_log.csv holds a non-number or a non-finite number")
    if blob.get("config_hash") != chash:
        errors.append("checkpoint.json config_hash differs from metrics.json")
    if not all(math.isfinite(x) for x in _numbers(blob.get("params", {}))):
        errors.append("checkpoint.json holds a non-finite number")
    return errors


def _digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def run_rep(prepared, work: Path, index: int, traced: bool,
            deadline: float) -> Rep:
    rep = Rep(traced=traced)
    rep_dir = work / f"rep{index}"
    out_dir = rep_dir / "out"
    rep_dir.mkdir()
    extra = ["--run-id", str(index),
             "--argv", json.dumps(prepared.argv + ["--out", str(out_dir)])]
    if traced:
        extra += ["--spans", str(rep_dir / "spans.json")]
    with open(rep_dir / "stdout.txt", "w") as stdout:
        out, err = _run_child(prepared.config, rep_dir / "result.json",
                              deadline, extra, stdout)
    if out is None:
        rep.errors.append(err)
        return rep
    rep.setup_s, rep.wall_s = out["setup_s"], out["wall_s"]
    rep.rusage = {f"os.{key}": out[key] for key in ("user_s", "sys_s", "minor_faults")}
    rep.peak_rss_kb = out["peak_rss_kb"]
    if out["exit_code"] != 0:
        rep.errors.append(f"exit code {out['exit_code']}")
    rep.metrics, errors = check_outputs(prepared, out_dir)
    rep.errors += errors
    if out_dir.is_dir():
        rep.digests = _digests(out_dir)
    if traced:
        rows = json.loads((rep_dir / "spans.json").read_text())
        rep.layer = spans.layer_metrics(spans.load_spans(rows))
        rep.missing = out["missing"]
    shutil.rmtree(rep_dir)
    return rep


def compare_outputs(reps: list[Rep]) -> None:
    """Every command of one workload, commit and seed writes the same bytes."""
    reference = next((r for r in reps if r.digests), None)
    for rep in reps:
        if reference is None or rep is reference or not rep.digests:
            continue
        if rep.digests != reference.digests:
            changed = sorted(k for k in set(rep.digests) | set(reference.digests)
                             if rep.digests.get(k) != reference.digests.get(k))
            kind = "traced" if rep.traced else "untraced"
            rep.errors.append(f"{kind} outputs differ from the first: {changed}")


def quality(metrics: dict | None, split: str) -> dict[str, float]:
    """mAP and rank-1 of the quality split; NaN where metrics lack them."""
    part = (metrics or {}).get(split, {})
    return {"quality_map": part.get("mAP", math.nan),
            "quality_rank1": part.get("rank", {}).get("1", math.nan)}


def recorded_quality(workload: str, seed: int) -> dict | None:
    """The quality figures baseline.json records for this workload and seed."""
    try:
        doc = json.loads(BASELINE.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    by_seed = doc.get("workloads", {}).get(workload, {}).get("quality_by_seed", {})
    return by_seed.get(str(seed))


def check_quality(reps: list[Rep], split: str, recorded: dict) -> None:
    """Every command's quality matches the recorded figures for its seed."""
    for rep in reps:
        if rep.metrics is None:
            continue
        for key, got in quality(rep.metrics, split).items():
            if not (isinstance(got, float)
                    and abs(got - recorded[key]) <= QUALITY_TOLERANCE):
                rep.errors.append(f"{key} {got!r} differs from the recorded "
                                  f"{recorded[key]!r} by more than {QUALITY_TOLERANCE}")


# --- aggregation ----------------------------------------------------------------

def _median(values) -> float:
    """Median of the finite values; 0.0 when a failure left none."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.median(finite) if finite else 0.0


def end_to_end(reps: list[Rep], setups: list[float], refs: list[float],
               split: str) -> dict:
    plain = [r for r in reps if not r.traced]
    first = next((r.metrics for r in reps if r.metrics), None)
    return {
        "setup_s": _median(setups),
        "reference_s": _median(refs),
        "wall_ref": _median(r.wall_ref for r in plain),
        "wall_s": _median(r.wall_s for r in plain),
        "peak_rss_mb": _median(r.peak_rss_kb for r in plain) * 1024 / 1e6,
        **quality(first, split),
    }


def per_layer(reps: list[Rep], e2e: dict) -> dict:
    """Span figures from the traced commands; CPU time and page faults from
    the untraced ones, since tracing changes the program's heap layout."""
    traced = [r for r in reps if r.layer is not None]
    plain = [r for r in reps if not r.traced]
    out = {key: _median(r.layer[key] for r in traced)
           for key in traced[0].layer} if traced else {}
    out.update({key: _median(r.rusage.get(key, math.nan) for r in plain)
                for key in RUSAGE_KEYS})
    out["os.wall_s"] = e2e["wall_s"]
    out["os.reference_s"] = e2e["reference_s"]
    if traced:
        out["trace.overhead_s"] = _median(r.wall_s for r in traced) - e2e["wall_s"]
        out["trace.wrappers_missing"] = len(traced[0].missing)
    return out


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def provenance(args, reps: list[Rep], refs: list[float]) -> dict:
    return {
        **machine(), "commit": git_commit(ROOT),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "commands": len(reps), "traced_commands": sum(r.traced for r in reps),
        "wall_s": [r.wall_s for r in reps],
        "reference_s": refs,
        "sys_s": [r.rusage.get("os.sys_s", math.nan) for r in reps],
    }


def measure(args, work: Path, t0: float):
    deadline = t0 + HARD_LIMIT_S
    prepared = workloads.prepare(args.workload, args.seed, work / "inputs")
    setup_probe(prepared, work, deadline)  # warm-up: bytecode and file cache
    setups = [setup_probe(prepared, work, deadline) for _ in range(SETUP_PROBES)]
    refs = [reference_probe(deadline)]
    reps: list[Rep] = []
    took: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() < deadline:
        plain = sum(not r.traced for r in reps)
        traced = len(reps) - plain
        enough = (plain >= 1 and traced >= 1) if args.trace else plain >= MIN_REPS
        # start another command only if it should end within --seconds
        if enough and (time.perf_counter() - start + statistics.median(took)
                       > args.seconds):
            break
        rep_start = time.perf_counter()
        rep = run_rep(prepared, work, len(reps), bool(args.trace) and traced < plain,
                      deadline)
        refs.append(reference_probe(deadline))
        rep.wall_ref = rep.wall_s / ((refs[-2] + refs[-1]) / 2)
        took.append(time.perf_counter() - rep_start)
        reps.append(rep)
        if not math.isnan(rep.setup_s):
            setups.append(rep.setup_s)
    if time.perf_counter() < deadline - 10:  # else the commands used the time up
        setups += [setup_probe(prepared, work, deadline) for _ in range(SETUP_PROBES)]
    compare_outputs(reps)
    recorded = recorded_quality(args.workload, args.seed)
    if recorded is None:
        print(f"no quality recorded for {args.workload} seed {args.seed} in "
              f"{BASELINE.name}: only the mAP floor is checked")
    else:
        check_quality(reps, prepared.quality_split, recorded)
    return reps, setups, refs, prepared


def main(argv=None) -> int:
    t0 = time.perf_counter()
    # on SIGTERM unwind normally: subprocess.run kills and reaps the child
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "elasticdrop" / "cli.py").is_file():
        print(f"no elasticdrop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        reps, setups, refs, prepared = measure(args, work, t0)
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still works there
            pass

    e2e = end_to_end(reps, setups, refs, prepared.quality_split)
    values = per_layer(reps, e2e) if args.trace else e2e
    failed = sum(1 for r in reps if r.errors)
    absent = [m["name"] for m in wanted if m["name"] not in values]
    for i, rep in enumerate(reps):
        for err in rep.errors:
            print(f"FAIL command {i}: {err}")
    for name in sorted({m for r in reps for m in r.missing}):
        print(f"missing wrapped function: {name}")
    if absent:
        print(f"FAIL metrics not computed, reported as 0: {absent}")
    table = [(m["name"], values.get(m["name"], 0.0), m["unit"]) for m in wanted]
    table += [(name, e2e[name], unit) for name, unit in QUALITY_UNITS.items()]
    if not args.trace:
        # printed, not gated: the host's speed drifts by 10-30% over minutes,
        # between runs of one set as much as between commits; the gate is
        # wall_ref, each command's time over the reference task's around it
        table.append(("wall_s", e2e["wall_s"], "s"))
    table.append(("error_rate", failed / max(1, len(reps)),
                  f"ratio ({failed}/{len(reps)} commands)"))
    for name, value, unit in table:
        print(f"{name:<40} {value!r:>24} {unit}")
    print("provenance " + json.dumps(provenance(args, reps, refs), sort_keys=True))
    result = {
        "correct": failed == 0 and not absent and len(reps) >= 2,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
