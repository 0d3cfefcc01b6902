"""Byte identity of the program's outputs against a checked-in manifest.

    python3 tools/identity.py write [--root CHECKOUT] [--manifest PATH]
    python3 tools/identity.py check [--root CHECKOUT] [--manifest PATH]

Both build the same 33 files with the program in ``CHECKOUT/src`` (this
checkout by default), from the inputs that ``perfbench/workloads.py``
generates:

- ``metrics.json``, ``train_log.csv`` and ``checkpoint.json`` of
  ``train_consecutive`` and ``train_dropblock_triplet``, seeds 1-3;
- ``metrics.json`` of ``rerank_eval``, seeds 1-10;
- the ``gradcheck --seed 0 --out`` report;
- ``masks.txt`` and ``masks.csv`` of ``masks --out``, for the default
  scheme and for ``--scheme overlap --patch-h 4 --overlap 1 --height 24``.

``write`` records their sha256 digests in the manifest, with the numpy,
BLAS and CPU provenance of the host. ``check`` builds them again and names
every file whose digest differs (exit 1). The bytes hold for one BLAS build
and CPU kernel only: when the host's provenance differs from the
manifest's, ``check`` says so, builds nothing and exits 0. Each command
runs in a fresh interpreter with the benchmark's BLAS pool, one thread per
usable CPU; the whole build takes about 30 s on 2 cores.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
MANIFEST = HERE / "identity_manifest.json"
BLAS_THREADS = str(len(os.sched_getaffinity(0)))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRAIN_OUTPUTS = ("metrics.json", "train_log.csv", "checkpoint.json")
MASK_ARGS = {"uniform": [],
             "overlap": ["--scheme", "overlap", "--patch-h", "4",
                         "--overlap", "1", "--height", "24"]}


def _blas_core() -> str:
    """The kernel OpenBLAS picked for this CPU at run time, or "unknown"."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_corename64_",
                     "openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(handle, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return "unknown"


def provenance() -> dict:
    """What the bytes depend on besides the program: numpy, its SIMD
    targets, the BLAS build, kernel and pool size, the CPU architecture."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "numpy_simd": config["SIMD Extensions"]["found"],
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_core": _blas_core(), "blas_threads": int(BLAS_THREADS),
            "machine": platform.machine()}


def _run(root: Path, argv: list[str], cwd: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: BLAS_THREADS for var in BLAS_ENV})
    done = subprocess.run([sys.executable, "-m", "elasticdrop", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"elasticdrop {' '.join(argv)} exited "
                         f"{done.returncode}:\n{done.stderr}")


def build(root: Path) -> dict[str, str]:
    """sha256 of each of the 33 files, built by ``root``'s program, by name."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads

    runs = [(f"{name}/seed{seed}", name, seed, TRAIN_OUTPUTS)
            for name in ("train_consecutive", "train_dropblock_triplet")
            for seed in (1, 2, 3)]
    runs += [(f"rerank_eval/seed{seed}", "rerank_eval", seed, ("metrics.json",))
             for seed in range(1, 11)]
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for label, name, seed, outputs in runs:
            prepared = workloads.prepare(name, seed, work / label / "inputs")
            _run(root, [*prepared.argv, "--out", str(work / label)], work)
            digests.update({f"{label}/{out}": _sha256(work / label / out)
                            for out in outputs})
        _run(root, ["gradcheck", "--seed", "0", "--out",
                    str(work / "gradcheck")], work)
        digests["gradcheck/seed0/gradcheck.json"] = _sha256(
            work / "gradcheck" / "gradcheck.json")
        for scheme, args in MASK_ARGS.items():
            _run(root, ["masks", *args, "--out", str(work / scheme)], work)
            digests.update({f"masks/{scheme}/{out}": _sha256(work / scheme / out)
                            for out in ("masks.txt", "masks.csv")})
    return digests


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def differing(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Names, sorted, whose digest differs or that only one side holds."""
    return sorted(name for name in expected.keys() | actual.keys()
                  if expected.get(name) != actual.get(name))


def provenance_mismatch(recorded: dict, here: dict) -> list[str]:
    """One line per provenance key on which the manifest and the host differ."""
    return [f"{key}: manifest {recorded.get(key)!r}, here {here.get(key)!r}"
            for key in sorted(recorded.keys() | here.keys())
            if recorded.get(key) != here.get(key)]


def report(manifest: dict, here: dict, build_digests) -> tuple[int, list[str]]:
    """(exit code, lines) of a check of ``manifest`` on a host of provenance
    ``here``. ``build_digests()`` builds the files; it is called only when
    the provenance matches, since the bytes are not comparable otherwise."""
    mismatch = provenance_mismatch(manifest["provenance"], here)
    if mismatch:
        return 0, ["provenance differs from the manifest's; byte identity "
                   "not checked:", *(f"  {line}" for line in mismatch)]
    expected = manifest["files"]
    actual = build_digests()
    names = differing(expected, actual)
    if not names:
        return 0, [f"all {len(expected)} files identical to the manifest"]
    lines = [f"{len(names)} of {len(expected)} files differ from the manifest:"]
    for name in names:
        why = ("not built" if name not in actual else
               "not in the manifest" if name not in expected else "digest differs")
        lines.append(f"  {name}: {why}")
    return 1, lines


def manifest_doc(here: dict, digests: dict[str, str]) -> dict:
    return {"provenance": here, "files": dict(sorted(digests.items()))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=["write", "check"])
    parser.add_argument("--root", type=Path, default=REPO,
                        help="checkout whose src/ builds the files")
    parser.add_argument("--manifest", type=Path, default=MANIFEST)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "elasticdrop").is_dir():
        parser.error(f"{root} holds no src/elasticdrop")
    # through json, as the manifest stores it: lists stay lists
    here = json.loads(json.dumps(provenance()))
    if args.action == "write":
        digests = build(root)
        args.manifest.write_text(json.dumps(manifest_doc(here, digests),
                                            indent=2) + "\n")
        print(f"wrote {len(digests)} digests to {args.manifest}")
        return 0
    code, lines = report(json.loads(args.manifest.read_text()), here,
                         lambda: build(root))
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
