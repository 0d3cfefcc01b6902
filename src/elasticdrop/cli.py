"""Command-line entry point: train, eval, gradcheck, masks and ablation grids.

Every command is driven by a json run config with strict key validation
(unknown keys are an error) and is deterministic given the seeds inside the
config. All emitted files carry a short sha256 hash of the effective config
so results stay traceable to their settings.

Exit codes: 0 success, 1 configuration error (bad config or input file,
unwritable output path), 2 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import statistics
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .data_synth import SynthConfig, generate, stack_images
from .dropmask import (BatchDropBlock, BatchDropout, DropBlock, ElementDropout,
                       NoDrop, OverlapRowDrop, SpatialDropout, UniformRowDrop,
                       branch_masks)
from .errors import ConfigError, NumericError, check_array_bytes, read_text
from .gradcheck import run_gradient_checks
from .model import (ModelConfig, ModelParams, check_fields, config_from_dict,
                    config_to_dict, infer, load_checkpoint, save_checkpoint,
                    train)
from .retrieval_eval import (EvalMetrics, RetrievalSet, clamped_rerank_params,
                             evaluate, k_reciprocal_rerank)
from .elastic_loss import sq_dist_matrix


@dataclass(frozen=True)
class EvalConfig:
    ks: tuple[int, ...] = (1, 5, 10)
    rerank: bool = False
    k1: int = 20
    k2: int = 6
    lambda_value: float = 0.3

    def __post_init__(self):
        if not self.ks or min(self.ks) < 1:
            raise ConfigError(f"EvalConfig: ks must be non-empty positive "
                              f"ranks, got {list(self.ks)}")
        # checked with re-ranking off too: a config is valid or not as a whole
        if self.k1 < 1 or self.k2 < 1:
            raise ConfigError(f"EvalConfig: k1 and k2 must be at least 1, got "
                              f"k1={self.k1}, k2={self.k2}")
        if not 0.0 <= self.lambda_value <= 1.0:
            raise ConfigError(f"EvalConfig: lambda_value must lie in [0, 1], "
                              f"got {self.lambda_value}")


@dataclass(frozen=True)
class RunConfig:
    data: SynthConfig
    model: ModelConfig
    eval: EvalConfig
    output_dir: str = "runs/out"


# model keys that the data section owns; rejected inside "model"
_DERIVED_MODEL_KEYS = {"height", "width", "in_channels", "num_classes"}


def run_config_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig; model grid shape and class count come from data.

    Every section goes through ``check_fields``: unknown keys and values
    of the wrong json type are configuration errors. The model section may
    also carry ``branches``, which is input only: alone it is shorthand for
    the uniform scheme with ``m = branches``; next to a drop scheme it must
    equal the branch count that scheme defines.
    """
    check_fields(RunConfig, doc, "run config")
    data_doc = doc.get("data", {})
    check_fields(SynthConfig, data_doc, "config section 'data'")
    data = SynthConfig(**data_doc)

    model_doc = doc.get("model", {})
    branches = None
    if isinstance(model_doc, dict) and "branches" in model_doc:
        model_doc = dict(model_doc)
        branches = model_doc.pop("branches")
        model_doc.setdefault("drop_scheme", {"kind": "uniform", "m": branches})
    check_fields(ModelConfig, model_doc, "config section 'model'")
    bad = set(model_doc) & _DERIVED_MODEL_KEYS
    if bad:
        raise ConfigError(
            f"config section 'model': keys {sorted(bad)} are derived from 'data'")
    model = config_from_dict({**model_doc, "height": data.height,
                              "width": data.width, "in_channels": data.channels,
                              "num_classes": data.num_ids})
    if branches is not None and (type(branches) is not int
                                 or branches != model.scheme_branches):
        raise ConfigError(
            f"config section 'model': branches={branches!r} disagrees with "
            f"the drop scheme's {model.scheme_branches} branches")

    eval_doc = doc.get("eval", {})
    check_fields(EvalConfig, eval_doc, "config section 'eval'")
    eval_cfg = EvalConfig(**{**eval_doc,
                             "ks": tuple(eval_doc.get("ks", EvalConfig.ks))})
    return RunConfig(data=data, model=model, eval=eval_cfg,
                     output_dir=doc.get("output_dir", "runs/out"))


def run_config_to_dict(cfg: RunConfig) -> dict:
    model = config_to_dict(cfg.model)
    for key in _DERIVED_MODEL_KEYS:
        model.pop(key)
    return {"data": asdict(cfg.data), "model": model, "eval": asdict(cfg.eval),
            "output_dir": cfg.output_dir}


def config_hash(cfg: RunConfig) -> str:
    """Short digest of the experimental settings (output location excluded)."""
    doc = run_config_to_dict(cfg)
    doc.pop("output_dir")
    return _args_hash(**doc)


def load_run_config(path, seed_override=None, out_override=None) -> RunConfig:
    text = read_text(path, "config file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed json in {path}: {exc}") from exc
    cfg = run_config_from_dict(doc)
    if seed_override is not None:
        check_fields(ModelConfig, {"seed": seed_override}, "--seed")
        cfg = replace(cfg, data=replace(cfg.data, seed=seed_override),
                      model=replace(cfg.model, seed=seed_override))
    if out_override is not None:
        cfg = replace(cfg, output_dir=str(out_override))
    return cfg


# --- shared pipeline pieces -------------------------------------------------

def _descriptor_sets(params: ModelParams, model_cfg: ModelConfig, samples
                     ) -> RetrievalSet:
    if not samples:
        return RetrievalSet(np.zeros((0, model_cfg.embed_dim)),
                            np.zeros(0, dtype=int), np.zeros(0, dtype=int))
    images, ids, cameras = stack_images(samples)
    descs = infer(images, params, model_cfg)
    return RetrievalSet(descriptors=descs, ids=ids, cameras=cameras)


def _evaluate_sets(query: RetrievalSet, gallery: RetrievalSet,
                   eval_cfg: EvalConfig) -> EvalMetrics:
    """Score ``query`` against ``gallery``, re-ranked when ``eval_cfg`` asks;
    an empty query scores zeros. ``sq_dist_matrix`` raises NumericError when
    finite descriptors overflow to an infinite distance."""
    q, g = query.descriptors, gallery.descriptors
    dist = sq_dist_matrix(q, g)
    if eval_cfg.rerank and len(query):
        k1, k2 = clamped_rerank_params(len(query), len(gallery),
                                       eval_cfg.k1, eval_cfg.k2)
        dist = k_reciprocal_rerank(dist, sq_dist_matrix(q, q),
                                   sq_dist_matrix(g, g), k1=k1, k2=k2,
                                   lambda_value=eval_cfg.lambda_value)
    return evaluate(query, gallery, ks=eval_cfg.ks, dist=dist)


def run_train_eval(cfg: RunConfig) -> tuple[ModelParams, list[dict], dict]:
    """Generate data, train, and score clean/occluded query splits."""
    dataset = generate(cfg.data)
    params, log = train(dataset.train, cfg.model)
    gallery = _descriptor_sets(params, cfg.model, dataset.gallery)
    metrics = {}
    for split, occluded in (("clean", False), ("occluded", True)):
        samples = [s for s in dataset.query if s.occluded is occluded]
        query = _descriptor_sets(params, cfg.model, samples)
        metrics[split] = _evaluate_sets(query, gallery, cfg.eval).to_dict()
    return params, log, metrics


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict],
               chash: str) -> None:
    """Csv led by a ``# config_hash=`` line; floats keep every digit."""
    with path.open("w", newline="") as fh:
        fh.write(f"# config_hash={chash}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})


# --- commands ----------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.seed, args.out)
    chash = config_hash(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    params, log, metrics = run_train_eval(cfg)
    save_checkpoint(out_dir / "checkpoint.json", params, cfg.model, chash)
    _write_csv(out_dir / "train_log.csv",
               ["epoch", "lr", "elastic_loss", "ce_loss", "total_loss"], log,
               chash)
    doc = {"config_hash": chash, **metrics}
    (out_dir / "metrics.json").write_text(json.dumps(doc, sort_keys=True,
                                                     indent=2) + "\n")
    print(json.dumps(doc, sort_keys=True))
    return 0


def _load_embedding_csv(path) -> RetrievalSet:
    """CSV rows: id, camera, then the descriptor floats. Blank lines and
    headers (first field ``id``) are skipped; messages name the file's line.

    id and camera are int64 integers; every row must carry the same number
    (at least one) of finite floats.
    """
    text = read_text(path, "embedding csv").split("\n")
    ids, cameras, rows = [], [], []
    for lineno, line in enumerate(text, start=1):
        parts = [p.strip() for p in line.split(",")]
        if not line.strip() or parts[0] == "id":
            continue
        try:
            ids.append(int(parts[0]))
            cameras.append(int(parts[1]))
            rows.append([float(x) for x in parts[2:]])
        except (ValueError, IndexError) as exc:
            raise ConfigError(
                f"bad embedding row in {path} line {lineno}: {exc}") from exc
        # beyond int64 numpy would store the labels as floats, which merge
        if not all(-2 ** 63 <= v < 2 ** 63 for v in (ids[-1], cameras[-1])):
            raise ConfigError(f"{path} line {lineno}: id and camera must lie "
                              f"in the int64 range")
        if not rows[-1]:
            raise ConfigError(
                f"{path} line {lineno} has no descriptor values")
        if len(rows[-1]) != len(rows[0]):
            raise ConfigError(
                f"{path} line {lineno} has {len(rows[-1])} descriptor values, "
                f"the first row {len(rows[0])}")
        if not all(map(math.isfinite, rows[-1])):
            raise ConfigError(
                f"non-finite descriptor value in {path} line {lineno}")
    if not rows:
        raise ConfigError(f"no descriptor rows in {path}")
    return RetrievalSet(descriptors=np.asarray(rows),
                        ids=np.asarray(ids, dtype=np.int64),
                        cameras=np.asarray(cameras, dtype=np.int64))


def cmd_eval(args) -> int:
    # exactly one input mode; argparse's own exit 2 would read as a
    # numeric failure
    given = [a is not None for a in (args.checkpoint, args.query_csv,
                                     args.gallery_csv)]
    if given not in ([True, False, False], [False, True, True]):
        raise ConfigError("eval needs either --checkpoint alone or both "
                          "--query-csv and --gallery-csv")
    cfg = load_run_config(args.config, args.seed, args.out)
    chash = config_hash(cfg)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    if args.checkpoint is None:
        query = _load_embedding_csv(args.query_csv)
        gallery = _load_embedding_csv(args.gallery_csv)
        widths = (query.descriptors.shape[1], gallery.descriptors.shape[1])
        if widths[0] != widths[1]:
            raise ConfigError(
                f"query descriptors have {widths[0]} values per row, gallery "
                f"descriptors {widths[1]}")
    else:
        params, model_cfg = load_checkpoint(args.checkpoint)
        grid = (model_cfg.height, model_cfg.width, model_cfg.in_channels)
        data_grid = (cfg.data.height, cfg.data.width, cfg.data.channels)
        if grid != data_grid:
            raise ConfigError(f"checkpoint grid {grid} (height, width, channels) "
                              f"does not match the config's data {data_grid}")
        dataset = generate(cfg.data)
        gallery = _descriptor_sets(params, model_cfg, dataset.gallery)
        query = _descriptor_sets(params, model_cfg, dataset.query)
    doc = {"config_hash": chash,
           "all": _evaluate_sets(query, gallery, cfg.eval).to_dict()}
    if args.out:
        (Path(args.out) / "metrics.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(json.dumps(doc, sort_keys=True))
    return 0


def _args_hash(**kwargs) -> str:
    canonical = json.dumps(kwargs, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def cmd_gradcheck(args) -> int:
    seed = args.seed
    if seed < 0:
        raise ConfigError(f"gradcheck: seed must be non-negative, got {seed}")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    report = run_gradient_checks(seed=seed)
    report["config_hash"] = _args_hash(seed=seed, trials=report["trials"])
    print(json.dumps(report, sort_keys=True, indent=2))
    if args.out:
        (Path(args.out) / "gradcheck.json").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if report["passed"] else 2


def _mask_lines(masks, height, width, scheme_desc) -> list[str]:
    chash = _args_hash(scheme=scheme_desc, height=height, width=width)
    lines = [f"# config_hash={chash} scheme={scheme_desc} height={height} "
             f"width={width} branches={len(masks)}"]
    for i, mask in enumerate(masks, start=1):
        lines.append(f"branch {i}")
        for r in range(height):
            lines.append(" ".join(str(int(v)) for v in mask[r]))
        lines.append("")
    return lines


def cmd_masks(args) -> int:
    check_array_bytes("masks", {"mask (height, width)": (args.height,
                                                         args.width)})
    if args.scheme == "uniform":
        scheme = UniformRowDrop(m=args.m)
        desc = f"uniform(m={args.m})"
    else:
        scheme = OverlapRowDrop(patch_h=args.patch_h, overlap=args.overlap)
        desc = f"overlap(patch_h={args.patch_h}, overlap={args.overlap})"
    masks = branch_masks(scheme, args.height, args.width)
    lines = _mask_lines(masks, args.height, args.width, desc)
    print("\n".join(lines))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "masks.txt").write_text("\n".join(lines) + "\n")
        with (out_dir / "masks.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["branch", "row", "col", "bit"])
            for i, mask in enumerate(masks, start=1):
                for r in range(args.height):
                    for c in range(args.width):
                        writer.writerow([i, r, c, int(mask[r, c])])
    return 0


# --- ablation grids -----------------------------------------------------------

ABLATION_SEEDS = 5


def _run_grid(cfg: RunConfig, variants: list[tuple[str, ModelConfig]]) -> int:
    """Run each variant over the shared seed set and write ``ablation.csv``.

    The ``rank1_*`` columns hold the smallest configured rank.
    """
    path = Path(cfg.output_dir) / "ablation.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    ks_key = min(cfg.eval.ks)
    rows = []
    for name, model_cfg in variants:
        per_seed = []
        for s in range(ABLATION_SEEDS):
            vcfg = replace(cfg,
                           data=replace(cfg.data, seed=cfg.data.seed + s),
                           model=replace(model_cfg, seed=model_cfg.seed + s))
            _, _, metrics = run_train_eval(vcfg)
            row = {
                "variant": name, "seed": str(s),
                "rank1_clean": metrics["clean"]["rank"][str(ks_key)],
                "map_clean": metrics["clean"]["mAP"],
                "rank1_occluded": metrics["occluded"]["rank"][str(ks_key)],
                "map_occluded": metrics["occluded"]["mAP"],
            }
            rows.append(row)
            per_seed.append(row)
        for stat, fn in (("mean", statistics.fmean),
                         ("stddev", statistics.pstdev)):
            rows.append({
                "variant": name, "seed": stat,
                **{col: fn([r[col] for r in per_seed])
                   for col in ("rank1_clean", "map_clean", "rank1_occluded",
                               "map_occluded")},
            })
    _write_csv(path, list(rows[0]), rows, config_hash(cfg))
    print(f"wrote {path}")
    return 0


def cmd_ablate_dropout(args) -> int:
    """Side-by-side dropout strategies under a shared seed set and schedule."""
    cfg = load_run_config(args.config, args.seed, args.out)
    m = cfg.model.scheme_branches
    h = cfg.model.height
    # the baselines' block sizes come from the consecutive patch count; none
    # and the randomized kinds define one branch
    if m < 2:
        raise ConfigError(
            f"ablate-dropout requires the uniform or overlap drop scheme with "
            f"at least 2 branches, got {cfg.model.drop_scheme} with {m}")

    # a randomized kind has one branch, so keep_branches is cleared
    def single(scheme):
        return replace(cfg.model, drop_scheme=scheme, keep_branches=None)

    variants = [
        ("element_dropout", single(ElementDropout(rate=0.25))),
        ("spatial_dropout", single(SpatialDropout(rate=0.25))),
        ("batch_dropout", single(BatchDropout(rate=0.25))),
        ("dropblock", single(DropBlock(block_h=max(1, h // m),
                                       block_w=max(1, cfg.model.width // 2)))),
        ("batch_dropblock", single(BatchDropBlock(rows_fraction=1.0 / m))),
        ("consecutive", cfg.model),
    ]
    return _run_grid(cfg, variants)


def cmd_ablate_branches(args) -> int:
    """Truncate the branch list to its first m' entries, m' = 1..m."""
    cfg = load_run_config(args.config, args.seed, args.out)
    if not isinstance(cfg.model.drop_scheme, UniformRowDrop):
        raise ConfigError("ablate-branches requires the uniform drop scheme")
    variants = []
    for m_prime in range(1, cfg.model.drop_scheme.m + 1):
        variants.append((f"m_prime={m_prime}",
                         replace(cfg.model, keep_branches=m_prime)))
    return _run_grid(cfg, variants)


def cmd_ablate_components(args) -> int:
    """Component grid: no-drop/plain-triplet baseline up to the full model."""
    cfg = load_run_config(args.config, args.seed, args.out)
    full = cfg.model
    no_drop = replace(full, drop_scheme=NoDrop(), keep_branches=None)
    variants = [
        ("baseline", replace(no_drop, loss="triplet")),
        ("elastic_only", replace(no_drop, loss="elastic")),
        ("drop_only", replace(full, loss="triplet")),
        ("no_resblock", replace(full, use_resblock=False)),
        ("full", full),
        ("with_global", replace(full, use_global_branch=True)),
    ]
    return _run_grid(cfg, variants)


# --- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elasticdrop",
        description="Desk-scale branch-drop metric learning toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to json run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the data and model seeds")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("train", help="train a model and score both query splits")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint or external embeddings")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--query-csv", default=None)
    p.add_argument("--gallery-csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="run the finite-difference suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("masks", help="print branch masks as 0/1 grids")
    p.add_argument("--height", type=int, default=24)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--scheme", choices=["uniform", "overlap"], default="uniform")
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--patch-h", type=int, default=4, dest="patch_h")
    p.add_argument("--overlap", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_masks)

    p = sub.add_parser("ablate-dropout", help="compare dropout strategies")
    common(p)
    p.set_defaults(func=cmd_ablate_dropout)

    p = sub.add_parser("ablate-branches", help="truncate branch count 1..m")
    common(p)
    p.set_defaults(func=cmd_ablate_branches)

    p = sub.add_parser("ablate-components", help="component on/off grid")
    common(p)
    p.set_defaults(func=cmd_ablate_components)
    return parser


# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _set_malloc_thresholds() -> None:
    """Keep each training step's freed temporaries on the heap (glibc only).

    A step allocates and frees (N*H*W, C) float64 trunk arrays of about
    512 KB. Under glibc's dynamic thresholds the freed heap top goes back to
    the kernel, so every step faults those pages in again. Fixed thresholds
    keep blocks below 1 MiB on the heap and trim only past 32 MiB of free
    top, while larger blocks (the re-ranker's distance matrices) are still
    mapped and unmapped on their own, so peak memory does not grow. Set only
    for the command line: a library caller keeps its own allocator settings.
    """
    # the running process's own symbols: no library search, no subprocess
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no such handle, as on Windows
        return
    if hasattr(libc, "gnu_get_libc_version"):
        libc.mallopt(_M_MMAP_THRESHOLD, 1 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    _set_malloc_thresholds()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite value is caught where it matters and reported in one
        # line below, so numpy's overflow warnings would only repeat it
        with np.errstate(all="ignore"):
            return args.func(args)
    # MemoryError: config sizes within int64 can still ask for more memory
    # than the host has; one raised by a Python-level allocation has no text
    except (ConfigError, MemoryError) as exc:
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    # inputs are read through errors.read_text, so an OSError here comes
    # from an output path: a file in the way, a directory below a file
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
