"""Spans around the public functions of the elasticdrop modules.

A ``Tracer`` replaces each function in ``WRAPPED`` by a wrapper under every
module-level name that refers to it, which is where its callers look it up
(``elasticdrop.model.adam_step``, ``elasticdrop.cli.sq_dist_matrix``, ...).
Each call records one span (name, start, end, parent, run id, work) in
memory; ``restore`` puts the original functions back. ``layer_metrics``
turns the spans of one command into the benchmark's per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

# (span name, module, function). A span name may cover several functions.
WRAPPED = (
    ("model.forward_train", "model", "forward_train"),
    ("model.infer", "model", "infer"),
    ("model.train", "model", "train"),
    ("model.save_checkpoint", "model", "save_checkpoint"),
    ("numerics.linear_forward", "numerics", "linear_forward"),
    ("numerics.linear_backward", "numerics", "linear_backward"),
    ("numerics.relu_backward", "numerics", "relu_backward"),
    ("numerics.softmax_ce", "numerics", "softmax_cross_entropy"),
    ("numerics.adam", "numerics", "adam_step"),
    ("dropmask.apply_mask", "dropmask", "apply_mask"),
    ("dropmask.branch_masks", "dropmask", "branch_masks"),
    ("dropmask.baseline_mask", "dropmask", "baseline_mask"),
    ("elastic_loss.metric_loss", "elastic_loss", "batch_elastic_loss"),
    ("elastic_loss.metric_loss", "elastic_loss", "batch_hard_triplet_loss"),
    ("elastic_loss.batch_hard_mine", "elastic_loss", "batch_hard_mine"),
    ("elastic_loss.sq_dist", "elastic_loss", "sq_dist_matrix"),
    ("retrieval_eval.rerank", "retrieval_eval", "k_reciprocal_rerank"),
    ("retrieval_eval.evaluate", "retrieval_eval", "evaluate"),
    ("data_synth.generate", "data_synth", "generate"),
    ("data_synth.pk_batches", "data_synth", "pk_batches"),
    ("data_synth.stack_images", "data_synth", "stack_images"),
    ("cli.load_run_config", "cli", "load_run_config"),
)

ROOT_SPAN = "cli.main"

# Span slots reserved up front. A span list grown call by call reallocates
# its buffer on the C heap between the program's array temporaries; that cut
# a train command's minor page faults from about 900k to 500k (most likely
# by keeping glibc from trimming the heap top) and made traced runs faster
# than untraced ones. One large block is mapped on its own, off that heap.
SPAN_SLOTS = 1 << 18

# Step-latency percentiles to choose from; see tail_percentile.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9)
TAIL_MIN_BEYOND = 10


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    run_id: str
    work: dict  # counts computed from the call's arguments


# --- work computed from argument shapes (not measured) ---------------------

def _shape(x) -> tuple:
    return tuple(getattr(getattr(x, "value", x), "shape", ()))


def _linear_forward_work(x, w, b) -> dict:
    (n, i), (_, o) = _shape(x), _shape(w)
    return {"flops": 2 * n * i * o + n * o,
            "bytes": 8 * (n * i + i * o + o + n * o)}


def _linear_backward_work(x, w, upstream_grad) -> dict:
    (n, i), (_, o) = _shape(x), _shape(w)
    return {"flops": 4 * n * i * o + n * o,
            "bytes": 8 * (2 * n * i + 2 * i * o + n * o + o)}


def _sq_dist_work(a, b) -> dict:
    return {"pairs": _shape(a)[0] * _shape(b)[0]}


def _rerank_work(q_g, q_q, g_g, *args, **kwargs) -> dict:
    points = sum(_shape(q_g))
    return {"points": points, "matrix_bytes": 8 * points * points}


def _evaluate_work(query, gallery, *args, **kwargs) -> dict:
    return {"queries": len(query)}


WORK: dict[str, Callable[..., dict]] = {
    "linear_forward": _linear_forward_work,
    "linear_backward": _linear_backward_work,
    "sq_dist_matrix": _sq_dist_work,
    "k_reciprocal_rerank": _rerank_work,
    "evaluate": _evaluate_work,
}


# --- recording ----------------------------------------------------------------

class Tracer:
    """Records nested spans of one single-threaded command."""

    def __init__(self, run_id: str = "0"):
        self.run_id = run_id
        self.spans: list[Span | None] = [None] * SPAN_SLOTS
        self.count = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, work: dict | None = None,
             **kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = self.count
        self.count += 1
        if index == len(self.spans):
            self.spans.extend([None] * len(self.spans))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id,
                                     work or {})

    def wrap(self, name: str, fn: Callable,
             work: Callable[..., dict] | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counted = None
            if work is not None:
                # arguments the function itself would reject get no count
                try:
                    counted = work(*args, **kwargs)
                except (TypeError, ValueError):
                    counted = None
            return self.call(name, fn, *args, work=counted, **kwargs)
        return wrapper

    def install(self, package: str, table=WRAPPED) -> None:
        """Wrap each listed function under every name that refers to it.

        A module or function that no longer exists is added to ``missing``.
        """
        for span_name, module_name, attr in table:
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(span_name, original, WORK.get(attr))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == package
                                       or mod_name.startswith(package + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def restore(self) -> None:
        """Put back every function that ``install`` replaced."""
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def records(self) -> list[list]:
        """Spans as json-ready lists: name, start, end, parent, run id, work."""
        return [list(s) for s in self.spans[:self.count]]


# --- analysis -----------------------------------------------------------------

def load_spans(rows) -> list[Span]:
    return [Span(*row) for row in rows]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans of one thread nest, so children never overlap one another.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _outermost(spans: list[Span], index: int) -> bool:
    """True when no ancestor of the span carries the same name."""
    name = spans[index].name
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def tail_percentile(samples) -> tuple[float, float, int]:
    """The highest of PERCENTILES with at least TAIL_MIN_BEYOND samples beyond it.

    Returns (percentile, nearest-rank value, sample count); with too few
    samples for even the median rule the percentile is the median.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    chosen = PERCENTILES[0]
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            chosen = p
    return chosen, percentile(values, chosen), n


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def step_times(spans: list[Span]) -> list[float]:
    """Training-step latencies in seconds.

    A step starts with a ``model.forward_train`` span and ends with the last
    ``numerics.adam`` span before the next step (or the forward pass's own
    end when no update follows).
    """
    steps: list[list[float]] = []
    for s in sorted(spans, key=lambda s: s.start):
        if s.name == "model.forward_train":
            steps.append([s.start, s.end])
        elif s.name == "numerics.adam" and steps:
            steps[-1][1] = max(steps[-1][1], s.end)
    return [end - start for start, end in steps]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one command.

    ``<span>_s`` is busy time (outermost spans of that name), ``<span>_calls``
    the number of calls; the rest are named in the benchmark's README.
    """
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_by_name[s.name] += selfs[i]
        if _outermost(spans, i):
            busy[s.name] += s.end - s.start
        for key, value in s.work.items():
            work[f"{s.name}.{key}"] += value

    out: dict[str, float] = {}
    for span_name in sorted({row[0] for row in WRAPPED}):
        out[f"{span_name}_s"] = busy[span_name]
        out[f"{span_name}_calls"] = calls[span_name]
    out["model.forward_train_self_s"] = self_by_name["model.forward_train"]
    out["cli.self_s"] = self_by_name[ROOT_SPAN]

    steps_ms = [1000.0 * t for t in step_times(spans)]
    pct, tail, n = tail_percentile(steps_ms)
    out["model.step_ms_p50"] = percentile(sorted(steps_ms), 50.0) if steps_ms else 0.0
    out["model.step_ms_tail"] = tail
    out["model.step_ms_tail_pct"] = pct
    out["model.step_samples"] = n

    out["numerics.linear_flops"] = (work["numerics.linear_forward.flops"]
                                    + work["numerics.linear_backward.flops"])
    out["numerics.linear_bytes"] = (work["numerics.linear_forward.bytes"]
                                    + work["numerics.linear_backward.bytes"])
    out["elastic_loss.sq_dist_pairs"] = work["elastic_loss.sq_dist.pairs"]
    out["retrieval_eval.rerank_points"] = work["retrieval_eval.rerank.points"]
    out["retrieval_eval.rerank_matrix_bytes"] = \
        work["retrieval_eval.rerank.matrix_bytes"]
    out["retrieval_eval.queries_scored"] = work["retrieval_eval.evaluate.queries"]
    return out
