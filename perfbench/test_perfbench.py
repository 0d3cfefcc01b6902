"""Tests of the benchmark's own machinery: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def _span(name, start, end, parent=-1, work=None):
    return spans.Span(name, start, end, parent, "r", work or {})


# --- percentile rule ------------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (548, 98.0),    # 548 * 2% = 10.96 beyond p98, 5.48 beyond p99
    (1000, 99.0),   # exactly 10 beyond p99
    (999, 98.0),    # 9.99 beyond p99 is too few
    (100, 90.0),
    (20, 50.0),
    (5, 50.0),      # too few for any rule: fall back to the median
])
def test_tail_percentile_has_ten_samples_beyond(n, expected):
    pct, value, count = spans.tail_percentile(range(1, n + 1))
    assert (pct, count) == (expected, n)
    # nearest rank: the ceil(p% * n)-th smallest sample
    assert value == -(-expected * n // 100)


def test_tail_percentile_of_nothing():
    assert spans.tail_percentile([]) == (0.0, 0.0, 0)


# --- self time and busy time ------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("model.train", 1.0, 4.0, parent=0),
        _span("numerics.adam", 2.0, 3.0, parent=1),
        _span("retrieval_eval.evaluate", 5.0, 6.5, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_busy_time_counts_nested_spans_of_one_name_once():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("elastic_loss.sq_dist", 1.0, 5.0, parent=0, work={"pairs": 4}),
        _span("elastic_loss.sq_dist", 2.0, 3.0, parent=1, work={"pairs": 9}),
    ]
    out = spans.layer_metrics(tree)
    assert out["elastic_loss.sq_dist_s"] == pytest.approx(4.0)
    assert out["elastic_loss.sq_dist_calls"] == 2
    assert out["elastic_loss.sq_dist_pairs"] == 13
    assert out["cli.self_s"] == pytest.approx(6.0)


def test_step_spans_run_from_forward_to_last_update():
    tree = [
        _span("model.train", 0.0, 10.0),
        _span("model.forward_train", 1.0, 2.0, parent=0),
        _span("numerics.adam", 2.0, 2.5, parent=0),
        _span("numerics.adam", 2.5, 3.0, parent=0),
        _span("data_synth.pk_batches", 3.0, 4.0, parent=0),
        _span("model.forward_train", 4.0, 4.5, parent=0),
        _span("numerics.adam", 4.5, 5.0, parent=0),
    ]
    assert spans.step_times(tree) == pytest.approx([2.0, 1.0])
    out = spans.layer_metrics(tree)
    assert out["model.step_samples"] == 2
    assert out["model.forward_train_calls"] == 2


# --- wrappers -----------------------------------------------------------------------

def test_wrappers_install_record_and_restore():
    import elasticdrop.cli
    import elasticdrop.elastic_loss
    import elasticdrop.model
    import elasticdrop.numerics
    import elasticdrop.retrieval_eval
    import numpy as np

    originals = {
        (elasticdrop.model, "adam_step"): elasticdrop.numerics.adam_step,
        (elasticdrop.numerics, "adam_step"): elasticdrop.numerics.adam_step,
        (elasticdrop.cli, "sq_dist_matrix"): elasticdrop.elastic_loss.sq_dist_matrix,
        (elasticdrop.retrieval_eval, "sq_dist_matrix"):
            elasticdrop.elastic_loss.sq_dist_matrix,
        (elasticdrop.elastic_loss, "sq_dist_matrix"):
            elasticdrop.elastic_loss.sq_dist_matrix,
    }
    tracer = spans.Tracer("t")
    tracer.install("elasticdrop")
    try:
        assert tracer.missing == []
        for (module, name), original in originals.items():
            assert getattr(module, name) is not original
            assert getattr(module, name).__wrapped__ is original
        q = np.arange(6.0).reshape(3, 2)
        query = elasticdrop.retrieval_eval.QuerySet(q, [0, 1, 2], [0, 0, 0])
        gallery = elasticdrop.retrieval_eval.QuerySet(q, [0, 1, 2], [1, 1, 1])
        tracer.call(spans.ROOT_SPAN, elasticdrop.retrieval_eval.evaluate,
                    query, gallery, ks=(1,))
    finally:
        tracer.restore()
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
    recorded = spans.load_spans(tracer.records())
    names = [s.name for s in recorded]
    assert names == ["cli.main", "retrieval_eval.evaluate", "elastic_loss.sq_dist"]
    assert [s.parent for s in recorded] == [-1, 0, 1]
    assert recorded[1].work == {"queries": 3}
    assert recorded[2].work == {"pairs": 9}


def test_missing_wrapped_names_are_reported_not_fatal():
    import elasticdrop.model
    table = (("model.gone", "model", "no_such_function"),
             ("gone.module", "no_such_module", "f"),
             ("model.infer", "model", "infer"))
    original = elasticdrop.model.infer
    tracer = spans.Tracer()
    tracer.install("elasticdrop", table)
    try:
        assert tracer.missing == ["model.no_such_function", "no_such_module.f"]
        assert elasticdrop.model.infer is not original
    finally:
        tracer.restore()
    assert elasticdrop.model.infer is original


def test_traced_command_writes_the_same_bytes(tmp_path):
    from elasticdrop.cli import main
    doc = workloads.train_config("train_consecutive", seed=3)
    doc["data"].update(num_ids=8, samples_per_id=10)
    doc["model"].update(feat_channels=8, embed_dim=4, epochs=2, warmup_epochs=1,
                        decay_epochs=[2])
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
    tracer = spans.Tracer()
    tracer.install("elasticdrop")
    try:
        code = tracer.call(spans.ROOT_SPAN, main, ["train", "--config", str(config),
                                                   "--out", str(tmp_path / "b")])
    finally:
        tracer.restore()
    assert code == 0
    for name in ("metrics.json", "train_log.csv", "checkpoint.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    out = spans.layer_metrics(spans.load_spans(tracer.records()))
    assert out["model.train_calls"] == 1
    assert out["model.forward_train_calls"] == out["model.step_samples"] > 0
    assert out["numerics.adam_calls"] == 10 * out["model.step_samples"]


# --- workload inputs ----------------------------------------------------------------

def test_rerank_inputs_depend_only_on_the_seed(tmp_path):
    def csvs(seed, where):
        p = workloads.prepare("rerank_eval", seed, tmp_path / where)
        return [Path(a).read_bytes() for a in p.argv if a.endswith(".csv")]

    first, again, other = csvs(3, "a"), csvs(3, "b"), csvs(4, "c")
    assert len(first) == 2
    assert first == again
    assert first[0] != other[0] and first[1] != other[1]


def test_expected_valid_queries_match_the_generated_data():
    from elasticdrop.data_synth import SynthConfig, generate
    data = dict(workloads.TRAIN_DATA, seed=5)
    dataset = generate(SynthConfig(**data))
    occluded = [q for q in dataset.query if q.occluded]
    valid = sum(1 for q in occluded
                if any(g.id == q.id and g.camera != q.camera for g in dataset.gallery))
    assert workloads._valid_train_queries(data) == {
        "clean": len(dataset.query) - len(occluded), "occluded": valid}


# --- output checks ------------------------------------------------------------------

def test_output_checks_flag_each_defect(tmp_path):
    import run

    prepared = workloads.Prepared(argv=[], config=tmp_path / "c.json",
                                  quality_split="all", expected_valid={"all": 450},
                                  epochs=0, quality_floor=0.5)
    good = {"all": {"mAP": 0.75, "num_valid_queries": 450,
                    "rank": {"1": 0.9, "5": 0.97}}, "config_hash": "abc"}

    def errors(doc):
        (tmp_path / "metrics.json").write_text(json.dumps(doc))
        return run.check_outputs(prepared, tmp_path)[1]

    assert errors(good) == []
    assert len(errors({**good, "all": {**good["all"], "num_valid_queries": 449}})) == 1
    assert len(errors({**good, "all": {**good["all"], "mAP": float("nan")}})) == 2
    assert len(errors({**good, "all": {**good["all"], "mAP": 0.2}})) == 1


def test_outputs_that_differ_fail_the_later_command():
    import run

    first, same, other = (run.Rep(traced=t) for t in (False, True, False))
    first.digests = same.digests = {"metrics.json": "a"}
    other.digests = {"metrics.json": "b"}
    run.compare_outputs([first, same, other])
    assert first.errors == [] and same.errors == []
    assert other.errors == ["untraced outputs differ from the first: ['metrics.json']"]


def test_quality_must_match_the_recorded_figures():
    import run

    recorded = {"quality_map": 0.75, "quality_rank1": 0.9}
    same, near, moved, empty = (run.Rep(traced=False) for _ in range(4))
    same.metrics = {"all": {"mAP": 0.75, "rank": {"1": 0.9}}}
    near.metrics = {"all": {"mAP": 0.75 + run.QUALITY_TOLERANCE / 2, "rank": {"1": 0.9}}}
    moved.metrics = {"all": {"mAP": 0.75, "rank": {"1": 0.9 - 2 * run.QUALITY_TOLERANCE}}}
    empty.metrics = {"all": {}}
    run.check_quality([same, near, moved, empty], "all", recorded)
    assert same.errors == [] and near.errors == []
    assert len(moved.errors) == 1 and "quality_rank1" in moved.errors[0]
    assert len(empty.errors) == 2


def test_os_figures_come_from_untraced_commands():
    import run

    plain, traced = run.Rep(traced=False, wall_s=2.0), run.Rep(traced=True, wall_s=2.5)
    plain.rusage = {"os.user_s": 1.0, "os.sys_s": 0.8, "os.minor_faults": 900}
    traced.rusage = {"os.user_s": 1.2, "os.sys_s": 0.4, "os.minor_faults": 500}
    traced.layer = {"model.train_s": 2.4}
    out = run.per_layer([plain, traced], {"wall_s": 2.0, "reference_s": 0.5})
    assert out["os.sys_s"] == 0.8 and out["os.minor_faults"] == 900
    assert out["os.wall_s"] == 2.0 and out["os.reference_s"] == 0.5
    assert out["model.train_s"] == 2.4 and out["trace.overhead_s"] == 0.5


def test_wall_ref_is_the_median_untraced_ratio():
    import run

    reps = [run.Rep(traced=False, wall_s=2.0, wall_ref=4.0),
            run.Rep(traced=False, wall_s=3.0, wall_ref=5.0),
            run.Rep(traced=True, wall_s=9.0, wall_ref=20.0)]
    e2e = run.end_to_end(reps, [0.2], [0.5, 0.6], "all")
    assert e2e["wall_ref"] == 4.5 and e2e["wall_s"] == 2.5
    assert e2e["reference_s"] == 0.55
