import contextlib
import copy
import csv
import ctypes
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elasticdrop import dropmask
from elasticdrop.cli import (EvalConfig, config_hash, load_run_config, main,
                             run_config_from_dict)
from elasticdrop.data_synth import SynthConfig
from elasticdrop.errors import ConfigError
from elasticdrop.model import ModelConfig
from elasticdrop.retrieval_eval import RetrievalSet


def micro_config(out_dir, **data_over):
    data = {"seed": 0, "num_ids": 6, "samples_per_id": 8, "num_cameras": 2,
            "height": 4, "width": 2, "channels": 3, "part_count": 2,
            "occluded_query_prob": 0.5}
    data.update(data_over)
    return {
        "data": data,
        "model": {"feat_channels": 8, "embed_dim": 4, "branches": 2,
                  "drop_scheme": {"kind": "uniform", "m": 2}, "epochs": 3,
                  "warmup_epochs": 1, "decay_epochs": [3], "batch_p": 2,
                  "batch_k": 2, "seed": 0},
        "eval": {"ks": [1, 5]},
        "output_dir": str(out_dir),
    }


def write_embedding_csv(path, s: RetrievalSet) -> None:
    """The format ``eval --query-csv`` reads: a header, then id, camera and
    every descriptor float per row."""
    dim = s.descriptors.shape[1]
    lines = ["id,camera," + ",".join(f"f{i}" for i in range(dim))]
    for i in range(len(s)):
        vals = ",".join(repr(float(x)) for x in s.descriptors[i])
        lines.append(f"{s.ids[i]},{s.cameras[i]},{vals}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_clustered_csvs(tmp_path) -> list[str]:
    """Query and gallery CSVs of three well-separated ids, one query each on
    camera 0 and two gallery rows each on camera 1; returns the eval flags."""
    rng = np.random.default_rng(0)
    centers = rng.normal(scale=3.0, size=(3, 4))
    q = RetrievalSet(np.vstack([centers[i] + rng.normal(scale=0.1, size=4)
                                for i in range(3)]),
                     np.arange(3), np.zeros(3, dtype=int))
    g = RetrievalSet(np.vstack([centers[i] + rng.normal(scale=0.1, size=4)
                                for i in range(3) for _ in range(2)]),
                     np.repeat(np.arange(3), 2), np.ones(6, dtype=int))
    write_embedding_csv(tmp_path / "q.csv", q)
    write_embedding_csv(tmp_path / "g.csv", g)
    return ["--query-csv", str(tmp_path / "q.csv"),
            "--gallery-csv", str(tmp_path / "g.csv")]


def assert_one_config_error_line(capsys, fragment):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:") and fragment in err


def package_env() -> dict:
    """The environment with the tested package first on PYTHONPATH, for a
    child interpreter."""
    src = str(Path(importlib.import_module("elasticdrop").__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(micro_config(tmp_path / "run")))
    return path


class TestRunConfig:
    def test_unknown_top_level_key(self, tmp_path):
        doc = micro_config(tmp_path)
        doc["extras"] = {}
        with pytest.raises(ConfigError, match="unknown keys"):
            run_config_from_dict(doc)

    def test_unknown_data_key(self, tmp_path):
        doc = micro_config(tmp_path)
        doc["data"]["typo"] = 1
        with pytest.raises(ConfigError, match="typo"):
            run_config_from_dict(doc)

    def test_unknown_model_key(self, tmp_path):
        doc = micro_config(tmp_path)
        doc["model"]["typo"] = 1
        with pytest.raises(ConfigError, match="typo"):
            run_config_from_dict(doc)

    def test_derived_model_keys_rejected(self, tmp_path):
        doc = micro_config(tmp_path)
        doc["model"]["height"] = 4
        with pytest.raises(ConfigError, match="derived"):
            run_config_from_dict(doc)

    def test_model_inherits_grid_from_data(self, tmp_path):
        cfg = run_config_from_dict(micro_config(tmp_path))
        assert cfg.model.height == cfg.data.height
        assert cfg.model.in_channels == cfg.data.channels
        assert cfg.model.num_classes == cfg.data.num_ids

    def test_hash_stable_and_sensitive(self, tmp_path):
        a = run_config_from_dict(micro_config(tmp_path))
        b = run_config_from_dict(micro_config(tmp_path))
        assert config_hash(a) == config_hash(b)
        c = run_config_from_dict(micro_config(tmp_path, seed=1))
        assert config_hash(a) != config_hash(c)

    def test_hash_ignores_agreeing_branches(self, tmp_path):
        doc = micro_config(tmp_path)
        with_branches = config_hash(run_config_from_dict(doc))
        shorthand = copy.deepcopy(doc)
        del shorthand["model"]["drop_scheme"]
        del doc["model"]["branches"]
        assert config_hash(run_config_from_dict(doc)) == with_branches
        assert config_hash(run_config_from_dict(shorthand)) == with_branches

    @pytest.mark.parametrize("name, model", [
        ("train_consecutive",
         {"branches": 4, "drop_scheme": {"kind": "uniform", "m": 4},
          "loss": "elastic"}),
        ("train_dropblock_triplet",
         {"branches": 1, "loss": "triplet",
          "drop_scheme": {"kind": "dropblock", "block_h": 2, "block_w": 2}}),
    ])
    def test_benchmark_model_sections_parse(self, tmp_path, name, model):
        # the model sections of perfbench.workloads.train_config
        doc = micro_config(tmp_path, height=8, width=4)
        doc["model"] = {"feat_channels": 64, "embed_dim": 32, "epochs": 50,
                        "warmup_epochs": 5, "decay_epochs": [30, 42],
                        "seed": 1, **model}
        cfg = run_config_from_dict(doc)
        assert cfg.model.scheme_branches == model["branches"]

    def test_float_field_accepts_int(self, tmp_path):
        doc = micro_config(tmp_path)
        doc["model"]["eta"] = 2
        doc["data"]["noise_sigma"] = 1
        cfg = run_config_from_dict(doc)
        assert cfg.model.eta == 2 and cfg.data.noise_sigma == 1

    def test_seed_override(self, config_path):
        cfg = load_run_config(config_path, seed_override=7)
        assert cfg.data.seed == 7 and cfg.model.seed == 7


class TestTrainCommand:
    def test_writes_outputs(self, tmp_path, config_path, capsys):
        assert main(["train", "--config", str(config_path)]) == 0
        out = tmp_path / "run"
        assert (out / "checkpoint.json").exists()
        assert (out / "train_log.csv").exists()
        assert (out / "metrics.json").exists()
        doc = json.loads((out / "metrics.json").read_text())
        assert set(doc) == {"config_hash", "clean", "occluded"}
        for split in ("clean", "occluded"):
            assert set(doc[split]) == {"rank", "mAP", "num_valid_queries"}
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == doc

    def test_train_log_format(self, tmp_path, config_path):
        main(["train", "--config", str(config_path)])
        lines = (tmp_path / "run" / "train_log.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        reader = csv.DictReader(lines[1:])
        rows = list(reader)
        assert reader.fieldnames == ["epoch", "lr", "elastic_loss", "ce_loss",
                                     "total_loss"]
        assert [r["epoch"] for r in rows] == ["1", "2", "3"]

    def test_deterministic_metrics_bytes(self, tmp_path, config_path):
        main(["train", "--config", str(config_path), "--out",
              str(tmp_path / "a")])
        main(["train", "--config", str(config_path), "--out",
              str(tmp_path / "b")])
        a = (tmp_path / "a" / "metrics.json").read_bytes()
        b = (tmp_path / "b" / "metrics.json").read_bytes()
        assert a == b

    def test_malformed_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_exit_1(self, tmp_path, capsys):
        doc = micro_config(tmp_path)
        doc["model"]["oops"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 1

    def test_config_directory_exit_1(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path)]) == 1
        assert_one_config_error_line(capsys, f"cannot read config file {tmp_path}")

    def test_non_utf8_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"output_dir": "\xff"}')
        assert main(["train", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, "is not UTF-8 text")

    def test_seed_flag_beyond_int64_exit_1(self, tmp_path, config_path, capsys):
        # the same value in the config file is refused as a type error
        assert main(["train", "--config", str(config_path), "--seed",
                     str(2 ** 70)]) == 1
        assert_one_config_error_line(capsys, "seed must be of type int")
        assert not (tmp_path / "run").exists()

    def test_builds_masks_once(self, config_path, monkeypatch):
        # one ModelConfig is built, and training reuses its keep rows
        calls, real = [], dropmask.branch_masks

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(dropmask, "branch_masks", counted)
        assert main(["train", "--config", str(config_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", [["uniform"], {"a": 1}])
    def test_unhashable_scheme_kind_exit_1(self, tmp_path, capsys, kind):
        doc = micro_config(tmp_path)
        doc["model"]["drop_scheme"] = {"kind": kind, "m": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, "unknown drop_scheme kind")

    def test_empty_memory_error_message(self, config_path, capsys,
                                        monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError()
        monkeypatch.setattr("elasticdrop.cli.generate", out_of_memory)
        assert main(["train", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == "config error: out of memory\n"

    def test_unallocatable_dataset_exit_1(self, tmp_path, capsys,
                                          monkeypatch):
        # inside numpy's byte limit (1.2 TB of images) but beyond a host's
        # memory; the stand-in allocator refuses it without allocating
        real_empty = np.empty

        def empty(shape, *args, **kwargs):
            if np.prod(shape, dtype=object) * 8 > 2 ** 34:
                raise MemoryError()
            return real_empty(shape, *args, **kwargs)

        def drawn(*args, **kwargs):
            raise AssertionError("a sample was drawn before the allocation")

        monkeypatch.setattr(np, "empty", empty)
        monkeypatch.setattr("elasticdrop.data_synth._render", drawn)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(micro_config(tmp_path,
                                                samples_per_id=2 ** 30)))
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "config error: out of memory\n"

    def test_keep_branches_beyond_schedule_exit_1(self, tmp_path, capsys):
        doc = micro_config(tmp_path)
        doc["model"]["keep_branches"] = 9
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, "keep_branches=9")

    def test_keep_branches_beyond_randomized_scheme_exit_1(self, tmp_path,
                                                           capsys):
        # a randomized kind trains one branch, like none
        doc = micro_config(tmp_path)
        doc["model"].update(branches=1, keep_branches=2, drop_scheme={
            "kind": "dropblock", "block_h": 2, "block_w": 1})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, "keep_branches=2")

    @pytest.mark.parametrize("section, key, value", [
        ("model", "epochs", "x"), ("model", "eta", "3"),
        ("model", "batch_p", True), ("model", "epochs", 3.0),
        ("model", "decay_epochs", 3), ("model", "use_resblock", 1),
        ("data", "num_ids", "x"), ("data", "num_ids", 6.0),
        ("data", "noise_sigma", None), ("eval", "k1", 2.5),
    ])
    def test_wrongly_typed_value_exit_1(self, tmp_path, capsys, section, key,
                                        value):
        doc = micro_config(tmp_path)
        doc[section][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, f"{key} must be of type")

    @pytest.mark.parametrize("scheme", [
        {"kind": "uniform", "m": 2},
        {"kind": "overlap", "patch_h": 2, "overlap": 1},
        {"kind": "dropblock", "block_h": 2, "block_w": 1},
    ], ids=lambda s: s["kind"])
    def test_branch_scheme_consistency_enforced(self, tmp_path, capsys,
                                                scheme):
        # uniform m=2 and dropblock define 2 and 1 branches, overlap 3
        doc = micro_config(tmp_path)
        doc["model"].update(branches=4, drop_scheme=scheme)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, "branches=4")

    @pytest.mark.parametrize("key, value", [("base_lr", -1),
                                            ("decay_factor", -0.5)])
    def test_non_positive_rate_exit_1(self, tmp_path, capsys, key, value):
        doc = micro_config(tmp_path)
        doc["model"][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, f"{key} must be positive")

    def test_drop_rate_out_of_range_exit_1(self, tmp_path, capsys):
        doc = micro_config(tmp_path)
        doc["model"].update(branches=1, drop_scheme={"kind": "element_dropout",
                                                     "rate": 1.5})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, "1.5")

    @pytest.mark.parametrize("where", ["flag", "data", "model"])
    def test_negative_seed_exit_1(self, tmp_path, capsys, where):
        doc = micro_config(tmp_path)
        argv = ["--seed", "-1"] if where == "flag" else []
        if where != "flag":
            doc[where]["seed"] = -1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path), *argv]) == 1
        assert_one_config_error_line(capsys, "seed must be non-negative")

    @pytest.mark.parametrize("section, key, value, fragment", [
        ("model", "decay_epochs", [-1], "decay epochs are 1-based"),
        ("model", "decay_epochs", [3, 0], "decay epochs are 1-based"),
        ("eval", "k1", 0, "k1 and k2 must be at least 1"),
        ("eval", "k2", -2, "k1 and k2 must be at least 1"),
        ("eval", "lambda_value", 7.5, "lambda_value must lie in [0, 1]"),
        ("eval", "lambda_value", -0.1, "lambda_value must lie in [0, 1]"),
        # passes a `< 0` check, but numpy's normal() rejects the sign bit
        ("data", "noise_sigma", -0.0, "sigmas must be non-negative"),
        ("data", "camera_shift_sigma", -0.0, "sigmas must be non-negative"),
    ], ids=["decay_negative", "decay_zero", "k1_zero", "k2_negative",
            "lambda_high", "lambda_low", "noise_sigma_minus_zero",
            "camera_shift_sigma_minus_zero"])
    def test_out_of_range_value_exit_1(self, tmp_path, capsys, section, key,
                                       value, fragment):
        # re-ranking is off: a value it would use is checked all the same
        doc = micro_config(tmp_path)
        doc[section][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, fragment)

    @pytest.mark.parametrize("section, key, value", [
        ("data", "noise_sigma", float("nan")),
        ("model", "eta", float("inf")),
        ("eval", "lambda_value", float("-inf")),
        ("model", "base_lr", 10 ** 400),
    ], ids=["nan", "inf", "minus_inf", "int_beyond_float"])
    def test_non_finite_float_exit_1(self, tmp_path, capsys, section, key,
                                     value):
        # python's json writes and reads NaN, Infinity and integers of any
        # size
        doc = micro_config(tmp_path)
        doc[section][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, f"{key} must be of type float, "
                                             f"got {value!r}")

    @pytest.mark.parametrize("section, key, value, fragment", [
        ("data", "num_ids", 10 ** 30, "num_ids must be of type int"),
        ("model", "feat_channels", 10 ** 30, "feat_channels must be of type int"),
        ("data", "num_ids", 2 ** 63, "num_ids must be of type int"),
        # inside int64 but past any address space, so the allocation fails
        # whatever the host's overcommit policy
        ("data", "num_ids", 2 ** 50, "Unable to allocate"),
        # inside int64, but an array's byte count would pass numpy's limit
        ("data", "num_ids", 2 ** 62, "SynthConfig: images (num_ids"),
        ("data", "num_ids", 2 ** 63 - 1, "SynthConfig: images (num_ids"),
        ("model", "feat_channels", 2 ** 62,
         "ModelConfig: weights (in_channels, feat_channels)"),
        ("model", "feat_channels", 2 ** 63 - 1,
         "ModelConfig: weights (in_channels, feat_channels)"),
        ("model", "embed_dim", 2 ** 62,
         "ModelConfig: weights (feat_channels, embed_dim)"),
        ("model", "embed_dim", 2 ** 63 - 1,
         "ModelConfig: weights (feat_channels, embed_dim)"),
    ], ids=["num_ids_1e30", "feat_channels_1e30", "num_ids_2e63",
            "num_ids_2e50", "num_ids_2e62", "num_ids_int64_max",
            "feat_channels_2e62", "feat_channels_int64_max", "embed_dim_2e62",
            "embed_dim_int64_max"])
    def test_oversized_int_exit_1(self, tmp_path, capsys, section, key, value,
                                  fragment):
        doc = micro_config(tmp_path)
        doc[section][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, fragment)

    def test_diverging_training_exit_2(self, tmp_path, capsys):
        # the step size overflows the weights, then the descriptors; numpy
        # must not warn on the way
        doc = micro_config(tmp_path)
        doc["model"]["base_lr"] = 1e308
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric failure:") and "finite" in err

    def test_overflowing_metric_loss_exit_2(self, tmp_path, capsys):
        # a finite eta whose hinges sum to inf; the run exited 0 and logged
        # inf losses
        doc = micro_config(tmp_path / "run")
        doc["model"]["eta"] = 1e308
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric failure:") and "finite" in err

    def test_repeated_ks_scored_once(self, tmp_path):
        # a repeated rank counted its hits twice: occluded rank-1 read
        # 0.667 for ks [1, 1, 5] against 0.333 for [1, 5]
        ranks = []
        for name, ks in (("repeated", [1, 1, 5]), ("distinct", [1, 5])):
            doc = micro_config(tmp_path / name)
            doc["eval"]["ks"] = ks
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            assert main(["train", "--config", str(path)]) == 0
            metrics = json.loads((tmp_path / name / "metrics.json").read_text())
            ranks.append({split: metrics[split]["rank"]
                          for split in ("clean", "occluded")})
        assert ranks[0] == ranks[1]

    def test_empty_split_with_rerank(self, tmp_path):
        # every query occluded: the clean split is empty and scores zeros
        doc = micro_config(tmp_path / "run", occluded_query_prob=1.0)
        doc["eval"].update(rerank=True, k1=4, k2=2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 0
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["clean"] == {"rank": {"1": 0.0, "5": 0.0}, "mAP": 0.0,
                                    "num_valid_queries": 0}
        assert metrics["occluded"]["num_valid_queries"] > 0


class TestEvalCommand:
    def test_eval_checkpoint(self, tmp_path, config_path, capsys):
        main(["train", "--config", str(config_path)])
        code = main(["eval", "--config", str(config_path), "--checkpoint",
                     str(tmp_path / "run" / "checkpoint.json")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "all" in doc and "config_hash" in doc

    def test_eval_embedding_csv(self, tmp_path, config_path, capsys):
        code = main(["eval", "--config", str(config_path),
                     *write_clustered_csvs(tmp_path)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["all"]["rank"]["1"] == 1.0
        assert doc["all"]["mAP"] == 1.0

    @pytest.mark.parametrize("bom_file", ["q.csv", "config.json"])
    def test_leading_bom_is_ignored(self, tmp_path, config_path, bom_file):
        """A file that starts with a UTF-8 byte-order mark, as spreadsheets
        export csv, gives the same metrics as the file without one."""
        metrics = tmp_path / "out" / "metrics.json"
        args = ["eval", "--config", str(config_path),
                *write_clustered_csvs(tmp_path), "--out", str(metrics.parent)]
        assert main(args) == 0
        plain = metrics.read_bytes()
        metrics.unlink()
        path = tmp_path / bom_file
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(args) == 0
        assert metrics.read_bytes() == plain

    @pytest.mark.parametrize("source", ["checkpoint", "csv"])
    def test_out_writes_the_printed_metrics(self, tmp_path, config_path,
                                            capsys, source):
        if source == "checkpoint":
            main(["train", "--config", str(config_path)])
            inputs = ["--checkpoint", str(tmp_path / "run" / "checkpoint.json")]
        else:
            inputs = write_clustered_csvs(tmp_path)
        capsys.readouterr()
        out_dir = tmp_path / "eval_out"
        assert main(["eval", "--config", str(config_path), *inputs,
                     "--out", str(out_dir)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 1
        doc = json.loads(printed[0])
        text = (out_dir / "metrics.json").read_text()
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert json.loads(text) == doc and "all" in doc

    def test_eval_with_rerank(self, tmp_path, capsys):
        doc = micro_config(tmp_path / "run")
        doc["eval"] = {"ks": [1], "rerank": True, "k1": 4, "k2": 2,
                       "lambda_value": 0.3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["train", "--config", str(path)]) == 0
        assert (tmp_path / "run" / "metrics.json").exists()

    def test_empty_gallery_with_rerank_exit_1(self, tmp_path, capsys):
        # two samples per id leave no gallery split; re-ranking ended in a
        # ValueError traceback where plain scoring exits 1
        train_path = tmp_path / "train.json"
        train_path.write_text(json.dumps(micro_config(tmp_path / "run",
                                                      samples_per_id=4)))
        assert main(["train", "--config", str(train_path)]) == 0
        doc = micro_config(tmp_path / "eval", samples_per_id=2)
        doc["eval"].update(rerank=True, k1=2, k2=1)
        eval_path = tmp_path / "eval.json"
        eval_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["eval", "--config", str(eval_path), "--checkpoint",
                     str(tmp_path / "run" / "checkpoint.json")])
        assert code == 1
        assert_one_config_error_line(capsys, "gallery is empty")

    def test_eval_needs_source(self, config_path):
        assert main(["eval", "--config", str(config_path)]) == 1

    @pytest.mark.parametrize("flags", [
        ("--checkpoint", "--query-csv", "--gallery-csv"),
        ("--checkpoint", "--query-csv"),
        ("--checkpoint", "--gallery-csv"),
        ("--query-csv",),
        ("--gallery-csv",),
    ], ids=["checkpoint_and_csvs", "checkpoint_and_query",
            "checkpoint_and_gallery", "query_alone", "gallery_alone"])
    def test_mixed_or_partial_inputs_exit_1(self, tmp_path, config_path,
                                            capsys, flags):
        # readable CSVs and a missing checkpoint: only the mode is wrong
        paths = {"--checkpoint": tmp_path / "missing.json",
                 "--query-csv": tmp_path / "q.csv",
                 "--gallery-csv": tmp_path / "g.csv"}
        paths["--query-csv"].write_text("0,0,0.1,0.2\n")
        paths["--gallery-csv"].write_text("0,1,0.5,0.5\n")
        argv = [arg for flag in flags for arg in (flag, str(paths[flag]))]
        assert main(["eval", "--config", str(config_path), *argv]) == 1
        assert_one_config_error_line(capsys, "--checkpoint alone")

    def _eval_csv(self, tmp_path, config_path, query_text):
        (tmp_path / "q.csv").write_text(query_text)
        (tmp_path / "g.csv").write_text("id,camera,f0,f1\n0,1,0.5,0.5\n")
        return main(["eval", "--config", str(config_path),
                     "--query-csv", str(tmp_path / "q.csv"),
                     "--gallery-csv", str(tmp_path / "g.csv")])

    def test_ragged_csv_row_exit_1(self, tmp_path, config_path, capsys):
        code = self._eval_csv(tmp_path, config_path,
                              "0,0,0.1,0.2\n1,0,0.3\n")
        assert code == 1
        assert_one_config_error_line(capsys, "line 2")

    def test_non_finite_descriptor_exit_1(self, tmp_path, config_path, capsys):
        code = self._eval_csv(tmp_path, config_path,
                              "0,0,0.1,0.2\n1,0,nan,0.3\n")
        assert code == 1
        assert_one_config_error_line(capsys, "non-finite")

    def test_blank_lines_keep_file_line_numbers(self, tmp_path, config_path,
                                                capsys):
        code = self._eval_csv(tmp_path, config_path,
                              "\n\nid,camera,f0,f1\n0,0,0.1,0.2\n\n"
                              "1,0,nan,0.3\n")
        assert code == 1
        assert_one_config_error_line(capsys, "q.csv line 6")

    @pytest.mark.parametrize("query, gallery, where", [
        # as float64, id 2**63 equals gallery id 2**63 + 1 and matched it
        ("9223372036854775808,0,1.0\n-1,0,5.0\n",
         "9223372036854775809,1,1.0\n-1,1,5.0\n7,1,3.0\n", "q.csv line 1"),
        ("1,0,1.0\n", "1,1,1.0\n2,-9223372036854775809,3.0\n",
         "g.csv line 2"),
    ], ids=["query_id", "gallery_camera"])
    def test_label_beyond_int64_exit_1(self, tmp_path, config_path, capsys,
                                       query, gallery, where):
        (tmp_path / "q.csv").write_text(query)
        (tmp_path / "g.csv").write_text(gallery)
        code = main(["eval", "--config", str(config_path),
                     "--query-csv", str(tmp_path / "q.csv"),
                     "--gallery-csv", str(tmp_path / "g.csv")])
        assert code == 1
        assert_one_config_error_line(capsys, f"{where}: id and camera must "
                                             f"lie in the int64 range")

    def test_int64_edge_labels_stay_distinct(self, tmp_path, config_path,
                                             capsys):
        # the query's true match is the farther gallery row; the nearer one
        # differs from its id by one, which a float64 label would lose
        top = 2 ** 63 - 1
        (tmp_path / "q.csv").write_text(f"{top},{-2 ** 63},1.0\n")
        (tmp_path / "g.csv").write_text(f"{top - 1},1,1.0\n{top},1,3.0\n")
        code = main(["eval", "--config", str(config_path),
                     "--query-csv", str(tmp_path / "q.csv"),
                     "--gallery-csv", str(tmp_path / "g.csv")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert doc["all"]["num_valid_queries"] == 1
        assert doc["all"]["rank"]["1"] == 0.0 and doc["all"]["mAP"] == 0.5

    @pytest.mark.parametrize("query, gallery", [
        ("0,0\n1,1\n", "0,1\n1,0\n"),
        ("0,0,0.1\n1,1\n", "0,1,0.2\n1,0,0.3\n"),
    ], ids=["every_row", "second_row"])
    def test_zero_width_descriptor_exit_1(self, tmp_path, config_path, capsys,
                                          query, gallery):
        (tmp_path / "q.csv").write_text(query)
        (tmp_path / "g.csv").write_text(gallery)
        code = main(["eval", "--config", str(config_path),
                     "--query-csv", str(tmp_path / "q.csv"),
                     "--gallery-csv", str(tmp_path / "g.csv")])
        assert code == 1
        assert_one_config_error_line(capsys, "has no descriptor values")

    @pytest.mark.parametrize("gallery", [
        "0,0,0.1\n1,1,\n", "id,camera,f0\n0,0,\n1,0,0.5\n", "0,0,0.1\n1,1,\r\n"],
        ids=["last_row", "after_header", "crlf"])
    def test_empty_descriptor_field_exit_1(self, tmp_path, config_path, capsys,
                                           gallery):
        # every line has the same comma count, but one field is empty
        (tmp_path / "q.csv").write_text("0,1,0.2\n")
        (tmp_path / "g.csv").write_text(gallery, newline="")
        code = main(["eval", "--config", str(config_path),
                     "--query-csv", str(tmp_path / "q.csv"),
                     "--gallery-csv", str(tmp_path / "g.csv")])
        assert code == 1
        assert_one_config_error_line(
            capsys, "line 2: could not convert string to float: ''")

    @pytest.mark.parametrize("rerank", [False, True])
    def test_descriptor_width_mismatch_exit_1(self, tmp_path, capsys, rerank):
        doc = micro_config(tmp_path / "run")
        doc["eval"].update(rerank=rerank, k1=2, k2=1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        (tmp_path / "q.csv").write_text("0,0,0.1,0.2,0.3\n")
        (tmp_path / "g.csv").write_text("0,1,0.5,0.5\n1,0,0.2,0.1\n")
        code = main(["eval", "--config", str(path),
                     "--query-csv", str(tmp_path / "q.csv"),
                     "--gallery-csv", str(tmp_path / "g.csv")])
        assert code == 1
        assert_one_config_error_line(capsys, "have 3 values per row, gallery "
                                             "descriptors 2")

    def test_checkpoint_directory_exit_1(self, tmp_path, config_path, capsys):
        code = main(["eval", "--config", str(config_path), "--checkpoint",
                     str(tmp_path)])
        assert code == 1
        assert_one_config_error_line(capsys, f"cannot read checkpoint {tmp_path}")

    def test_query_csv_directory_exit_1(self, tmp_path, config_path, capsys):
        (tmp_path / "g.csv").write_text("0,1,0.5\n")
        code = main(["eval", "--config", str(config_path), "--query-csv",
                     str(tmp_path), "--gallery-csv", str(tmp_path / "g.csv")])
        assert code == 1
        assert_one_config_error_line(capsys,
                                     f"cannot read embedding csv {tmp_path}")

    @pytest.mark.parametrize("source", ["checkpoint", "csv"])
    def test_non_utf8_input_exit_1(self, tmp_path, config_path, capsys,
                                   source):
        bad = tmp_path / "bad"
        bad.write_bytes(b"0,1,0.5\xff\n")
        if source == "checkpoint":
            argv = ["--checkpoint", str(bad)]
        else:
            (tmp_path / "g.csv").write_text("0,1,0.5\n")
            argv = ["--query-csv", str(bad), "--gallery-csv",
                    str(tmp_path / "g.csv")]
        assert main(["eval", "--config", str(config_path), *argv]) == 1
        assert_one_config_error_line(capsys, f"{bad} is not UTF-8 text")

    @pytest.mark.parametrize("rerank", [False, True])
    def test_overflowing_distances_exit_2(self, tmp_path, capsys, rerank):
        # both squared distances overflow to inf, and the tie would rank the
        # farther gallery entry first
        doc = micro_config(tmp_path / "run")
        doc["eval"].update(rerank=rerank, k1=2, k2=1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        (tmp_path / "q.csv").write_text("1,0,0.0\n")
        (tmp_path / "g.csv").write_text("2,1,2e200\n1,1,1e200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--config", str(path),
                         "--query-csv", str(tmp_path / "q.csv"),
                         "--gallery-csv", str(tmp_path / "g.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric failure:") and "distances" in err

    def test_missing_checkpoint_exit_1(self, tmp_path, config_path, capsys):
        code = main(["eval", "--config", str(config_path), "--checkpoint",
                     str(tmp_path / "absent.json")])
        assert code == 1
        assert_one_config_error_line(capsys, "absent.json")

    @pytest.mark.parametrize("damage", ["config", "params", "shape", "data",
                                        "values", "version", "inf", "nan",
                                        "kind"])
    def test_damaged_checkpoint_exit_1(self, tmp_path, config_path, capsys,
                                       damage):
        main(["train", "--config", str(config_path)])
        path = tmp_path / "run" / "checkpoint.json"
        blob = json.loads(path.read_text())
        if damage in ("config", "params"):
            del blob[damage]
        elif damage == "values":
            blob["params"]["emb_w"]["data"] = ["x"]
        elif damage in ("inf", "nan"):
            # json writes and reads Infinity and NaN
            blob["params"]["emb_w"]["data"][0] = float(damage)
        elif damage == "kind":
            blob["config"]["drop_scheme"]["kind"] = ["uniform"]
        elif damage == "version":
            # format 1 stored the branch count next to the drop scheme
            blob["format_version"] = 1
            blob["config"]["branches"] = 2
        else:
            del blob["params"]["emb_w"][damage]
        path.write_text(json.dumps(blob))
        capsys.readouterr()
        code = main(["eval", "--config", str(config_path), "--checkpoint",
                     str(path)])
        assert code == 1
        fragment = {"values": "emb_w", "inf": "emb_w: non-finite",
                    "nan": "emb_w: non-finite"}.get(damage, damage)
        assert_one_config_error_line(capsys, fragment)

    def test_non_finite_checkpoint_config_exit_1(self, tmp_path, config_path,
                                                 capsys):
        main(["train", "--config", str(config_path)])
        path = tmp_path / "run" / "checkpoint.json"
        blob = json.loads(path.read_text())
        blob["config"]["eta"] = float("inf")
        path.write_text(json.dumps(blob))
        capsys.readouterr()
        code = main(["eval", "--config", str(config_path), "--checkpoint",
                     str(path)])
        assert code == 1
        assert_one_config_error_line(capsys, "eta must be of type float, got inf")

    @pytest.mark.parametrize("key", ["height", "width"])
    def test_oversized_checkpoint_grid_exit_1(self, tmp_path, config_path,
                                              capsys, key):
        # inside int64, but the config's (height, width) masks would pass
        # numpy's byte limit
        main(["train", "--config", str(config_path)])
        path = tmp_path / "run" / "checkpoint.json"
        blob = json.loads(path.read_text())
        blob["config"][key] = 2 ** 62
        path.write_text(json.dumps(blob))
        capsys.readouterr()
        code = main(["eval", "--config", str(config_path), "--checkpoint",
                     str(path)])
        assert code == 1
        assert_one_config_error_line(capsys, "ModelConfig: masks (height, width)")

    def test_overflowing_checkpoint_params_exit_2(self, tmp_path, config_path,
                                                  capsys):
        # finite weights whose products overflow at inference
        main(["train", "--config", str(config_path)])
        path = tmp_path / "run" / "checkpoint.json"
        blob = json.loads(path.read_text())
        for entry in blob["params"].values():
            entry["data"] = [1e308] * len(entry["data"])
        path.write_text(json.dumps(blob))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--config", str(config_path), "--checkpoint",
                         str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("numeric failure:") and "finite" in err

    def test_checkpoint_grid_mismatch_exit_1(self, tmp_path, config_path,
                                             capsys):
        main(["train", "--config", str(config_path)])
        other = tmp_path / "other.json"
        other.write_text(json.dumps(micro_config(tmp_path / "o", width=4)))
        capsys.readouterr()
        code = main(["eval", "--config", str(other), "--checkpoint",
                     str(tmp_path / "run" / "checkpoint.json")])
        assert code == 1
        assert_one_config_error_line(capsys, "checkpoint grid")


class TestModuleEntryPoint:
    def test_version(self):
        done = subprocess.run(
            [sys.executable, "-m", "elasticdrop", "--version"],
            env=package_env(), capture_output=True, text=True)
        assert done.returncode == 0
        assert done.stdout == "0.1.0\n"


class TestGradcheckCommand:
    def test_exit_zero_and_report(self, tmp_path, capsys):
        code = main(["gradcheck", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "gradcheck.json").read_text())
        assert report["passed"] is True
        names = {s["name"] for s in report["suites"]}
        assert {"hard_triplet", "elastic", "elastic_detached",
                "softmax_cross_entropy", "model_end_to_end"} <= names
        assert all(s["max_rel_error"] < s["tolerance"] for s in report["suites"])


    def test_negative_seed_exit_1(self, capsys):
        assert main(["gradcheck", "--seed", "-1"]) == 1
        assert_one_config_error_line(capsys, "seed must be non-negative")


class TestMasksCommand:
    def test_uniform_grid_output(self, tmp_path, capsys):
        code = main(["masks", "--height", "24", "--width", "8", "--scheme",
                     "uniform", "--m", "6", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "masks.txt").read_text()
        assert "branch 3" in text
        lines = capsys.readouterr().out.splitlines()
        b3 = lines.index("branch 3")
        rows = lines[b3 + 1:b3 + 25]
        # rows 8..11 of branch 3 are all zeros, the rest all ones
        for r in (8, 9, 10, 11):
            assert rows[r] == " ".join(["0"] * 8)
        assert rows[0] == " ".join(["1"] * 8)
        csv_rows = list(csv.DictReader((tmp_path / "masks.csv").open()))
        assert len(csv_rows) == 6 * 24 * 8
        dropped = [r for r in csv_rows
                   if r["branch"] == "3" and r["bit"] == "0"]
        assert len(dropped) == 32

    def test_overlap_scheme(self, capsys):
        code = main(["masks", "--height", "24", "--width", "8", "--scheme",
                     "overlap", "--patch-h", "4", "--overlap", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "branches=8" in out

    def test_invalid_overlap_exit_1(self, capsys):
        assert main(["masks", "--scheme", "overlap", "--patch-h", "4",
                     "--overlap", "0"]) == 1

    @pytest.mark.parametrize("flags, fragment", [
        (["--height", "24", "--m", "5"], "must divide"),
        (["--scheme", "overlap", "--patch-h", "9", "--height", "8"],
         "height=8"),
    ], ids=["m_not_dividing_height", "patch_taller_than_map"])
    def test_schedule_not_fitting_height_exit_1(self, capsys, flags, fragment):
        assert main(["masks", *flags]) == 1
        assert_one_config_error_line(capsys, fragment)

    # only sizes past numpy's byte limit: legal but huge ones would be built
    @pytest.mark.parametrize("height, width", [("10000000000000000000", "1"),
                                               ("24", "10000000000000000000")])
    def test_oversized_grid_exit_1(self, capsys, height, width):
        assert main(["masks", "--height", height, "--width", width, "--m",
                     "1"]) == 1
        assert_one_config_error_line(capsys, "mask (height, width)")


class TestOutputPaths:
    """An output path with a file in the way exits 1 before any work."""

    def _argv(self, command, tmp_path, config_path):
        if command == "eval":
            (tmp_path / "q.csv").write_text("0,0,0.1\n")
            (tmp_path / "g.csv").write_text("0,1,0.2\n")
            return ["eval", "--config", str(config_path), "--query-csv",
                    str(tmp_path / "q.csv"), "--gallery-csv",
                    str(tmp_path / "g.csv")]
        if command == "masks":
            return ["masks"]
        if command == "gradcheck":
            return ["gradcheck"]
        return [command, "--config", str(config_path)]

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    @pytest.mark.parametrize("command", ["train", "eval", "gradcheck", "masks",
                                         "ablate-branches"])
    def test_blocked_out_exit_1(self, tmp_path, config_path, capsys, command,
                                below):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        argv = self._argv(command, tmp_path, config_path)
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: cannot write output:")
        assert str(blocker) in err

    def test_blocked_output_dir_exit_1(self, tmp_path, capsys):
        # the grid would train 5 seeds per variant; it fails before that
        (tmp_path / "blocker").write_text("")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(micro_config(tmp_path / "blocker")))
        assert main(["ablate-components", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, "cannot write output")


def read_ablation(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    return list(csv.DictReader(lines[1:]))


class TestAblationCommands:
    def test_components_grid(self, tmp_path, config_path):
        code = main(["ablate-components", "--config", str(config_path)])
        assert code == 0
        rows = read_ablation(tmp_path / "run" / "ablation.csv")
        variants = {r["variant"] for r in rows}
        assert variants == {"baseline", "elastic_only", "drop_only",
                            "no_resblock", "full", "with_global"}
        for variant in variants:
            seeds = [r["seed"] for r in rows if r["variant"] == variant]
            assert seeds == ["0", "1", "2", "3", "4", "mean", "stddev"]

    def test_components_grid_clears_keep_branches(self, tmp_path):
        doc = micro_config(tmp_path / "run")
        doc["model"]["keep_branches"] = 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["ablate-components", "--config", str(path)]) == 0
        variants = {r["variant"]
                    for r in read_ablation(tmp_path / "run" / "ablation.csv")}
        assert {"baseline", "elastic_only"} <= variants

    def test_dropout_grid_clears_keep_branches(self, tmp_path):
        doc = micro_config(tmp_path / "run")
        doc["model"]["keep_branches"] = 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["ablate-dropout", "--config", str(path)]) == 0
        variants = {r["variant"]
                    for r in read_ablation(tmp_path / "run" / "ablation.csv")}
        assert {"element_dropout", "dropblock", "consecutive"} <= variants

    def test_dropout_grid(self, tmp_path, config_path):
        code = main(["ablate-dropout", "--config", str(config_path)])
        assert code == 0
        rows = read_ablation(tmp_path / "run" / "ablation.csv")
        variants = {r["variant"] for r in rows}
        assert variants == {"element_dropout", "spatial_dropout",
                            "batch_dropout", "dropblock", "batch_dropblock",
                            "consecutive"}

    @pytest.mark.parametrize("scheme", [
        {"kind": "none"}, {"kind": "dropblock", "block_h": 2, "block_w": 1},
        {"kind": "uniform", "m": 1},
        # height 4 holds one 4-row patch
        {"kind": "overlap", "patch_h": 4, "overlap": 1}],
        ids=lambda s: s["kind"])
    def test_dropout_grid_needs_consecutive_branches(self, tmp_path, capsys,
                                                     scheme):
        doc = micro_config(tmp_path / "run")
        del doc["model"]["branches"]
        doc["model"]["drop_scheme"] = scheme
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["ablate-dropout", "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, "ablate-dropout requires")
        assert not (tmp_path / "run" / "ablation.csv").exists()

    def test_branches_grid(self, tmp_path, config_path):
        code = main(["ablate-branches", "--config", str(config_path)])
        assert code == 0
        rows = read_ablation(tmp_path / "run" / "ablation.csv")
        assert {r["variant"] for r in rows} == {"m_prime=1", "m_prime=2"}

    def test_branches_grid_needs_uniform_scheme(self, tmp_path, capsys):
        doc = micro_config(tmp_path / "run")
        del doc["model"]["branches"]
        doc["model"]["drop_scheme"] = {"kind": "overlap", "patch_h": 2,
                                       "overlap": 1}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["ablate-branches", "--config", str(path)]) == 1
        assert_one_config_error_line(
            capsys, "ablate-branches requires the uniform drop scheme")
        assert not (tmp_path / "run" / "ablation.csv").exists()

    @pytest.mark.parametrize("command", ["ablate-branches", "ablate-components",
                                         "ablate-dropout"])
    def test_empty_ks_exit_1(self, tmp_path, capsys, command):
        doc = micro_config(tmp_path / "run")
        doc["eval"]["ks"] = []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path)]) == 1
        assert_one_config_error_line(capsys, "ks")

    def test_rank1_columns_use_smallest_k(self, tmp_path):
        doc = micro_config(tmp_path)
        for ks in ([1, 5], [5, 1]):
            doc["eval"]["ks"] = ks
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(doc))
            assert main(["ablate-branches", "--config", str(path), "--out",
                         str(tmp_path / str(ks[0]))]) == 0
        assert read_ablation(tmp_path / "5" / "ablation.csv") == \
            read_ablation(tmp_path / "1" / "ablation.csv")

    def test_grid_deterministic(self, tmp_path, config_path):
        main(["ablate-branches", "--config", str(config_path), "--out",
              str(tmp_path / "x")])
        main(["ablate-branches", "--config", str(config_path), "--out",
              str(tmp_path / "y")])
        assert (tmp_path / "x" / "ablation.csv").read_bytes() == \
            (tmp_path / "y" / "ablation.csv").read_bytes()


# --- drawn inputs -------------------------------------------------------------

DRAWN = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)

# json values a field must survive: the wrong sign, the sign bit alone,
# sizes past int64 or numpy's byte limit, not finite, the wrong type, null,
# a list or an object. No int between 4 and 2**62 is drawn, since a size
# field would then allocate that much.
JSON_VALUES = st.one_of(
    st.sampled_from([-0.0, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 10 ** 30, 1e308,
                     -1e308, float("nan"), float("inf"), float("-inf"), True,
                     None, "x", [], {}, {"kind": "none"}]),
    st.integers(-3, 3),
    st.floats(),
    st.lists(st.integers(-2, 3), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "m", "x"]), st.integers(-1, 2),
                    max_size=2))

# every field of each run config section (the model's grid keys, which
# the data section owns, included)
CONFIG_FIELDS = (
    [("data", f.name) for f in fields(SynthConfig)]
    + [("model", f.name) for f in fields(ModelConfig)]
    + [("model", "branches")]
    + [("eval", f.name) for f in fields(EvalConfig)])

CSV_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "0.5", "-0.0", "1e200", "1e400",
                     "nan", "-inf", "x", "", "id", "9" * 30]),
    st.integers(-2, 3).map(str), st.floats().map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=4))
CSV_TEXT = st.lists(st.lists(CSV_TOKENS, min_size=1, max_size=5),
                    max_size=4).map(
    lambda rows: "".join(",".join(r) + "\n" for r in rows))


def run_quietly(argv):
    """Exit code and stderr of ``main(argv)``, stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_documented_exit(code, err):
    """Exit 0, or 1 or 2 with its one-line message and no traceback."""
    assert code in (0, 1, 2)
    if code:
        assert len(err.splitlines()) == 1
        assert err.startswith({1: "config error:", 2: "numeric failure:"}[code])


def write_micro_config(tmp):
    """The micro config, trained for one epoch, written under ``tmp``."""
    doc = micro_config(Path(tmp) / "run")
    doc["model"]["epochs"] = 1
    path = Path(tmp) / "cfg.json"
    path.write_text(json.dumps(doc))
    return doc, path


def holder(doc, where):
    """The json container of the entry at key path ``where``, and its key."""
    *parents, key = where
    for name in parents:
        doc = doc[name]
    return doc, key


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    _, path = write_micro_config(tmp_path_factory.mktemp("ckpt"))
    assert run_quietly(["train", "--config", str(path)])[0] == 0
    return path, json.loads((path.parent / "run" / "checkpoint.json").read_text())


class TestDrawnInputs:
    """One drawn json value, CSV text or checkpoint damage: the CLI exits
    with a documented code and one message line, never a traceback."""

    @DRAWN
    @given(st.sampled_from(CONFIG_FIELDS + [("model", "drop_scheme", "m"),
                                            ("model", "drop_scheme", "kind"),
                                            ("model",), ("eval",)]),
           JSON_VALUES)
    def test_train_config_field(self, where, value):
        # epochs stay at most 1, so that no draw trains for long
        assume(where != ("model", "epochs") or type(value) is not int
               or value <= 1)
        with tempfile.TemporaryDirectory() as tmp:
            doc, path = write_micro_config(tmp)
            section, key = holder(doc, where)
            section[key] = value
            path.write_text(json.dumps(doc))
            assert_documented_exit(*run_quietly(["train", "--config",
                                                 str(path)]))

    @DRAWN
    @given(CSV_TEXT, CSV_TEXT, st.booleans())
    def test_eval_csv_text(self, query, gallery, rerank):
        with tempfile.TemporaryDirectory() as tmp:
            doc, path = write_micro_config(tmp)
            doc["eval"].update(rerank=rerank, k1=2, k2=1)
            path.write_text(json.dumps(doc))
            (Path(tmp) / "q.csv").write_text(query)
            (Path(tmp) / "g.csv").write_text(gallery)
            assert_documented_exit(*run_quietly([
                "eval", "--config", str(path),
                "--query-csv", str(Path(tmp) / "q.csv"),
                "--gallery-csv", str(Path(tmp) / "g.csv")]))

    @DRAWN
    @given(st.data())
    def test_eval_checkpoint_damage(self, trained_checkpoint, data):
        config_path, blob = trained_checkpoint
        blob = copy.deepcopy(blob)
        names = sorted(blob["params"])
        where = data.draw(st.sampled_from(
            [(k,) for k in sorted(blob)]
            + [("config", k) for k in sorted(blob["config"])]
            + [("config", "drop_scheme", "m")]
            + [("params", n) for n in names]
            + [("params", n, part) for n in names for part in ("shape", "data")]
            + [("params", n, "data", 0) for n in names]))
        section, key = holder(blob, where)
        if data.draw(st.booleans()) and isinstance(section, dict):
            del section[key]
        else:
            section[key] = data.draw(JSON_VALUES)
        with tempfile.TemporaryDirectory() as tmp:
            ckpt = Path(tmp) / "checkpoint.json"
            ckpt.write_text(json.dumps(blob))
            assert_documented_exit(*run_quietly([
                "eval", "--config", str(config_path), "--checkpoint",
                str(ckpt)]))


def fake_libc(monkeypatch, glibc):
    """Route ``ctypes.CDLL`` to a fake C library, glibc-like or not, and
    return the list its ``mallopt`` calls go to."""
    calls = []

    class FakeLibc:
        def __init__(self, name, *args, **kwargs):
            assert name is None

        def mallopt(self, param, value):
            calls.append((param, value))

    if glibc:
        FakeLibc.gnu_get_libc_version = lambda self: b"2.36"
    monkeypatch.setattr(ctypes, "CDLL", FakeLibc)
    return calls


def is_glibc():
    try:
        return hasattr(ctypes.CDLL(None), "gnu_get_libc_version")
    except (OSError, TypeError):
        return False


class TestMallocThresholds:
    """``main`` fixes glibc's mmap and trim thresholds, and nothing else
    touches them."""

    def test_glibc_gets_both_thresholds(self, monkeypatch):
        calls = fake_libc(monkeypatch, glibc=True)
        assert run_quietly(["masks", "--height", "4", "--width", "2",
                            "--m", "2"])[0] == 0
        assert calls == [(-3, 1 << 20), (-1, 32 << 20)]

    def test_other_libc_gets_no_call(self, monkeypatch):
        calls = fake_libc(monkeypatch, glibc=False)
        assert run_quietly(["masks", "--height", "4", "--width", "2",
                            "--m", "2"])[0] == 0
        assert calls == []

    def test_no_process_handle_is_a_no_op(self, monkeypatch):
        def no_handle(name, *args, **kwargs):
            raise TypeError("expected str, bytes or os.PathLike, not NoneType")

        monkeypatch.setattr(ctypes, "CDLL", no_handle)
        assert run_quietly(["masks", "--height", "4", "--width", "2",
                            "--m", "2"])[0] == 0

    def test_library_use_makes_no_call(self, monkeypatch, config_path):
        calls = fake_libc(monkeypatch, glibc=True)
        # a fresh import, so that import-time code runs under the fake too;
        # monkeypatch puts the original modules back afterwards
        for name in [m for m in sys.modules
                     if m == "elasticdrop" or m.startswith("elasticdrop.")]:
            monkeypatch.delitem(sys.modules, name)
        cli = importlib.import_module("elasticdrop.cli")
        cli.run_train_eval(cli.load_run_config(config_path))
        assert calls == []

    @pytest.mark.skipif(not is_glibc(), reason="glibc is not the C library")
    def test_step_temporaries_stay_faulted_in(self):
        # four 512 KB arrays, the size of a training step's trunk
        # temporaries, allocated and freed 200 times
        script = textwrap.dedent("""
            import contextlib, io, resource, sys
            import numpy as np
            from elasticdrop.cli import main
            if sys.argv[1] == "main":
                with contextlib.redirect_stdout(io.StringIO()):
                    main(["masks", "--height", "4", "--width", "2", "--m", "2"])
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(200):
                arrays = [np.ones((1024, 64)) for _ in range(4)]
                del arrays
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            """)
        def faults(mode):
            done = subprocess.run([sys.executable, "-c", script, mode],
                                  env=package_env(), capture_output=True,
                                  text=True, check=True)
            return int(done.stdout)

        assert faults("main") < faults("plain") / 10
