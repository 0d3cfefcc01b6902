"""The compare and report logic of ``tools/identity.py`` on synthetic
manifests; none of the 33 files is built here."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
_SPEC = importlib.util.spec_from_file_location("identity", _PATH)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)

HOST = {"numpy": "2.4.6", "numpy_simd": ["X86_V3"], "blas": "openblas 0.3",
        "blas_core": "Haswell", "blas_threads": 2, "machine": "x86_64"}
FILES = {"a/metrics.json": "11", "a/train_log.csv": "22", "b/masks.txt": "33"}


def manifest(**provenance):
    return identity.manifest_doc({**HOST, **provenance}, FILES)


def unbuildable():
    raise AssertionError("built although the provenance differs")


class TestDiffering:
    def test_equal_sets_differ_nowhere(self):
        assert identity.differing(FILES, dict(FILES)) == []

    def test_names_changed_missing_and_extra_files_sorted(self):
        actual = {"b/masks.txt": "34", "a/metrics.json": "11", "c/new.csv": "44"}
        assert identity.differing(FILES, actual) == [
            "a/train_log.csv", "b/masks.txt", "c/new.csv"]


class TestReport:
    def test_identical_files_pass(self):
        code, lines = identity.report(manifest(), dict(HOST), lambda: dict(FILES))
        assert (code, lines) == (0, ["all 3 files identical to the manifest"])

    def test_every_differing_file_is_named_and_fails(self):
        actual = {"a/metrics.json": "11", "b/masks.txt": "3x", "c/new.csv": "5"}
        code, lines = identity.report(manifest(), dict(HOST), lambda: actual)
        assert code == 1
        assert lines == ["3 of 3 files differ from the manifest:",
                         "  a/train_log.csv: not built",
                         "  b/masks.txt: digest differs",
                         "  c/new.csv: not in the manifest"]

    @pytest.mark.parametrize("key, value", [
        ("blas_core", "SkylakeX"), ("numpy", "2.3.0"), ("blas_threads", 1),
        ("numpy_simd", ["X86_V3", "X86_V4"])])
    def test_other_provenance_is_reported_not_failed(self, key, value):
        code, lines = identity.report(manifest(**{key: value}), dict(HOST),
                                      unbuildable)
        assert code == 0
        assert lines[0].startswith("provenance differs")
        assert lines[1:] == [f"  {key}: manifest {value!r}, here {HOST[key]!r}"]

    def test_a_key_on_one_side_only_is_a_provenance_difference(self):
        recorded = {k: v for k, v in HOST.items() if k != "machine"}
        assert identity.provenance_mismatch(recorded, HOST) == [
            "machine: manifest None, here 'x86_64'"]


class TestManifest:
    def test_document_round_trips_through_json(self):
        doc = manifest()
        assert json.loads(json.dumps(doc)) == doc
        assert list(doc["files"]) == sorted(FILES)

    def test_checked_in_manifest_lists_the_33_files(self):
        doc = json.loads(identity.MANIFEST.read_text())
        assert len(doc["files"]) == 33
        assert set(doc["provenance"]) == set(identity.provenance())
