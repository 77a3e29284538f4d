"""AGW1 window files, manifest round-trips and the refusal of other versions,
missing or malformed keys, labels outside [0, K) and a subject in two splits,
split validation, CSV formats, and JSON and CSV writes that a failure leaves
whole."""

import json
import struct

import numpy as np
import pytest

from artifactgen.manifest import (
    Manifest,
    SplitViolation,
    config_hash,
    load_window_set,
    read_class_map_csv,
    read_split_csv,
    read_window_file,
    validate_split,
    write_class_map_csv,
    write_json,
    write_split_csv,
    write_window_file,
    write_windows,
)
from artifactgen.normalize import EPS, MINMAX_WINDOW, minmax_normalize
from artifactgen.windowing import ClassMap


class TestWindowFile:
    def test_binary_layout(self, tmp_path):
        path = tmp_path / "w.agw"
        data = np.arange(6, dtype=np.float64).reshape(2, 3)
        write_window_file(path, data, label=4)
        raw = path.read_bytes()
        magic, c, length, label = struct.unpack_from("<4sIII", raw)
        assert (magic, c, length, label) == (b"AGW1", 2, 3, 4)
        values = np.frombuffer(raw[16:], dtype="<f4")
        assert np.array_equal(values.reshape(2, 3), data)  # channel-major

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.uniform(-1, 1, size=(8, 250))
        p1, p2 = tmp_path / "a.agw", tmp_path / "b.agw"
        write_window_file(p1, data, 2)
        read, label = read_window_file(p1)
        write_window_file(p2, read, label)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_errors(self, tmp_path):
        path = tmp_path / "bad.agw"
        path.write_bytes(b"AGW1" + struct.pack("<III", 2, 100, 0) + b"\x00" * 10)
        with pytest.raises(ValueError, match="truncated"):
            read_window_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.agw"
        path.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 0) + b"\x00" * 4)
        with pytest.raises(ValueError, match="magic"):
            read_window_file(path)


def build_manifest(tmp_path, splits=("train", "val", "test")):
    """Three min-max windows per subject s0, s1, ...; returns the manifest and
    the (N, C, L) windows and labels it was written from."""
    rng = np.random.default_rng(1)
    data = minmax_normalize(rng.uniform(-30, 30, size=(3 * len(splits), 4, 50)))
    labels = np.arange(len(data)) % 3 % 2
    subjects = [f"s{i // 3}" for i in range(len(data))]
    split_of = {f"s{i}": s for i, s in enumerate(splits)}
    man = write_windows(data, labels, subjects, tmp_path, split_of,
                        config_hash({"x": 1}), 7, ClassMap(), MINMAX_WINDOW, 250.0)
    return man, (data, labels)


class TestManifest:
    def test_json_round_trip(self, tmp_path):
        man, _ = build_manifest(tmp_path)
        write_json(tmp_path / "manifest.json", man.to_dict())
        loaded = Manifest.load(tmp_path / "manifest.json")
        assert loaded.to_dict() == man.to_dict()

    def test_window_data_round_trip(self, tmp_path):
        man, (want, want_labels) = build_manifest(tmp_path)
        data, labels, subjects = load_window_set(man, tmp_path)
        assert data.shape == (9, 4, 50)
        assert np.allclose(data, want, atol=1e-6)
        assert list(labels) == list(want_labels)

    def test_same_inputs_identical_manifest(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        m1, _ = build_manifest(tmp_path / "a")
        m2, _ = build_manifest(tmp_path / "b")
        write_json(tmp_path / "m1.json", m1.to_dict())
        write_json(tmp_path / "m2.json", m2.to_dict())
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_split_loading(self, tmp_path):
        man, _ = build_manifest(tmp_path)
        data, labels, subjects = load_window_set(man, tmp_path, split="train")
        assert set(subjects) == {"s0"} and len(labels) == 3

    def test_normalization_and_rate_recorded_once(self, tmp_path):
        """Version 3 names the scheme, eps and fs once; an entry holds no
        per-window statistics."""
        man, _ = build_manifest(tmp_path)
        write_json(tmp_path / "manifest.json", man.to_dict())
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["version"] == 3 and doc["fs"] == 250.0
        assert doc["normalization"] == {"scheme": "minmax_window", "eps": EPS}
        for e, entry in zip(man.entries, doc["entries"]):
            assert entry == {"path": e.path, "label": e.label, "subject": e.subject,
                             "split": e.split}

    @pytest.mark.parametrize("edit, match", [
        (lambda d: d.update(version=1), "unsupported manifest version 1"),
        (lambda d: d.update(version=2), "version 2; curate the dataset again"),
        (lambda d: d.pop("version"), "unsupported manifest version None"),
        (lambda d: d["normalization"].update(scheme="none"), "unknown normalization"),
        (lambda d: d["normalization"].update(eps=1e-6), "unknown normalization"),
        (lambda d: d.pop("normalization"), "unknown normalization"),
        (lambda d: d.update(normalization=None), "unknown normalization None"),
        (lambda d: d.pop("config_hash"), "manifest.json: no 'config_hash' key"),
        (lambda d: d["entries"][4].pop("label"), "manifest.json: no 'label' key"),
        (lambda d: d["entries"][4].update(split="bogus"), "unknown split 'bogus'"),
        (lambda d: d["entries"][0].update(split="val"),
         "manifest.json: subject 's0' appears in both 'val' and 'train'"),
        (lambda d: d["entries"].__setitem__(4, "w000004.agw"), "manifest.json: malformed"),
        (lambda d: d.update(entries=None), "manifest.json: malformed"),
        (lambda d: d.update(class_map=[name for name, _ in d["class_map"]]),
         "manifest.json: malformed"),
        (lambda d: d["entries"][4].update(label=5), r"w000004.agw: label 5 outside \[0, 5\)"),
        (lambda d: d["entries"][4].update(label=-1), r"w000004.agw: label -1 outside \[0, 5\)"),
        ([], "manifest.json: malformed manifest: not a JSON object"),
        (lambda d: d["entries"][4].update(subject=["s"]),
         "manifest.json: entry 'w000004.agw': path, subject and split must be strings"),
    ], ids=["version_1", "version_2", "no_version", "scheme_none", "other_eps",
            "no_normalization", "null_normalization", "no_config_hash", "entry_without_label",
            "unknown_split", "subject_in_two_splits", "entry_a_string", "entries_null",
            "class_map_of_names", "label_of_the_null_token", "negative_label",
            "not_an_object", "subject_a_list"])
    def test_load_refuses_other_versions_and_schemes(self, tmp_path, edit, match):
        """``edit`` changes the written document in place, or is the whole
        document written instead."""
        man, _ = build_manifest(tmp_path)
        doc = man.to_dict()
        if callable(edit):
            edit(doc)
        else:
            doc = edit
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            Manifest.load(tmp_path / "manifest.json")


class TestValidateSplit:
    def test_leakage_detected_with_subject_name(self, tmp_path):
        man, _ = build_manifest(tmp_path)
        man.entries[0].split = "test"  # s0 now in both train and test
        with pytest.raises(SplitViolation, match="s0"):
            validate_split(man)

    def test_disjoint_reports_counts(self, tmp_path):
        man, _ = build_manifest(tmp_path)
        report = validate_split(man)
        assert report["train"]["subjects"] == ["s0"]
        assert report["train"]["windows"] == 3
        assert sum(report["train"]["per_class"]) == 3

    def test_empty_split_warns(self, tmp_path):
        man, _ = build_manifest(tmp_path, splits=("train", "train", "val"))
        with pytest.warns(UserWarning, match="'test' is empty"):
            validate_split(man)


class TestCsv:
    def test_split_round_trip(self, tmp_path):
        path = tmp_path / "split.csv"
        assignment = {"s2": "test", "s0": "train", "s1": "val"}
        write_split_csv(path, assignment)
        assert read_split_csv(path) == assignment
        header = path.read_text().splitlines()[0]
        assert header == "subject_id,split"

    def test_bad_split_value(self, tmp_path):
        path = tmp_path / "split.csv"
        path.write_text("subject_id,split\ns0,bogus\n")
        with pytest.raises(ValueError, match="bogus"):
            read_split_csv(path)

    def test_conflicting_assignment(self, tmp_path):
        path = tmp_path / "split.csv"
        path.write_text("subject_id,split\ns0,train\ns0,test\n")
        with pytest.raises(SplitViolation):
            read_split_csv(path)

    def test_class_map_round_trip(self, tmp_path):
        path = tmp_path / "classes.csv"
        write_class_map_csv(path, ClassMap())
        cm = read_class_map_csv(path)
        assert cm.names == ClassMap().names
        assert path.read_text().splitlines()[0] == "label_name,index"

    def test_class_map_bad_indices(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("label_name,index\na,0\nb,2\n")
        with pytest.raises(ValueError, match="0..K-1"):
            read_class_map_csv(path)


class Unwritable:
    def __str__(self):
        raise OSError("disk full")


class TestWholeWrites:
    """A write that fails part way leaves the previous file and no temporary
    file, as `tests/test_checkpoint.py` checks for checkpoints."""

    def test_failed_write_json_keeps_previous_file(self, tmp_path):
        path = tmp_path / "run.json"
        write_json(path, {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(path, {"a": 2, "b": [3, object()]})
        assert path.read_bytes() == before == b'{\n  "a": 1\n}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_failed_split_csv_keeps_previous_file(self, tmp_path):
        path = tmp_path / "split.csv"
        write_split_csv(path, {"s0": "train"})
        before = path.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            write_split_csv(path, {"s0": "val", "s1": Unwritable()})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["split.csv"]


class TestConfigHash:
    def test_stable_and_order_independent(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})
        assert len(config_hash({})) == 64
