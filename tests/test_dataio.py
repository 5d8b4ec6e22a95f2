import json
import struct

import numpy as np
import pytest

from srmkit import (
    DatasetManifest,
    FormatError,
    load_manifest,
    load_matrix,
    read_header,
    save_json,
    save_manifest,
    save_matrix,
)
from srmkit.dataio import HEADER_SIZE


class TestBinaryFormat:
    def test_header_size_1x1_f64(self, tmp_path):
        p = tmp_path / "m.srmb"
        save_matrix(np.array([[0.0]]), p)
        # 25-byte header (magic 4, version 4, dtype code 1, rows 8, cols 8)
        # plus one f64 value
        assert HEADER_SIZE == 25
        assert p.stat().st_size == 4 + 4 + 1 + 8 + 8 + 8 == 33
        assert read_header(p) == (1, 1, np.dtype("<f8"))

    def test_header_size_2x3_f32(self, tmp_path):
        p = tmp_path / "m.srmb"
        save_matrix(np.zeros((2, 3), dtype=np.float32), p)
        assert p.stat().st_size == 4 + 4 + 1 + 8 + 8 + 24 == 49

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_roundtrip_bit_exact(self, tmp_path, dtype):
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((17, 9)).astype(dtype)
        p = tmp_path / "m.srmb"
        save_matrix(mat, p)
        out = load_matrix(p)
        assert out.dtype == np.dtype(dtype)
        assert np.array_equal(out, mat)
        assert out.tobytes() == mat.tobytes()

    def test_save_then_save_identical_bytes(self, tmp_path):
        mat = np.random.default_rng(5).standard_normal((6, 4))
        p1, p2 = tmp_path / "a.srmb", tmp_path / "b.srmb"
        save_matrix(mat, p1)
        save_matrix(mat, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_range_reads(self, tmp_path):
        mat = np.arange(35, dtype=np.float64).reshape(7, 5)
        p = tmp_path / "m.srmb"
        save_matrix(mat, p)
        assert np.array_equal(load_matrix(p, row_range=(2, 5)), mat[2:5])
        # region reads compose into a full read
        a = load_matrix(p, row_range=(0, 3))
        b = load_matrix(p, row_range=(3, 7))
        assert np.array_equal(np.concatenate([a, b]), mat)

    def test_row_range_bounds(self, tmp_path):
        p = tmp_path / "m.srmb"
        save_matrix(np.zeros((4, 2)), p)
        with pytest.raises(ValueError):
            load_matrix(p, row_range=(2, 8))
        with pytest.raises(ValueError):
            load_matrix(p, row_range=(3, 3))

    def test_corrupt_magic(self, tmp_path):
        p = tmp_path / "m.srmb"
        save_matrix(np.zeros((2, 2)), p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_matrix(p)

    def test_bad_version_and_dtype_code(self, tmp_path):
        p = tmp_path / "m.srmb"
        save_matrix(np.zeros((2, 2)), p)
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_matrix(p)
        save_matrix(np.zeros((2, 2)), p)
        raw = bytearray(p.read_bytes())
        raw[8] = 7
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="dtype"):
            load_matrix(p)

    @pytest.mark.parametrize("rows, cols, match", [
        (0, 3, "invalid shape 0x3"),
        (2**40, 2**30, "overflow"),
    ])
    def test_impossible_header_shape(self, tmp_path, rows, cols, match):
        p = tmp_path / "m.srmb"
        p.write_bytes(struct.pack("<4sIBQQ", b"SRMB", 1, 0, rows, cols))
        with pytest.raises(FormatError, match=match):
            read_header(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "m.srmb"
        save_matrix(np.zeros((4, 4)), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match="truncated|bytes"):
            load_matrix(p)

    def test_interrupted_write_keeps_old_file(self, tmp_path, monkeypatch):
        p = tmp_path / "m.srmb"
        save_matrix(np.ones((3, 2)), p)
        old = p.read_bytes()

        class FailingData:
            def tofile(self, f):
                f.write(b"partial")
                raise OSError("no space left on device")

        monkeypatch.setattr(np, "ascontiguousarray", lambda a: FailingData())
        with pytest.raises(OSError, match="no space"):
            save_matrix(np.zeros((4, 4)), p)
        assert p.read_bytes() == old
        assert list(tmp_path.glob("*.tmp")) == []

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            save_matrix(np.array([[1.0, np.nan]]), tmp_path / "m.srmb")
        with pytest.raises(ValueError, match="finite"):
            save_matrix(np.array([[np.inf, 0.0]]), tmp_path / "m.srmb")

    def test_rejects_bad_shapes_and_dtypes(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(np.zeros(3), tmp_path / "m.srmb")
        with pytest.raises(ValueError):
            save_matrix(np.zeros((0, 3)), tmp_path / "m.srmb")
        with pytest.raises(ValueError):
            save_matrix(np.zeros((2, 2), dtype=np.int32), tmp_path / "m.srmb")


def test_interrupted_json_write_keeps_old_file(tmp_path, monkeypatch):
    p = tmp_path / "doc.json"
    save_json({"a": 1}, p)
    old = p.read_bytes()

    def failing_dump(obj, f, **kwargs):
        f.write('{"a": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(OSError, match="no space"):
        save_json({"a": 2}, p)
    assert p.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []


class TestManifest:
    def _write_runs(self, tmp_path, shapes):
        # shapes: {subject: [(t, v), ...]}
        runs = {}
        rng = np.random.default_rng(0)
        for sid, shape_list in shapes.items():
            names = []
            for s, (t, v) in enumerate(shape_list):
                name = f"{sid}_run{s}.srmb"
                save_matrix(rng.standard_normal((t, v)), tmp_path / name)
                names.append(name)
            runs[sid] = names
        save_manifest(tmp_path / "manifest.json", runs)
        return tmp_path / "manifest.json"

    def test_roundtrip(self, tmp_path):
        p = self._write_runs(tmp_path, {"a": [(5, 4), (6, 4)], "b": [(5, 4), (6, 4)]})
        man = load_manifest(p)
        assert man.n_subjects == 2
        assert man.n_runs == 2
        assert man.v == 4
        assert man.t_per_run == (5, 6)
        assert man.load_run(1, 0).shape == (5, 4)

    def test_mismatched_timeframes(self, tmp_path):
        p = self._write_runs(tmp_path, {"a": [(5, 4)], "b": [(6, 4)]})
        with pytest.raises(ValueError, match="timeframes"):
            load_manifest(p)

    def test_mismatched_voxels(self, tmp_path):
        p = self._write_runs(tmp_path, {"a": [(5, 4)], "b": [(5, 3)]})
        with pytest.raises(ValueError, match="voxels"):
            load_manifest(p)

    def test_mismatched_run_count(self, tmp_path):
        p = self._write_runs(tmp_path, {"a": [(5, 4), (5, 4)], "b": [(5, 4)]})
        with pytest.raises(ValueError, match="run count"):
            load_manifest(p)

    def test_subject_without_runs(self, tmp_path):
        p = self._write_runs(tmp_path, {"a": [(5, 4)], "b": []})
        with pytest.raises(ValueError, match="subject b has no runs"):
            load_manifest(p)

    def test_run_file_listed_twice(self, tmp_path):
        # two subjects sharing one recording would be fitted as two subjects
        p = self._write_runs(tmp_path, {"a": [(5, 4), (6, 4)], "b": [(5, 4), (6, 4)]})
        doc = json.loads(p.read_text())
        twice = f"../{tmp_path.name}/a_run1.srmb"  # another spelling of a's run 1
        doc["subjects"][1]["runs"][1] = twice
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_manifest(p)
        assert str(info.value) == (f"{p}: {tmp_path / twice} is listed as subject a run 1 "
                                   "and as subject b run 1")

    @pytest.mark.parametrize("key", ["id", "runs"])
    def test_entry_without_a_key(self, tmp_path, key):
        p = self._write_runs(tmp_path, {"a": [(5, 4)], "b": [(5, 4)]})
        doc = json.loads(p.read_text())
        del doc["subjects"][1][key]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_manifest(p)
        assert str(info.value) == f"{p}: subject entry 1: missing key {key!r}"

    @pytest.mark.parametrize("runs", ["b_run0.srmb", None, ["b_run0.srmb", 3]])
    def test_entry_whose_runs_are_not_a_list_of_strings(self, tmp_path, runs):
        # a string was once taken as one run path per character
        p = self._write_runs(tmp_path, {"a": [(5, 4)], "b": [(5, 4)]})
        doc = json.loads(p.read_text())
        doc["subjects"][1]["runs"] = runs
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_manifest(p)
        assert str(info.value) == (f"{p}: subject entry 1: runs is {runs!r}, "
                                   "expected a list of strings")

    @pytest.mark.parametrize("subjects", [5, {"a": 1}, "a", None, ["a"]])
    def test_subjects_that_are_not_a_list_of_objects(self, tmp_path, subjects):
        # a dict was once iterated by key, and a number raised a bare TypeError
        p = self._write_runs(tmp_path, {"a": [(5, 4)], "b": [(5, 4)]})
        doc = json.loads(p.read_text())
        doc["subjects"] = subjects
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_manifest(p)
        assert str(info.value) == (f"{p}: subjects is {subjects!r}, "
                                   "expected a list of JSON objects")

    def test_manifest_without_subjects(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{}")
        with pytest.raises(ValueError) as info:
            load_manifest(p)
        assert str(info.value) == f"{p}: missing key 'subjects'"

    def test_long_value_is_abridged_in_the_message(self, tmp_path):
        # the whole value was once put into the message
        p = self._write_runs(tmp_path, {"a": [(5, 4)], "b": [(5, 4)]})
        doc = json.loads(p.read_text())
        doc["subjects"][1]["runs"] = "x" * 100_000
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="expected a list of strings") as info:
            load_manifest(p)
        assert len(str(info.value)) < len(str(p)) + 200

    def test_not_json(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("subjects: a")
        with pytest.raises(ValueError, match="not valid JSON") as info:
            load_manifest(p)
        assert str(p) in str(info.value)

    def test_without_run(self, tmp_path):
        p = self._write_runs(tmp_path, {"a": [(5, 4), (6, 4), (7, 4)]})
        man = load_manifest(p)
        sub = man.without_run(1)
        assert sub.t_per_run == (5, 7)
        assert sub.n_runs == 2
        single = DatasetManifest(("a",), ((sub.runs[0][0],),), 4, (5,))
        with pytest.raises(ValueError):
            single.without_run(0)

    def test_run_blocks_cover_the_run_in_order(self, tmp_path):
        p = self._write_runs(tmp_path, {"a": [(5, 4), (7, 4)], "b": [(5, 4), (7, 4)]})
        man = load_manifest(p)
        blocks = list(man.run_blocks(1, 1, 3))
        assert [(start, stop) for start, stop, _ in blocks] == [(0, 3), (3, 6), (6, 7)]
        whole = man.load_run(1, 1)
        for start, stop, x in blocks:
            assert x.shape == (stop - start, 4)
            assert np.array_equal(x, whole[start:stop])
        assert [(a, b) for a, b, _ in man.run_blocks(0, 0, 99)] == [(0, 5)]

    def test_run_blocks_default_to_the_block_rule(self, tmp_path, monkeypatch):
        import srmkit.dataio

        p = self._write_runs(tmp_path, {"a": [(7, 4)], "b": [(7, 4)]})
        man = load_manifest(p)
        monkeypatch.setattr(srmkit.dataio, "BLOCK_BYTES", 3 * 8 * 4)  # 3 float64 rows
        assert [(a, b) for a, b, _ in man.run_blocks(1, 0)] == [(0, 3), (3, 6), (6, 7)]

    def test_run_blocks_check_shape_against_manifest(self, tmp_path):
        p = self._write_runs(tmp_path, {"a": [(5, 4)], "b": [(5, 4)]})
        man = load_manifest(p)
        target = man.runs[1][0]
        save_matrix(np.zeros((6, 4)), target)  # one row more than the manifest says
        with pytest.raises(RuntimeError, match=r"subject 1, run 0: .*6x4, manifest expects 5x4"):
            next(man.run_blocks(1, 0, 2))

    def test_truncation_mid_stream_names_the_file(self, tmp_path):
        p = self._write_runs(tmp_path, {"a": [(6, 4)], "b": [(6, 4)]})
        man = load_manifest(p)
        target = man.runs[0][0]
        blocks = man.run_blocks(0, 0, 2)
        next(blocks)
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(RuntimeError, match="subject 0, run 0") as info:
            next(blocks)
        assert isinstance(info.value.__cause__, FormatError)
        assert str(target) in str(info.value.__cause__)
