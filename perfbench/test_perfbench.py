"""The benchmark's own checks, and every workload end to end at a tiny shape.

Run with ``PYTHONPATH=src python -m pytest perfbench``; it takes seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


TINY = run.SHAPES["tiny"]
COUNTS = ("dataio.run_loads", "atlas.project_calls", "evaluation.folds",
          "fastsrm.spill_dirs_left", "trace.spans")


def run_tiny(workload: str, trace: bool) -> dict:
    """One whole round at the tiny shape; the children are still spawned."""
    return run.benchmark(workload, 3, 0, trace, TINY)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_end_to_end(workload):
    res = run_tiny(workload, False)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] == 1 and res["failed"] == 0
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert res["metrics"]["op_wall_s"]["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_traced_counts_repeat(workload):
    first, second = run_tiny(workload, True), run_tiny(workload, True)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    for key in COUNTS:
        assert first["metrics"][key]["value"] >= 0
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    assert first["metrics"]["dataio.run_loads"]["value"] > 0


@pytest.mark.parametrize("workload", ["fastsrm-fit", "fastsrm-evaluate"])
def test_spill_metric_matches_listing(workload, tmp_path, monkeypatch):
    import srmkit.cli

    wl = run.WORKLOADS[workload]
    manifest, atlas, *_ = run.setup(tmp_path / "data", wl, TINY, 3)
    spill = tmp_path / "spill"
    spill.mkdir()
    monkeypatch.setenv("SRMKIT_TMPDIR", str(spill))
    assert srmkit.cli.main([wl.command, "--algo", wl.algo, "--manifest", str(manifest),
                            "--k", str(TINY["k"]), "--n-iter", str(TINY["n_iter"]),
                            "--seed", "3", "--out", str(tmp_path / "out"),
                            "--atlas", str(atlas)]) == 0
    listed = len([p for p in spill.iterdir() if p.name.startswith("srmkit-")])
    res = run_tiny(workload, True)
    assert res["metrics"]["fastsrm.spill_dirs_left"]["value"] == listed


def test_run_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "child.py", "checks.py", "tracer.py"):
        (tmp_path / "perfbench" / name).write_text((HERE / name).read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fastsrm-fit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def orthonormal_rows(k, v, rng):
    q, _ = np.linalg.qr(rng.standard_normal((v, k)))
    return q.T


def test_orthonormality_rejects_perturbed_rows():
    rng = np.random.default_rng(0)
    w = orthonormal_rows(4, 50, rng)
    assert checks.orthonormality([w]) == []
    bad = w.copy()
    bad[0] *= 1 + 1e-6
    assert checks.orthonormality([w, bad]) != []


def test_largest_angle_is_rotation_invariant():
    rng = np.random.default_rng(1)
    w = orthonormal_rows(3, 40, rng)
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    assert checks.largest_angle(rot @ w, w) < 1e-7
    other = orthonormal_rows(6, 40, rng)
    # rows orthogonal to w: the largest angle is a right angle
    perp = other - (other @ w.T) @ w
    perp = np.linalg.qr(perp.T)[0].T[:3]
    assert abs(checks.largest_angle(perp, w) - np.pi / 2) < 1e-7
    problems, _ = checks.recovery([perp], [w], bound=0.5)
    assert problems


def test_monotone_rejects_wrong_direction():
    assert checks.monotone([5.0, 4.0, 4.0, 3.5], rising=False) == []
    assert checks.monotone([5.0, 4.0, 4.5], rising=False)
    assert checks.monotone([-9.0, -8.0, -7.5], rising=True) == []
    assert checks.monotone([-9.0, -8.0, -8.5], rising=True)
    assert checks.monotone([], rising=True)


def save_srmb(mat, path):
    mat = np.asarray(mat, dtype=np.float64)
    with open(path, "wb") as f:
        f.write(checks._SRMB_HEADER.pack(b"SRMB", 1, 0, *mat.shape))
        mat.tofile(f)


def test_objective_matches_explicit_residual(tmp_path):
    rng = np.random.default_rng(2)
    n, m, t, v, k = 3, 2, 10, 30, 2
    ws = [orthonormal_rows(k, v, rng) for _ in range(n)]
    xs = [[rng.standard_normal((t, v)) for _ in range(m)] for _ in range(n)]
    paths = [[tmp_path / f"x{i}{s}.srmb" for s in range(m)] for i in range(n)]
    for i in range(n):
        for s in range(m):
            save_srmb(xs[i][s], paths[i][s])
    explicit = 0.0
    for s in range(m):
        shared = np.mean([xs[i][s] @ ws[i].T for i in range(n)], axis=0)
        explicit += sum(np.sum((xs[i][s] - shared @ ws[i]) ** 2) for i in range(n))
    recomputed = checks.detsrm_objective(paths, ws)
    assert recomputed == pytest.approx(explicit, rel=1e-12)
    assert checks.objective_at_end(paths, ws, [explicit * 2, explicit])[0] == []
    assert checks.objective_at_end(paths, ws, [explicit * 2, explicit * 0.999])[0]


def test_fold_maps_reject_r2_above_oracle(tmp_path):
    n, m, v = 2, 2, 20
    for s in range(m):
        for i in range(n):
            save_srmb(np.full((1, v), 0.5), tmp_path / f"r2_run-{s:02d}_sub-{i:02d}.srmb")
    assert checks.fold_maps(tmp_path, n, m, v, oracle=0.52)[0] == []
    assert checks.fold_maps(tmp_path, n, m, v, oracle=0.45)[0]  # mean above the oracle
    assert checks.fold_maps(tmp_path, n, m, v, oracle=0.70)[0]  # too far below it
    save_srmb(np.full((1, v), 1.5), tmp_path / "r2_run-00_sub-00.srmb")
    assert checks.fold_maps(tmp_path, n, m, v, oracle=1.0)[0]  # a score above 1
    (tmp_path / "r2_run-01_sub-01.srmb").unlink()
    assert any("missing" in p for p in checks.fold_maps(tmp_path, n, m, v, oracle=0.52)[0])


def test_oracle_of_noiseless_data_is_one():
    rng = np.random.default_rng(4)
    ws = [orthonormal_rows(2, 25, rng)]
    shared = [rng.standard_normal((30, 2))]
    assert checks.oracle_r2(ws, shared, sigma=0.0) == pytest.approx(1.0)
    assert checks.oracle_r2(ws, shared, sigma=0.1) < 1.0


def test_schema_rejects_missing_trace(tmp_path):
    schema = HERE.parent / "src" / "srmkit" / "schemas" / "fit_log.schema.json"
    doc = {"algorithm": "detsrm", "k": 2, "n_iter": 3, "seed": 0, "wall_time_s": 1.0}
    (tmp_path / "fit_log.json").write_text(json.dumps(doc))
    assert checks.schema(tmp_path / "fit_log.json", schema)
    doc["trace"] = [3.0, 2.0]
    (tmp_path / "fit_log.json").write_text(json.dumps(doc))
    assert checks.schema(tmp_path / "fit_log.json", schema) == []


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "fastsrm.recover_components", "layer": "fastsrm", "parent": -1, "start": 0.0, "end": 10.0},
        {"name": "dataio.load_matrix", "layer": "dataio", "parent": 0, "start": 1.0, "end": 4.0, "bytes": 2**20},
        {"name": "dataio.save_matrix", "layer": "dataio", "parent": 0, "start": 5.0, "end": 6.0, "bytes": 2**21},
    ]
    m = tracer.layer_metrics(spans)
    assert m["fastsrm.recover_s"] == 10.0
    assert m["fastsrm.recover_self_s"] == 6.0
    assert m["dataio.load_s"] == 3.0 and m["dataio.load_mib"] == 1.0
    assert m["dataio.write_s"] == 1.0 and m["dataio.write_mib"] == 2.0
