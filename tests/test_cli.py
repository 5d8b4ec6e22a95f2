import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from srmkit import balanced_partition, load_matrix, save_atlas
from srmkit.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "srmkit" / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json") as f:
        return json.load(f)


def run_synth(tmp_path, name="ds", n=3, m=2, t="20,25", v=40, k=3, sigma="0.5", seed=4):
    out = tmp_path / name
    code = main(
        [
            "synth", "--n", str(n), "--m", str(m), "--t", t, "--v", str(v),
            "--k", str(k), "--sigma", sigma, "--seed", str(seed), "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_synth_fit_transform_evaluate_pipeline(tmp_path, capsys):
    ds = run_synth(tmp_path)
    fit_out = tmp_path / "fit"
    code = main(
        [
            "fit", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
            "--k", "3", "--seed", "1", "--out", str(fit_out),
        ]
    )
    assert code == 0
    assert (fit_out / "model" / "model.json").exists()
    log = json.loads((fit_out / "fit_log.json").read_text())
    jsonschema.validate(log, load_schema("fit_log"))
    assert log["n_iter"] == 10  # default iteration count

    code = main(
        [
            "transform", "--model", str(fit_out / "model"),
            "--manifest", str(ds / "manifest.json"), "--run", "0",
            "--out", str(tmp_path / "shared.srmb"),
        ]
    )
    assert code == 0
    assert load_matrix(tmp_path / "shared.srmb").shape == (20, 3)

    eval_out = tmp_path / "eval"
    code = main(
        [
            "evaluate", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
            "--k", "3", "--seed", "1", "--out", str(eval_out),
        ]
    )
    assert code == 0
    summary = json.loads((eval_out / "summary.json").read_text())
    jsonschema.validate(summary, load_schema("evaluate_summary"))
    assert len(summary["per_fold"]) == 2 * 3
    for fold in summary["per_fold"]:
        assert (eval_out / fold["map_file"]).exists()
        assert load_matrix(eval_out / fold["map_file"]).shape == (1, 40)
    assert (eval_out / "mean_map.srmb").exists()


def test_fastsrm_requires_atlas(tmp_path, capsys):
    ds = run_synth(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "fit", "--algo", "fastsrm", "--manifest", str(ds / "manifest.json"),
                "--k", "3", "--out", str(tmp_path / "out"),
            ]
        )
    assert exc.value.code == 2
    assert "atlas" in capsys.readouterr().err


def test_fastsrm_fit_with_atlas(tmp_path):
    ds = run_synth(tmp_path)
    atlas_path = tmp_path / "atlas.srmb"
    save_atlas(balanced_partition(40, 8, seed=2), atlas_path)
    out = tmp_path / "fastfit"
    code = main(
        [
            "fit", "--algo", "fastsrm", "--manifest", str(ds / "manifest.json"),
            "--k", "3", "--atlas", str(atlas_path),
            "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 0
    w = load_matrix(out / "model" / "w_000.srmb")
    assert np.max(np.abs(w @ w.T - np.eye(3))) <= 1e-8


@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("flag", ["--k", "--n-iter", "--n-jobs"])
@pytest.mark.parametrize("value", ["0", "x"])
def test_bad_counts_are_argument_errors(tmp_path, capsys, command, flag, value):
    ds = run_synth(tmp_path)
    out = tmp_path / "out"
    args = [command, "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
            "--k", "2", "--out", str(out), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("k, v, match", [("8", 40, "parcel count"), ("3", 39, "voxels")])
def test_unusable_atlas_is_argument_error(tmp_path, capsys, command, k, v, match):
    ds = run_synth(tmp_path)
    save_atlas(balanced_partition(v, 8, seed=2), tmp_path / "atlas.srmb")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--algo", "fastsrm", "--manifest", str(ds / "manifest.json"),
              "--k", k, "--atlas", str(tmp_path / "atlas.srmb"), "--out", str(out)])
    assert exc.value.code == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subjects", ["7", "-1", "0,3", "a"])
def test_transform_bad_subjects_are_argument_errors(tmp_path, capsys, monkeypatch, subjects):
    import srmkit.dataio

    ds = run_synth(tmp_path)
    fit_out = tmp_path / "fit"
    assert main(["fit", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
                 "--k", "3", "--out", str(fit_out)]) == 0
    capsys.readouterr()

    def no_load(*args, **kwargs):
        raise AssertionError("a run was read")

    monkeypatch.setattr(srmkit.dataio, "load_matrix", no_load)
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--model", str(fit_out / "model"),
              "--manifest", str(ds / "manifest.json"), "--run", "0",
              f"--subjects={subjects}", "--out", str(tmp_path / "s.srmb")])
    assert exc.value.code == 2
    assert "subject" in capsys.readouterr().err
    assert not (tmp_path / "s.srmb").exists()


def test_evaluate_rejects_single_run(tmp_path, capsys):
    ds = run_synth(tmp_path, m=1, t="30")
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "evaluate", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
                "--k", "3", "--out", str(tmp_path / "out"),
            ]
        )
    assert exc.value.code == 2
    assert "co-smoothing" in capsys.readouterr().err


def test_missing_manifest_is_argument_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--algo", "detsrm", "--manifest", str(tmp_path / "nope.json"),
              "--k", "2", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_runtime_failure_exits_one(tmp_path, capsys):
    ds = run_synth(tmp_path)
    # corrupt a run after manifest validation passes header checks
    target = ds / "sub-01_run-00.srmb"
    raw = bytearray(target.read_bytes())
    raw = raw[:-8]  # truncate data section
    target.write_bytes(bytes(raw))
    code = main(
        [
            "fit", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
            "--k", "3", "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "subject 1" in err and "run 0" in err


def test_repeat_fit_byte_identical_model_dirs(tmp_path):
    ds = run_synth(tmp_path)
    outs = []
    for name in ("f1", "f2"):
        out = tmp_path / name
        assert main(
            [
                "fit", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
                "--k", "3", "--seed", "7", "--out", str(out),
            ]
        ) == 0
        outs.append(out / "model")
    files1 = sorted(p.name for p in outs[0].iterdir())
    files2 = sorted(p.name for p in outs[1].iterdir())
    assert files1 == files2
    for name in files1:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_evaluate_reports_baseline_memory(tmp_path):
    ds = run_synth(tmp_path)
    out = tmp_path / "eval"
    assert main(
        [
            "evaluate", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
            "--k", "2", "--n-iter", "2", "--out", str(out),
        ]
    ) == 0
    summary = json.loads((out / "summary.json").read_text())
    jsonschema.validate(summary, load_schema("evaluate_summary"))
    assert 0 < summary["baseline_mem_bytes"] <= summary["peak_mem_bytes"]


def test_transform_subject_subset(tmp_path):
    ds = run_synth(tmp_path)
    fit_out = tmp_path / "fit"
    main(["fit", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
          "--k", "3", "--seed", "1", "--out", str(fit_out)])
    code = main(
        [
            "transform", "--model", str(fit_out / "model"),
            "--manifest", str(ds / "manifest.json"), "--run", "1",
            "--subjects", "0,2", "--out", str(tmp_path / "sub.srmb"),
        ]
    )
    assert code == 0
    assert load_matrix(tmp_path / "sub.srmb").shape == (25, 3)


def test_evaluate_noiseless_scores_near_one(tmp_path):
    ds = run_synth(tmp_path, n=4, m=2, t="40,45", v=80, k=3, sigma="0", seed=9)
    out = tmp_path / "eval0"
    code = main(
        [
            "evaluate", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
            "--k", "3", "--seed", "0", "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_roi_r2"] >= 0.999


def test_evaluate_roi_from_external_maps(tmp_path):
    ds = run_synth(tmp_path)
    first = tmp_path / "eval1"
    main(["evaluate", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
          "--k", "3", "--seed", "1", "--out", str(first)])
    second = tmp_path / "eval2"
    code = main(
        [
            "evaluate", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
            "--k", "3", "--seed", "2", "--roi-threshold=-1e9",
            "--roi-from", str(first / "mean_map.srmb"), "--out", str(second),
        ]
    )
    assert code == 0
    summary = json.loads((second / "summary.json").read_text())
    assert summary["roi_voxel_count"] == 40  # threshold -1e9 keeps every voxel


def test_synth_invalid_parameters_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--n", "1", "--m", "1", "--t", "5", "--v", "4", "--k", "9",
              "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2


def test_fastsrm_leaves_no_files_in_tempdir(tmp_path, monkeypatch):
    import tempfile

    from srmkit import load_manifest
    from srmkit.bench import run_bench

    ds = run_synth(tmp_path)
    atlas = balanced_partition(40, 8, seed=2)
    save_atlas(atlas, tmp_path / "atlas.srmb")
    scratch = tmp_path / "tempdir"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    common = ["--algo", "fastsrm", "--manifest", str(ds / "manifest.json"), "--k", "3",
              "--n-iter", "3", "--atlas", str(tmp_path / "atlas.srmb")]
    assert main(["fit", *common, "--out", str(tmp_path / "fit")]) == 0
    assert main(["evaluate", *common, "--out", str(tmp_path / "eval")]) == 0
    run_bench(load_manifest(ds / "manifest.json"), "fastsrm", k=3, atlas=atlas, n_iter=3)
    assert list(scratch.iterdir()) == []
