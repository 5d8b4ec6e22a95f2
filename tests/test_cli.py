import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from srmkit import balanced_partition, load_matrix, save_atlas, save_matrix
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


def _atlas_file(path, defect):
    """A 6 x 40 probabilistic atlas file with one defect."""
    weights = np.random.default_rng(3).uniform(0.1, 1.0, (6, 40))
    if defect == "all-zero row":
        weights[4] = 0.0
    save_matrix(weights, path)
    if defect == "shorter than header":
        path.write_bytes(path.read_bytes()[:10])
    elif defect == "truncated":
        path.write_bytes(path.read_bytes()[:-8])


@pytest.mark.parametrize("command", ["fit", "evaluate"])
@pytest.mark.parametrize("defect, match", [
    ("shorter than header", "shorter than header"),
    ("truncated", "truncated"),
    ("all-zero row", "all-zero row"),
])
def test_invalid_atlas_file_is_argument_error(tmp_path, capsys, command, defect, match):
    ds = run_synth(tmp_path)
    atlas = tmp_path / "atlas.srmb"
    _atlas_file(atlas, defect)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--algo", "fastsrm", "--manifest", str(ds / "manifest.json"),
              "--k", "3", "--atlas", str(atlas), "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid atlas: {atlas}: " in err
    assert match in err
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


def _evaluate_without_reading(tmp_path, monkeypatch, ds):
    """``srmkit evaluate`` on ``ds`` with every run read failing the test;
    returns the exit code it stopped with."""
    import srmkit.dataio

    def no_load(*args, **kwargs):
        raise AssertionError("a run was read")

    monkeypatch.setattr(srmkit.dataio, "load_matrix", no_load)
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
              "--k", "3", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
    return exc.value.code


def test_evaluate_rejects_single_run(tmp_path, capsys, monkeypatch):
    ds = run_synth(tmp_path, m=1, t="30")
    capsys.readouterr()
    assert _evaluate_without_reading(tmp_path, monkeypatch, ds) == 2
    assert "co-smoothing needs at least 2 runs" in capsys.readouterr().err


def test_evaluate_rejects_single_subject(tmp_path, capsys, monkeypatch):
    ds = run_synth(tmp_path, n=1)
    capsys.readouterr()
    assert _evaluate_without_reading(tmp_path, monkeypatch, ds) == 2
    assert "co-smoothing needs at least 2 subjects" in capsys.readouterr().err


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


def test_transform_holds_about_one_run(tmp_path):
    # Runs and components are loaded one subject at a time, so the peak is
    # about one run, whatever the subject count.
    import tracemalloc

    n, t, v = 6, 60, 2000
    ds = run_synth(tmp_path, n=n, m=2, t=str(t), v=v, k=3, sigma="0.5")
    fit_out = tmp_path / "fit"
    assert main(["fit", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
                 "--k", "3", "--n-iter", "2", "--out", str(fit_out)]) == 0
    run_bytes = t * v * 8
    tracemalloc.start()
    try:
        code = main(["transform", "--model", str(fit_out / "model"),
                     "--manifest", str(ds / "manifest.json"), "--run", "0",
                     "--out", str(tmp_path / "s.srmb")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2 * run_bytes, f"peak {peak / run_bytes:.2f} runs"


def test_transform_voxel_mismatch_is_argument_error(tmp_path, capsys, monkeypatch):
    import srmkit.dataio

    fit_out = tmp_path / "fit"
    ds = run_synth(tmp_path, name="fitted", v=40)
    assert main(["fit", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
                 "--k", "3", "--out", str(fit_out)]) == 0
    other = run_synth(tmp_path, name="other", v=39)
    capsys.readouterr()

    def no_load(*args, **kwargs):
        raise AssertionError("a run was read")

    monkeypatch.setattr(srmkit.dataio, "load_matrix", no_load)
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--model", str(fit_out / "model"),
              "--manifest", str(other / "manifest.json"), "--run", "0",
              "--out", str(tmp_path / "s.srmb")])
    assert exc.value.code == 2
    assert "40 voxels, dataset has 39" in capsys.readouterr().err
    assert not (tmp_path / "s.srmb").exists()


@pytest.mark.parametrize("case", ["missing", "wrong-width", "two-rows", "not-srmb"])
def test_evaluate_bad_roi_from_is_argument_error(tmp_path, capsys, monkeypatch, case):
    import srmkit.dataio

    ds = run_synth(tmp_path, v=50)
    roi = tmp_path / "roi.srmb"
    if case == "wrong-width":
        save_matrix(np.zeros((1, 7)), roi)
    elif case == "two-rows":
        save_matrix(np.zeros((2, 50)), roi)
    elif case == "not-srmb":
        roi.write_text("not a matrix")
    capsys.readouterr()

    def no_load(*args, **kwargs):
        raise AssertionError("a run was read")

    monkeypatch.setattr(srmkit.dataio, "load_matrix", no_load)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
              "--k", "3", "--roi-from", str(roi), "--out", str(out)])
    assert exc.value.code == 2
    assert "--roi-from" in capsys.readouterr().err
    assert not out.exists()


def test_roi_threshold_default_is_the_library_reference():
    from srmkit.cli import build_parser
    from srmkit.evaluation import ROI_THRESHOLD

    args = build_parser().parse_args(["evaluate", "--algo", "detsrm", "--manifest", "m.json",
                                      "--k", "2", "--out", "o"])
    assert args.roi_threshold == ROI_THRESHOLD


@pytest.mark.parametrize("flag, value", [("--t", "2x"), ("--sigma", "abc")])
def test_synth_list_options_are_argument_errors(tmp_path, capsys, flag, value):
    args = {"--n": "2", "--m": "2", "--t": "10", "--v": "20", "--k": "2", "--sigma": "0.5"}
    args[flag] = value
    out = tmp_path / "bad"
    with pytest.raises(SystemExit) as exc:
        main(["synth", *[x for item in args.items() for x in item], "--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_failed_fastsrm_refit_leaves_the_old_model(tmp_path, monkeypatch):
    import errno

    from srmkit import fastsrm

    ds = run_synth(tmp_path, n=4)
    save_atlas(balanced_partition(40, 8, seed=2), tmp_path / "atlas.srmb")
    common = ["fit", "--algo", "fastsrm", "--manifest", str(ds / "manifest.json"), "--k", "3",
              "--atlas", str(tmp_path / "atlas.srmb"), "--out", str(tmp_path / "out")]
    assert main([*common, "--seed", "0"]) == 0
    model_dir = tmp_path / "out" / "model"
    before = {p.name: p.read_bytes() for p in model_dir.iterdir()}
    real_save = fastsrm.save_matrix

    def full_disk(mat, path):
        if path.name == "w_002.srmb":
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        real_save(mat, path)

    monkeypatch.setattr(fastsrm, "save_matrix", full_disk)
    assert main([*common, "--seed", "5"]) == 1
    assert {p.name: p.read_bytes() for p in model_dir.iterdir()} == before
    assert list((tmp_path / "out").glob("*.tmp*")) == []


def test_fastsrm_refit_with_fewer_subjects_leaves_no_stale_components(tmp_path):
    from srmkit import SrmModel

    save_atlas(balanced_partition(40, 8, seed=2), tmp_path / "atlas.srmb")
    out = tmp_path / "out"
    for name, n in (("four", 4), ("two", 2)):
        ds = run_synth(tmp_path, name=name, n=n)
        assert main(["fit", "--algo", "fastsrm", "--manifest", str(ds / "manifest.json"),
                     "--k", "3", "--atlas", str(tmp_path / "atlas.srmb"),
                     "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "model").iterdir()) == [
        "model.json", "w_000.srmb", "w_001.srmb"]
    back = SrmModel.load(out / "model")
    assert back.n == 2
    for i in range(2):
        back.spatial_component(i)  # reads and checks the component file
    assert list(out.glob("*.tmp*")) == []


def test_transform_invalid_manifest_is_argument_error(tmp_path, capsys):
    ds = run_synth(tmp_path)
    fit_out = tmp_path / "fit"
    assert main(["fit", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
                 "--k", "3", "--out", str(fit_out)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"subjects": []}')
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--model", str(fit_out / "model"), "--manifest", str(bad),
              "--run", "0", "--out", str(tmp_path / "s.srmb")])
    assert exc.value.code == 2
    assert "invalid manifest" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["detsrm", "probsrm", "fastsrm"])
@pytest.mark.parametrize("command, k", [("fit", "40"), ("evaluate", "40"), ("evaluate", "25")])
def test_k_above_frames_is_argument_error(tmp_path, capsys, monkeypatch, algo, command, k):
    # 3 runs of 10 frames: a fit holds at most 30 components, an evaluate fold 20
    import srmkit.dataio

    ds = run_synth(tmp_path, m=3, t="10", v=60)
    save_atlas(balanced_partition(60, 50, seed=2), tmp_path / "atlas.srmb")
    capsys.readouterr()

    def no_load(*args, **kwargs):
        raise AssertionError("a run was read")

    monkeypatch.setattr(srmkit.dataio, "load_matrix", no_load)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--algo", algo, "--manifest", str(ds / "manifest.json"), "--k", k,
              "--atlas", str(tmp_path / "atlas.srmb"), "--out", str(out)])
    assert exc.value.code == 2
    assert f"k={k} exceeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--n", "--m", "--v", "--k"])
def test_synth_counts_below_one_are_argument_errors(tmp_path, capsys, flag):
    args = {"--n": "2", "--m": "2", "--t": "10", "--v": "20", "--k": "2"}
    args[flag] = "0"
    out = tmp_path / "bad"
    with pytest.raises(SystemExit) as exc:
        main(["synth", *[x for item in args.items() for x in item], "--out", str(out)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_fastsrm_fit_writes_descriptor_once_and_reads_no_component(tmp_path, monkeypatch):
    from srmkit import srm

    ds = run_synth(tmp_path)
    save_atlas(balanced_partition(40, 8, seed=2), tmp_path / "atlas.srmb")
    writes, reads = [], []
    real_save_json, real_load = srm.save_json, srm.load_matrix

    def recording_save_json(obj, path):
        writes.append(Path(path).name)
        real_save_json(obj, path)

    def recording_load(path, *args, **kwargs):
        reads.append(path)
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(srm, "save_json", recording_save_json)
    monkeypatch.setattr(srm, "load_matrix", recording_load)
    assert main(["fit", "--algo", "fastsrm", "--manifest", str(ds / "manifest.json"), "--k", "3",
                 "--atlas", str(tmp_path / "atlas.srmb"), "--out", str(tmp_path / "fit")]) == 0
    assert writes == ["model.json"]
    assert reads == []


def test_transform_reads_each_component_once(tmp_path, monkeypatch):
    from srmkit import srm

    ds = run_synth(tmp_path)
    assert main(["fit", "--algo", "detsrm", "--manifest", str(ds / "manifest.json"),
                 "--k", "3", "--n-iter", "2", "--out", str(tmp_path / "fit")]) == 0
    reads = []
    real_load = srm.load_matrix

    def recording_load(path, *args, **kwargs):
        reads.append(Path(path).name)
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(srm, "load_matrix", recording_load)
    assert main(["transform", "--model", str(tmp_path / "fit" / "model"),
                 "--manifest", str(ds / "manifest.json"), "--run", "0",
                 "--out", str(tmp_path / "s.srmb")]) == 0
    assert reads == ["w_000.srmb", "w_001.srmb", "w_002.srmb"]
