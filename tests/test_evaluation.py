import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srmkit
from srmkit import (
    Atlas,
    balanced_partition,
    cosmoothing,
    cosmoothing_fold,
    mean_within,
    r2_map,
    r2_score,
    roi_mask,
    save_matrix,
)
from srmkit.evaluation import _project_left_out, _score_blocks, _score_run, fold_seed
from srmkit.srm import _fold_steps, _project_sum

from conftest import random_orthonormal_rows


class TestR2Score:
    def test_perfect_prediction(self):
        y = np.array([0.3, -1.2, 4.0, 2.2])
        assert r2_score(y, y) == 1.0

    def test_mean_prediction_scores_zero_exactly(self):
        y = np.array([1.0, 2.0, 5.0, -3.0])
        pred = np.full(4, y.mean())
        assert r2_score(pred, y) == 0.0

    def test_hand_computed_example(self):
        # truth [0,1,2,3], prediction all zeros: residual SS 14, centered SS 5
        got = r2_score([0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 2.0, 3.0])
        assert got == 1.0 - 14.0 / 5.0
        assert abs(got - (-1.8)) < 1e-15

    def test_degenerate_truth(self):
        assert r2_score([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError, match="length"):
            r2_score([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="samples"):
            r2_score([1.0], [1.0])
        with pytest.raises(ValueError, match="shape mismatch"):
            r2_map(np.zeros((4, 3)), np.zeros((4, 2)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), t=st.integers(3, 40))
    def test_permutation_invariance(self, seed, t):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal(t)
        truth = rng.standard_normal(t)
        perm = rng.permutation(t)
        a = r2_score(pred, truth)
        b = r2_score(pred[perm], truth[perm])
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    def test_map_float32_truth_matches_float64_bit_for_bit(self):
        rng = np.random.default_rng(7)
        truth = (rng.standard_normal((60, 30)) * 3.0 + 1.0).astype(np.float32)
        truth[:, 4] = 2.5  # a degenerate column
        pred = rng.standard_normal((60, 30))
        for t in (truth, truth[::2, 1::2]):
            p = pred[: t.shape[0], : t.shape[1]]
            a = r2_map(p, t)
            b = r2_map(p, t.astype(np.float64))
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])

    def test_map_holds_one_float64_copy(self):
        import tracemalloc

        rng = np.random.default_rng(8)
        truth = rng.standard_normal((200, 2000)).astype(np.float32)
        pred = rng.standard_normal((200, 2000))
        tracemalloc.start()
        try:
            r2_map(pred, truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 200 * 2000 * 8

    def test_map_flags_degenerate_columns(self):
        truth = np.column_stack([np.arange(4.0), np.full(4, 2.0)])
        pred = np.zeros((4, 2))
        scores, degenerate = r2_map(pred, truth)
        assert degenerate.tolist() == [False, True]
        assert scores[1] == 0.0
        assert np.all(scores <= 1.0)


def rows_of(truth):
    """The (start, stop, rows) blocks of an in-memory truth, cut as
    DatasetManifest.run_blocks cuts a run, which _score_blocks takes."""
    rows = srmkit.dataio._block_rows(truth.shape[1])
    return ((a, min(a + rows, len(truth)), truth[a:a + rows])
            for a in range(0, len(truth), rows))


def column_mean(x):
    return x.mean(axis=0, dtype=np.float64)


class TestScoreBlocks:
    """The co-smoothing kernel: r2_map of ``shared @ w``, scored by row block."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("t, rows", [
        (56, 7),    # several whole blocks
        (60, 7),    # a ragged tail of 4 rows
        (53, 13),   # a 1-row tail, a block of its own
        (14, 13),   # one whole block and a 1-row tail
        (40, None), # the default blocks: one block at this width
    ])
    def test_matches_r2_map_bit_for_bit(self, monkeypatch, dtype, t, rows):
        v = 24
        if rows is not None:
            monkeypatch.setattr(srmkit.dataio, "BLOCK_BYTES", rows * 8 * v)
        # Integer factors make every product exact, so the test sees the
        # kernel's own sums however BLAS splits a block's product.
        rng = np.random.default_rng(t)
        shared = rng.integers(-4, 5, (t, 3)).astype(np.float64)
        w = rng.integers(-4, 5, (3, v)).astype(np.float64)
        truth = (shared @ w + rng.standard_normal((t, v)) * 3.0).astype(dtype)
        truth[:, 5] = 2.5  # a degenerate column
        scores, degenerate = _score_blocks(shared, w, rows_of(truth), column_mean(truth))
        want_scores, want_degenerate = r2_map(shared @ w, truth)
        assert np.array_equal(scores, want_scores)
        assert np.array_equal(degenerate, want_degenerate)
        assert degenerate.tolist() == [c == 5 for c in range(v)]

    def test_real_factors_agree_to_rounding(self, monkeypatch):
        # BLAS may round a row block's product apart from the same rows of
        # the whole product (OpenBLAS does at widths not a multiple of 8),
        # and a 1-row block's product goes through GEMV.
        monkeypatch.setattr(srmkit.dataio, "BLOCK_BYTES", 13 * 8 * 301)
        for t in (60, 53):  # a ragged tail of 8 rows, and a 1-row tail
            rng = np.random.default_rng(9)
            shared, w = rng.standard_normal((t, 5)), rng.standard_normal((5, 301))
            truth = shared @ w + rng.standard_normal((t, 301))
            scores, _ = _score_blocks(shared, w, rows_of(truth), column_mean(truth))
            assert np.allclose(scores, r2_map(shared @ w, truth)[0], rtol=0, atol=1e-12)

    def test_score_run_never_builds_the_prediction(self, monkeypatch):
        import tracemalloc

        t, v, k = 200, 2000, 20
        monkeypatch.setattr(srmkit.dataio, "BLOCK_BYTES", 52 * 8 * v)  # 52-row blocks
        rng = np.random.default_rng(10)
        truth = rng.standard_normal((t, v)).astype(np.float32)
        w = rng.standard_normal((k, v))
        proj = [rng.standard_normal((t, k)) for _ in range(3)]
        mu = column_mean(truth)
        read = []

        class Manifest:  # serves fresh copies of row blocks, as a run read from disk does
            def run_blocks(self, subject, run):
                for a, b, rows in rows_of(truth):
                    read.append((a, b))
                    yield a, b, rows.copy()

        tracemalloc.start()
        try:
            _score_run(Manifest(), 0, lambda i: (w.copy(), mu), proj, subjects=[1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read == [(0, 52), (52, 104), (104, 156), (156, 200)]  # each row once
        assert peak <= w.nbytes + 0.5 * t * v * 8


    def test_score_run_checks_the_truth_against_the_manifest(self, make_dataset):
        # The truth is drawn through run_blocks, so a file longer than the
        # manifest says fails before a block is scored, naming the run.
        manifest, _ = make_dataset(n=2, m=2, t_list=(10, 12), v=16, k=2, sigma=0.5, seed=55)
        target = manifest.runs[1][0]
        save_matrix(np.ones((11, 16)), target)
        w = random_orthonormal_rows(2, 16, seed=56)
        proj = [np.ones((10, 2)), np.ones((10, 2))]
        with pytest.raises(RuntimeError, match="subject 1, run 0: .*11x16, manifest expects"):
            _score_run(manifest, 0, lambda i: (w, np.zeros(16)), proj, subjects=[1])


class TestProjectLeftOut:
    """The left-out run's projection and column mean, in one pass by row block."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("v, rows", [
        (48, 7),      # 7-row blocks, ragged tails of 5 rows on both runs
        (301, 7),     # a width that is not a multiple of 8
        (301, None),  # the default blocks: one block at this width
    ])
    def test_matches_the_whole_run(self, make_dataset, monkeypatch, dtype, v, rows):
        manifest, _ = make_dataset(n=2, m=2, t_list=(40, 33), v=v, k=3, sigma=0.5, seed=50,
                                   dtype=dtype)
        if rows is not None:
            monkeypatch.setattr(srmkit.dataio, "BLOCK_BYTES", rows * 8 * v)
        w = random_orthonormal_rows(3, v, seed=51)
        for run in (0, 1):
            x = manifest.load_run(1, run)
            proj, mu = _project_left_out(manifest, 1, run, w)
            want = _project_sum([x], [w])[0]
            if dtype == np.float32:  # _project_sum takes the same blocks
                assert proj.tobytes() == want.tobytes()
            else:  # _project_sum takes a float64 run in one product
                assert np.allclose(proj, want, rtol=0, atol=1e-12)
            assert mu.tobytes() == x.mean(axis=0, dtype=np.float64).tobytes()

    def test_reads_each_row_once(self, make_dataset, monkeypatch):
        manifest, _ = make_dataset(n=2, m=2, t_list=(40, 33), v=48, k=3, sigma=0.5, seed=53,
                                   dtype=np.float32)
        monkeypatch.setattr(srmkit.dataio, "BLOCK_BYTES", 7 * 8 * 48)
        read = []
        load_run = srmkit.dataio.DatasetManifest.load_run

        def logged(self, subject, run, rows=None):
            read.append(rows)
            return load_run(self, subject, run, rows)

        monkeypatch.setattr(srmkit.dataio.DatasetManifest, "load_run", logged)
        _project_left_out(manifest, 0, 1, random_orthonormal_rows(3, 48, seed=54))
        assert read == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 33)]


class TestRoiMask:
    def test_single_map_minus_inf_threshold(self):
        mask = roi_mask([np.array([0.2, -3.0, 0.0])], threshold=-np.inf)
        assert mask.all()

    def test_intersection(self):
        maps = [np.array([0.1, 0.0]), np.array([0.1, 0.2])]
        assert roi_mask(maps, threshold=0.05).tolist() == [True, False]

    def test_default_threshold_is_005(self):
        import inspect

        from srmkit.evaluation import roi_mask as rm

        assert inspect.signature(rm).parameters["threshold"].default == 0.05

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            roi_mask([])
        with pytest.raises(ValueError, match="voxel count"):
            roi_mask([np.zeros(3), np.zeros(4)])

    def test_mean_within_empty_mask_is_nan(self):
        assert np.isnan(mean_within(np.zeros(3, dtype=bool), np.ones(3)))
        assert mean_within(np.array([True, False, True]), np.array([1.0, 9.0, 3.0])) == 2.0


class TestCosmoothing:
    def test_requires_two_runs_and_subjects(self, make_dataset):
        manifest, _ = make_dataset(n=1, m=2)
        with pytest.raises(ValueError, match="subjects"):
            cosmoothing(manifest, "detsrm", k=2)
        manifest, _ = make_dataset(n=2, m=1, t_list=(40,))
        with pytest.raises(ValueError, match="runs"):
            cosmoothing(manifest, "detsrm", k=2)

    def test_unknown_algorithm(self, make_dataset):
        manifest, _ = make_dataset()
        with pytest.raises(ValueError, match="algorithm"):
            cosmoothing(manifest, "pca", k=2)

    def test_noiseless_reconstruction_near_perfect(self, make_dataset, tmp_path):
        manifest, truth = make_dataset(
            n=4, m=2, t_list=(50, 45), v=120, k=4, sigma=0.0, seed=21
        )
        signal = truth.signal_voxels(0)
        for algo, atlas in (("detsrm", None), ("fastsrm", balanced_partition(120, 16, seed=1))):
            result = cosmoothing(
                manifest, algo, k=4, atlas=atlas, n_iter=10, seed=0
            )
            assert len(result.folds) == 2 * 4
            mean = result.mean_map()
            assert np.mean(mean[signal]) >= 0.999

    def test_identical_subjects_reconstruct_exactly(self, tmp_path):
        # n=2 with equal data: the left-out subject equals its predictor
        import srmkit

        rng = np.random.default_rng(22)
        k, v = 3, 40
        w = np.linalg.qr(rng.standard_normal((v, k)))[0].T
        runs = [rng.standard_normal((30, k)) @ w, rng.standard_normal((35, k)) @ w]
        names = {}
        for i in range(2):
            names[f"s{i}"] = []
            for s, x in enumerate(runs):
                p = tmp_path / f"s{i}_r{s}.srmb"
                srmkit.save_matrix(x, p)
                names[f"s{i}"].append(p.name)
        srmkit.save_manifest(tmp_path / "manifest.json", names)
        manifest = srmkit.load_manifest(tmp_path / "manifest.json")
        result = cosmoothing(manifest, "detsrm", k=k, n_iter=10, seed=0)
        var = np.var(runs[0], axis=0)
        signal = var > 1e-6 * var.mean()
        for fold in result.folds:
            assert np.all(fold.scores[signal] >= 1.0 - 1e-6)

    def test_independent_noise_subject_scores_near_zero(self, tmp_path):
        import srmkit

        rng = np.random.default_rng(23)
        n, k, v, t = 4, 3, 60, 50
        w_list = [np.linalg.qr(rng.standard_normal((v, k)))[0].T for _ in range(n)]
        shared = [rng.standard_normal((t, k)) * 2.0 for _ in range(2)]
        names = {}
        for i in range(n):
            names[f"s{i}"] = []
            for s in range(2):
                if i == n - 1:
                    x = rng.standard_normal((t, v))  # pure noise, unrelated to others
                else:
                    x = shared[s] @ w_list[i] + 0.05 * rng.standard_normal((t, v))
                p = tmp_path / f"s{i}_r{s}.srmb"
                srmkit.save_matrix(x, p)
                names[f"s{i}"].append(p.name)
        srmkit.save_manifest(tmp_path / "manifest.json", names)
        manifest = srmkit.load_manifest(tmp_path / "manifest.json")
        result = cosmoothing(manifest, "detsrm", k=k, n_iter=10, seed=0)
        noise_folds = [f for f in result.folds if f.left_out_subject == n - 1]
        assert noise_folds
        for fold in noise_folds:
            assert fold.scores.mean() <= 0.05

    @pytest.mark.parametrize("algorithm", ["detsrm", "probsrm"])
    def test_float64_maps_agree_with_whole_run_scoring(self, make_dataset, monkeypatch,
                                                       algorithm):
        # The left-out runs are projected and scored by row block, so float64
        # maps agree with scoring the whole-run prediction to rounding only.
        v = 301
        manifest, _ = make_dataset(n=3, m=2, t_list=(30, 26), v=v, k=3, sigma=0.5, seed=52)
        monkeypatch.setattr(srmkit.dataio, "BLOCK_BYTES", 7 * 8 * v)
        result = cosmoothing(manifest, algorithm, k=3, n_iter=3, seed=5)
        assert len(result.folds) == 6
        for fold in result.folds:
            s, i = fold.left_out_run, fold.left_out_subject
            model = srmkit.fit(manifest.without_run(s), algorithm, 3, n_iter=3,
                               seed=fold_seed(5, s))
            others = [z for z in range(3) if z != i]
            shared = srmkit.update_shared([manifest.load_run(z, s) for z in others],
                                          [model.spatial_component(z) for z in others])
            want, _ = r2_map(shared @ model.spatial_component(i), manifest.load_run(i, s))
            assert np.allclose(fold.scores, want, rtol=0, atol=1e-12)

    def test_single_fold_recomputes_bit_for_bit(self, make_dataset, tmp_path):
        manifest, _ = make_dataset(n=3, m=3, t_list=(20, 25, 20), v=50, k=3, sigma=0.6, seed=24)
        full = cosmoothing(manifest, "detsrm", k=3, n_iter=4, seed=7)
        target = [f for f in full.folds if f.left_out_run == 1 and f.left_out_subject == 2][0]
        alone = cosmoothing_fold(manifest, "detsrm", k=3, run=1, subject=2, n_iter=4, seed=7)
        assert np.array_equal(alone.scores, target.scores)
        assert np.array_equal(alone.degenerate, target.degenerate)

    @pytest.mark.parametrize("n, m, k, run, subject, match", [
        (1, 2, 2, 0, 0, "at least 2 subjects"),
        (3, 1, 2, 0, 0, "at least 2 runs"),
        (3, 3, 25, 0, 0, "total timeframes=20"),
        (3, 3, 2, 3, 0, r"run=3 is outside \[0, 3\)"),
        (3, 3, 2, -1, 0, r"run=-1 is outside \[0, 3\)"),
        (3, 3, 2, 0, 3, r"subject=3 is outside \[0, 3\)"),
        (3, 3, 2, 0, -1, r"subject=-1 is outside \[0, 3\)"),
    ])
    def test_single_fold_rejects_what_the_sweep_rejects_before_any_read(
        self, make_dataset, monkeypatch, n, m, k, run, subject, match
    ):
        manifest, _ = make_dataset(n=n, m=m, t_list=(10,) * m, v=30, k=2, sigma=0.5, seed=8)

        def no_load(*args, **kwargs):
            raise AssertionError("a run was read")

        monkeypatch.setattr(srmkit.dataio, "load_matrix", no_load)
        with pytest.raises(ValueError, match=match):
            cosmoothing_fold(manifest, "detsrm", k=k, run=run, subject=subject)

    def test_fastsrm_projects_each_run_once(self, make_dataset, monkeypatch):
        manifest, _ = make_dataset(n=3, m=3, t_list=(20, 20, 20), v=40, k=2, sigma=0.5, seed=28)
        calls = {"n": 0}
        project = srmkit.fastsrm.project_run

        def counting(x, atlas):
            calls["n"] += 1
            return project(x, atlas)

        monkeypatch.setattr(srmkit.fastsrm, "project_run", counting)
        atlas = balanced_partition(40, 8, seed=4)
        result = cosmoothing(manifest, "fastsrm", k=2, atlas=atlas, n_iter=2, seed=0)
        assert len(result.folds) == 9
        assert calls["n"] == 3 * 3

    def test_fastsrm_k_checked_before_any_projection(self, make_dataset, monkeypatch):
        manifest, _ = make_dataset(n=3, m=3, t_list=(20, 20, 20), v=40, k=2, sigma=0.5, seed=28)
        calls = []
        monkeypatch.setattr(srmkit.fastsrm, "project_run", lambda x, atlas: calls.append(x))
        atlas = balanced_partition(40, 8, seed=4)
        with pytest.raises(ValueError, match="parcel count"):
            cosmoothing(manifest, "fastsrm", k=8, atlas=atlas, n_iter=2, seed=0)
        assert calls == []

    @pytest.mark.parametrize("algorithm", ["detsrm", "probsrm", "fastsrm"])
    def test_k_above_training_frames_rejected_before_any_read(
        self, make_dataset, monkeypatch, algorithm
    ):
        # 3 runs of 10 frames: a fit holds at most 30 components, a fold 20
        manifest, _ = make_dataset(n=3, m=3, t_list=(10, 10, 10), v=60, k=2, sigma=0.5, seed=8)
        atlas = balanced_partition(60, 50, seed=0)

        def no_load(*args, **kwargs):
            raise AssertionError("a run was read")

        monkeypatch.setattr(srmkit.dataio, "load_matrix", no_load)
        calls = [
            (lambda: srmkit.fit(manifest, algorithm, k=40, atlas=atlas), "total timeframes=30"),
            (lambda: cosmoothing(manifest, algorithm, k=25, atlas=atlas), "total timeframes=20"),
        ]
        if algorithm == "fastsrm":
            calls.append((lambda: srmkit.fastsrm_fit(manifest, atlas, k=40), "v=50"))
        for call, match in calls:
            with pytest.raises(ValueError, match=match):
                call()

    def test_fastsrm_removes_its_spill(self, make_dataset, monkeypatch, tmp_path):
        manifest, _ = make_dataset(n=3, m=3, t_list=(20, 20, 20), v=40, k=2, sigma=0.5, seed=28)
        root = tmp_path / "tmpdir"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        atlas = balanced_partition(40, 8, seed=4)

        def evaluate():
            return cosmoothing(manifest, "fastsrm", k=2, atlas=atlas, n_iter=2, seed=0)

        assert len(evaluate().folds) == 9
        assert list(root.glob("srmkit-*")) == []

        def score_or_fail(manifest, run, component, proj, subjects=None):
            # the last fold fails, after every fit and the recovery pass
            if run == 2:
                raise ArithmeticError("scoring failed")
            return []

        monkeypatch.setattr(srmkit.evaluation, "_score_run", score_or_fail)
        with pytest.raises(RuntimeError, match="left-out run 2"):
            evaluate()
        assert list(root.glob("srmkit-*")) == []

    @pytest.mark.parametrize("algorithm", ["fastsrm", "detsrm", "probsrm"])
    def test_spill_holds_only_reduced_runs_and_fold_components(self, make_dataset, monkeypatch,
                                                               tmp_path, algorithm):
        # each fold's column means stay in memory; only fastsrm writes to the spill
        from srmkit.evaluation import FOLD_COMPONENT_FILE
        from srmkit.fastsrm import REDUCED_FILE

        manifest, _ = make_dataset(n=3, m=3, t_list=(20, 20, 20), v=40, k=2, sigma=0.5, seed=28)
        root = tmp_path / "tmpdir"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        score_run = srmkit.evaluation._score_run
        listed = []

        def listing(manifest, run, held_out, proj, subjects=None):
            (spill,) = root.glob("srmkit-*")
            listed.append({p.name for p in spill.iterdir()})
            return score_run(manifest, run, held_out, proj, subjects)

        monkeypatch.setattr(srmkit.evaluation, "_score_run", listing)
        atlas = balanced_partition(40, 8, seed=4) if algorithm == "fastsrm" else None
        result = cosmoothing(manifest, algorithm, k=2, atlas=atlas, n_iter=2, seed=0)
        assert len(result.folds) == 9
        expected = set()
        if algorithm == "fastsrm":
            expected = {REDUCED_FILE.format(i, s) for i in range(3) for s in range(3)}
            expected |= {FOLD_COMPONENT_FILE.format(s, i) for s in range(3) for i in range(3)}
        assert listed == [expected] * 3
        assert list(root.glob("srmkit-*")) == []

    def test_fastsrm_reads_each_run_four_times(self, make_dataset, monkeypatch):
        # reduce, recover every fold, project as a left-out run, score: 4 * t_s
        # rows per run whatever the run count (the parent read (m + 2) * t_s)
        manifest, _ = make_dataset(n=3, m=4, t_list=(20, 25, 15, 20), v=40, k=2, sigma=0.5,
                                   seed=31)
        full = {path: manifest.t_per_run[s] for paths in manifest.runs
                for s, path in enumerate(paths)}
        rows_read = dict.fromkeys(full, 0)
        load_run = srmkit.dataio.DatasetManifest.load_run

        def counting_load(self, subject, run, rows=None):
            path = self.runs[subject][run]
            if path in rows_read:
                start, stop = (0, self.t_per_run[run]) if rows is None else rows
                rows_read[path] += stop - start
            return load_run(self, subject, run, rows)

        run_tiles = srmkit.dataio.DatasetManifest.run_tiles

        def counting_tiles(self, subject, run):
            # recovery reads whole-run tiles, not through load_run: t_s rows per draw
            for a, b, x in run_tiles(self, subject, run):
                if b == self.v and self.runs[subject][run] in rows_read:
                    rows_read[self.runs[subject][run]] += len(x)
                yield a, b, x

        monkeypatch.setattr(srmkit.dataio.DatasetManifest, "load_run", counting_load)
        monkeypatch.setattr(srmkit.dataio.DatasetManifest, "run_tiles", counting_tiles)
        monkeypatch.setattr(srmkit.dataio, "BLOCK_BYTES", 8 * 40 * 7)  # 7-row blocks
        atlas = balanced_partition(40, 8, seed=4)
        result = cosmoothing(manifest, "fastsrm", k=2, atlas=atlas, n_iter=2, seed=0)
        assert len(result.folds) == 12
        assert rows_read == {path: 4 * t for path, t in full.items()}

    @pytest.mark.parametrize("algorithm, blocks, tiles", [
        # reduce, project as a left-out run, score by row blocks; recover every fold by tiles
        ("fastsrm", 3, 1),
        ("detsrm", 2, 0),   # project as a left-out run, score; the fits load runs whole
    ])
    def test_streamed_passes_draw_runs_through_run_blocks(self, make_dataset, monkeypatch,
                                                          algorithm, blocks, tiles):
        manifest, _ = make_dataset(n=3, m=3, t_list=(20, 25, 15), v=40, k=2, sigma=0.5,
                                   seed=31)
        drawn = {path: [0, 0] for paths in manifest.runs for path in paths}
        readers = srmkit.dataio.DatasetManifest.run_blocks, srmkit.dataio.DatasetManifest.run_tiles

        def counting(j):
            def draw(self, subject, run, *size):
                if self.runs[subject][run] in drawn:
                    drawn[self.runs[subject][run]][j] += 1
                return readers[j](self, subject, run, *size)
            return draw

        monkeypatch.setattr(srmkit.dataio.DatasetManifest, "run_blocks", counting(0))
        monkeypatch.setattr(srmkit.dataio.DatasetManifest, "run_tiles", counting(1))
        atlas = balanced_partition(40, 8, seed=4) if algorithm == "fastsrm" else None
        result = cosmoothing(manifest, algorithm, k=2, atlas=atlas, n_iter=2, seed=0)
        assert len(result.folds) == 9
        assert {tuple(n) for n in drawn.values()} == {(blocks, tiles)}

    def test_fastsrm_peak_is_flat_in_subject_count(self, make_dataset):
        # Every subject adds m fold maps (9 bytes a voxel each) to the result;
        # beyond those, the peak must grow far less than the subjects' k x v
        # components of a fold, which stay on disk.
        import tracemalloc

        m, v, k = 2, 600, 10
        atlas = balanced_partition(v, 40, seed=7)
        peaks = {}
        for n in (4, 12):
            manifest, _ = make_dataset(n=n, m=m, t_list=(30, 30), v=v, k=k, sigma=0.3, seed=46)
            tracemalloc.start()
            try:
                result = cosmoothing(manifest, "fastsrm", k=k, atlas=atlas, n_iter=3, seed=0)
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(result.folds) == n * m
            del result
        maps_growth = 9 * m * v * (12 - 4)
        components_growth = 8 * k * v * (12 - 4)
        ratio = (peaks[12] - peaks[4] - maps_growth) / components_growth
        assert ratio < 0.25, f"peak grew {ratio:.2f} fold components beyond the maps"

    def test_fastsrm_projects_left_out_runs_after_the_accumulators_go(self, make_dataset,
                                                                       monkeypatch):
        # Each float32 run is one 131-row block (4 MiB), read 256 columns at
        # a time while the folds accumulate but whole (8 MiB) for the
        # left-out projection and for scoring. Recovery holds the m k x v
        # accumulators and one tile; the projection, run once every
        # accumulator is gone, holds one k x v and both forms of a block.
        # Projecting between Procrustes steps would hold the remaining
        # accumulators, the new components and both forms of a block at once,
        # about 4 MiB over the bound. The margins on both sides (3-4 MiB) are
        # wider than the interpreter's own tables can grow in one call.
        import tracemalloc

        n, m, v, k = 2, 8, 8000, 20
        t = srmkit.dataio._block_rows(v)
        monkeypatch.setattr(srmkit.dataio, "TILE_COLS", 256)
        manifest, _ = make_dataset(n=n, m=m, t_list=(t,) * m, v=v, k=k, sigma=0.3, seed=61,
                                   dtype=np.float32)
        atlas = balanced_partition(v, 40, seed=7)
        tracemalloc.start()
        try:
            result = cosmoothing(manifest, "fastsrm", k=k, atlas=atlas, n_iter=2, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.folds) == n * m
        accumulators = m * k * v * 8
        block = t * v * 8  # one row block, in float64
        responses = m * (m - 1) * t * k * 8  # every fold's shared responses, held throughout
        slack = 256 << 10  # projections, maps and small arrays
        assert peak <= accumulators + block + responses + slack, (
            f"peak {peak / 2**20:.2f} MiB, "
            f"{(peak - accumulators - block - responses) / 2**20:.2f} MiB above the "
            f"accumulators, one row block and the shared responses")

    def test_fastsrm_recovery_failure_removes_its_spill(self, make_dataset, monkeypatch, tmp_path):
        manifest, _ = make_dataset(n=3, m=3, t_list=(20, 20, 20), v=40, k=2, sigma=0.5, seed=32)
        root = tmp_path / "tmpdir"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        atlas = balanced_partition(40, 8, seed=4)
        save = srmkit.evaluation.save_matrix

        def save_or_fail(mat, path):  # fold 1's components cannot be written
            if path.name.startswith("run-001_"):
                raise OSError("disk full")
            save(mat, path)

        with monkeypatch.context() as patch:
            patch.setattr(srmkit.evaluation, "save_matrix", save_or_fail)
            with pytest.raises(RuntimeError, match="left-out run 1 failed: disk full"):
                cosmoothing(manifest, "fastsrm", k=2, atlas=atlas, n_iter=2, seed=0)
        assert list(root.glob("srmkit-*")) == []

        # a run truncated after every reduced fit fails the recovery pass; every
        # fold reads every run there, so the first fold is named
        target = manifest.runs[1][2]
        fit_reduced = srmkit.evaluation._fit_reduced
        fits = []

        def fit_then_truncate(*args, **kwargs):
            out = fit_reduced(*args, **kwargs)
            fits.append(1)
            if len(fits) == 3:
                target.write_bytes(target.read_bytes()[:-8])
            return out

        monkeypatch.setattr(srmkit.evaluation, "_fit_reduced", fit_then_truncate)
        with pytest.raises(RuntimeError, match="left-out run 0 failed") as info:
            cosmoothing(manifest, "fastsrm", k=2, atlas=atlas, n_iter=2, seed=0)
        assert "subject 1, run 2" in str(info.value)
        assert str(target) in str(info.value)
        assert list(root.glob("srmkit-*")) == []

    def test_fastsrm_failing_projection_names_its_fold(self, make_dataset, monkeypatch,
                                                       tmp_path):
        # The left-out runs are projected after every fold's components are
        # written; a projection that fails there names its own fold.
        manifest, _ = make_dataset(n=3, m=3, t_list=(20, 20, 20), v=40, k=2, sigma=0.5, seed=33)
        root = tmp_path / "tmpdir"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        project = srmkit.evaluation._project_left_out

        def project_or_fail(manifest, subject, run, w):
            if (subject, run) == (2, 1):
                raise FloatingPointError("overflow")
            return project(manifest, subject, run, w)

        monkeypatch.setattr(srmkit.evaluation, "_project_left_out", project_or_fail)
        with pytest.raises(RuntimeError, match="left-out run 1 failed: overflow"):
            cosmoothing(manifest, "fastsrm", k=2, atlas=balanced_partition(40, 8, seed=4),
                        n_iter=2, seed=0)
        assert list(root.glob("srmkit-*")) == []

    @pytest.mark.parametrize("algorithm", ["detsrm", "probsrm"])
    def test_failing_projection_names_its_fold_and_removes_the_spill(
        self, make_dataset, monkeypatch, tmp_path, algorithm
    ):
        # detsrm and probsrm spill their folds' left-out run means as fastsrm
        # does, so a failing projection leaves no spill behind either.
        manifest, _ = make_dataset(n=3, m=3, t_list=(20, 20, 20), v=40, k=2, sigma=0.5, seed=33)
        root = tmp_path / "tmpdir"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        project = srmkit.evaluation._project_left_out

        def project_or_fail(manifest, subject, run, w):
            if (subject, run) == (2, 1):
                raise FloatingPointError("overflow")
            return project(manifest, subject, run, w)

        monkeypatch.setattr(srmkit.evaluation, "_project_left_out", project_or_fail)
        with pytest.raises(RuntimeError, match="left-out run 1 failed: overflow"):
            cosmoothing(manifest, algorithm, k=2, n_iter=2, seed=0)
        assert list(root.glob("srmkit-*")) == []

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_fastsrm_folds_recompute_bit_for_bit(self, make_dataset, n_jobs):
        manifest, _ = make_dataset(
            n=3, m=3, t_list=(20, 25, 20), v=50, k=3, sigma=0.6, seed=29, dtype=np.float32
        )
        weights = np.random.default_rng(30).uniform(0.0, 1.0, size=(10, 50))
        atlas = Atlas.probabilistic(weights)
        full = cosmoothing(manifest, "fastsrm", k=3, atlas=atlas, n_iter=4, seed=7, n_jobs=n_jobs)
        for fold in full.folds:
            alone = cosmoothing_fold(
                manifest, "fastsrm", k=3, run=fold.left_out_run, subject=fold.left_out_subject,
                atlas=atlas, n_iter=4, seed=7, n_jobs=n_jobs,
            )
            assert np.array_equal(alone.scores, fold.scores)
            assert np.array_equal(alone.degenerate, fold.degenerate)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_column_tiles_keep_folds_and_jobs_bit_for_bit(self, make_dataset, monkeypatch,
                                                          dtype):
        # 16-column tiles over v=50 (three whole tiles and a ragged one):
        # a single fold recomputes the sweep's maps, and one or two workers
        # write the same components and maps, for every algorithm.
        monkeypatch.setattr(srmkit.dataio, "TILE_COLS", 16)
        manifest, _ = make_dataset(n=3, m=3, t_list=(20, 25, 20), v=50, k=3, sigma=0.6,
                                   seed=33, dtype=dtype)
        atlas = Atlas.probabilistic(np.random.default_rng(34).uniform(0.0, 1.0, size=(10, 50)))
        for algorithm in ("detsrm", "probsrm", "fastsrm"):
            cfg = dict(k=3, atlas=atlas if algorithm == "fastsrm" else None, n_iter=3, seed=7)
            fits = [srmkit.fit(manifest, algorithm, n_jobs=j, **cfg) for j in (1, 2)]
            for i in range(3):
                one, two = (f.spatial_component(i) for f in fits)
                assert one.tobytes() == two.tobytes()
            sweeps = [cosmoothing(manifest, algorithm, n_jobs=j, **cfg) for j in (1, 2)]
            for fold, other in zip(*(r.folds for r in sweeps)):
                assert fold.scores.tobytes() == other.scores.tobytes()
            for fold in sweeps[0].folds:
                alone = cosmoothing_fold(manifest, algorithm, run=fold.left_out_run,
                                         subject=fold.left_out_subject, **cfg)
                assert alone.scores.tobytes() == fold.scores.tobytes()
                assert np.array_equal(alone.degenerate, fold.degenerate)

    @pytest.mark.parametrize("tile, n, t_list, v, k, c", [
        # v=50 in tiles of 16 or 13 columns and a ragged last one, runs of 21,
        # 27 and 19 rows
        (16, 3, (21, 27, 19), 50, 3, 10),
        (13, 3, (21, 27, 19), 50, 3, 10),
        # 20 components and 3,150-column tiles, where OpenBLAS 0.3.31 rounds a
        # row of the 4-fold stacked product apart from the fold's own product
        (3150, 2, (40, 40, 40, 40, 40), 3150, 20, 40),
    ])
    def test_fastsrm_fold_matches_the_sweep_bit_for_bit(self, make_dataset, monkeypatch, tile,
                                                        n, t_list, v, k, c):
        # cosmoothing_fold takes the sweep's recovery of every fold, so its map
        # is the sweep's, however BLAS rounds the stacked product.
        monkeypatch.setattr(srmkit.dataio, "TILE_COLS", tile)
        manifest, _ = make_dataset(n=n, m=len(t_list), t_list=t_list, v=v, k=k, sigma=0.6,
                                   seed=35)
        atlas = balanced_partition(v, c, seed=5)
        full = cosmoothing(manifest, "fastsrm", k=k, atlas=atlas, n_iter=3, seed=2)
        for fold in full.folds:
            alone = cosmoothing_fold(manifest, "fastsrm", k=k, run=fold.left_out_run,
                                     subject=fold.left_out_subject, atlas=atlas, n_iter=3,
                                     seed=2)
            assert alone.scores.tobytes() == fold.scores.tobytes()
            assert np.array_equal(alone.degenerate, fold.degenerate)

    def test_fastsrm_recovery_holds_accumulators_and_one_tile(self, make_dataset, monkeypatch):
        # One subject's co-smoothing recovery: 4 folds over 4 float32 runs of
        # 100 x 8,000, each fold training on 3. It holds the m k x v
        # accumulators, one float64 tile with its float32 staging, and the
        # stacked (3k) x t shared responses with their (3k) x tile scratch.
        # A float64 row block (the whole 6.1 MiB run at this v) would cross
        # the bound.
        import tracemalloc
        from functools import partial

        m, t, v, k, tile = 4, 100, 8000, 10, 1600
        monkeypatch.setattr(srmkit.dataio, "TILE_COLS", tile)
        manifest, _ = make_dataset(n=1, m=m, t_list=(t,) * m, v=v, k=k, sigma=0.3, seed=65,
                                   dtype=np.float32)
        rng = np.random.default_rng(66)
        folds = [[None if s == f else rng.standard_normal((t, k)) for s in range(m)]
                 for f in range(m)]
        accumulators = m * k * v * 8
        buffers = t * tile * (8 + 4) + (m - 1) * k * (t + tile) * 8
        slack = 64 << 10
        assert buffers + slack < srmkit.dataio._block_rows(v) * v * 8
        tracemalloc.start()
        try:
            for w, _ in _fold_steps(folds, partial(manifest.run_tiles, 0), v):
                del w
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < accumulators + buffers + slack, (
            f"{(peak - accumulators - buffers) / 1024:.0f} KiB above the accumulators, "
            "the tile and the scratch")

    def test_fold_enumeration_and_mean_maps(self, make_dataset):
        manifest, _ = make_dataset(n=2, m=2, v=30, k=2, sigma=0.5, seed=25)
        result = cosmoothing(manifest, "detsrm", k=2, n_iter=3, seed=1)
        # subject-major enumeration
        assert [(f.left_out_subject, f.left_out_run) for f in result.folds] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]
        assert result.mean_map().shape == (30,)

    def test_failure_reports_fold(self, make_dataset):
        manifest, _ = make_dataset(n=2, m=2, v=30, k=2, sigma=0.5, seed=26)
        raw = bytearray(manifest.runs[0][1].read_bytes())
        raw[:4] = b"XXXX"
        manifest.runs[0][1].write_bytes(bytes(raw))
        with pytest.raises(RuntimeError, match="left-out run 0"):
            cosmoothing(manifest, "detsrm", k=2, n_iter=2, seed=0)

    @pytest.mark.parametrize("algorithm", ["detsrm", "fastsrm"])
    def test_failure_names_dataset_run(self, make_dataset, algorithm):
        # The fold leaving out run 0 trains on runs 1 and 2; the corrupted
        # run must be reported by its index in the dataset, not in the fold.
        manifest, _ = make_dataset(n=2, m=3, t_list=(20, 20, 20), v=30, k=2, sigma=0.5, seed=27)
        target = manifest.runs[1][2]
        raw = bytearray(target.read_bytes())
        raw[:4] = b"XXXX"
        target.write_bytes(bytes(raw))
        atlas = balanced_partition(30, 6, seed=3)
        with pytest.raises(RuntimeError, match="left-out run 0") as info:
            cosmoothing(manifest, algorithm, k=2, atlas=atlas, n_iter=2, seed=0)
        assert "subject 1, run 2" in str(info.value)
        assert str(target) in str(info.value)


@pytest.mark.parametrize("algorithm", ["detsrm", "probsrm"])
def test_unusable_component_dir_fails_before_any_load(make_dataset, monkeypatch, tmp_path,
                                                      algorithm):
    manifest, _ = make_dataset(n=3, m=2, v=30, k=3, sigma=0.2, seed=44)
    blocker = tmp_path / "file"
    blocker.write_text("")
    loads = []
    real_load = srmkit.dataio.DatasetManifest.load_run

    def counting_load(self, *args, **kwargs):
        loads.append(args)
        return real_load(self, *args, **kwargs)

    monkeypatch.setattr(srmkit.dataio.DatasetManifest, "load_run", counting_load)
    with pytest.raises(OSError):
        srmkit.fit(manifest, algorithm, k=3, n_iter=2, component_dir=blocker / "model")
    assert loads == []


BLAS_NAMES = ("openblas", "mkl", "blis")

ONE_BLAS_SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
import srmkit

manifest, _ = srmkit.generate(3, 2, [20, 20], 400, 3, 0.5, seed=0, out_dir=Path(sys.argv[1]))
srmkit.fastsrm_fit(manifest, srmkit.balanced_partition(400, 20, seed=0), k=3, n_iter=2)
dense = srmkit.Atlas.probabilistic(np.random.default_rng(1).uniform(0.1, 1.0, (20, 400)))
cols = np.arange(400)
one_each = np.zeros((100, 400))
one_each[cols % 100, cols] = 1.0
sparse_atlas = srmkit.Atlas.probabilistic(one_each)
for atlas in (dense, sparse_atlas):
    srmkit.cosmoothing(manifest, "fastsrm", k=3, atlas=atlas, n_iter=2)
srmkit.cosmoothing(manifest, "probsrm", k=3, n_iter=2)
maps = Path("/proc/self/maps").read_text().splitlines()
print(json.dumps(sorted({line.split()[-1] for line in maps if len(line.split()) == 6})))
"""


def test_one_blas_library_is_loaded(tmp_path):
    # Every kernel goes through numpy's BLAS. A second BLAS (scipy.linalg's
    # own OpenBLAS, say) brings a second thread pool, which slowed a whole
    # co-smoothing by about a third on two cores where it was tried.
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    if not Path("/proc/self/maps").exists():
        pytest.skip("needs /proc/self/maps")
    src = str(Path(srmkit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", ONE_BLAS_SCRIPT, str(tmp_path / "ds")],
                         capture_output=True, text=True, check=True, env=env)
    names = {Path(p).name for p in json.loads(out.stdout.splitlines()[-1])}
    blas = sorted(n for n in names if any(b in n.lower() for b in BLAS_NAMES))
    assert len(blas) <= 1, f"BLAS libraries loaded: {blas}"
