import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from srmkit import (
    SrmModel,
    balanced_partition,
    detsrm_fit,
    fit,
    probsrm_fit,
    procrustes_update,
    save_matrix,
    update_shared,
)
from srmkit import dataio, srm

from conftest import random_orthonormal_rows


def rotation_grid_2x2(step=0.001):
    """All 2x2 rotations and reflections at the given angle step."""
    theta = np.arange(0.0, 2 * np.pi, step)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    refl = np.stack([np.stack([c, s], axis=1), np.stack([s, -c], axis=1)], axis=1)
    return np.concatenate([rot, refl])


def best_orthogonal_on_grid(m, grid):
    """Grid maximizer of tr(W^T m), the alignment the analytic step optimizes."""
    scores = np.einsum("nij,ij->n", grid, m)
    idx = int(np.argmax(scores))
    return grid[idx], float(scores[idx])


class TestProcrustes:
    def test_orthonormal_input_is_fixed_point(self):
        q = random_orthonormal_rows(3, 8, seed=1)
        assert np.max(np.abs(procrustes_update(q) - q)) < 1e-10

    def test_diagonal_becomes_identity(self):
        assert np.allclose(procrustes_update(np.diag([3.0, 5.0])), np.eye(2), atol=1e-12)

    def test_result_is_orthonormal(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = procrustes_update(rng.standard_normal((4, 9)))
            assert np.max(np.abs(w @ w.T - np.eye(4))) <= 1e-10

    def test_matches_grid_search_2x2(self):
        # m = S^T X for random factors; the update must minimize ||X - S W||
        # over orthonormal W, checked against an exhaustive rotation /
        # reflection grid.
        grid = rotation_grid_2x2(step=0.001)
        rng = np.random.default_rng(3)
        for _ in range(5):
            s = rng.standard_normal((12, 2))
            x = rng.standard_normal((12, 2))
            m = s.T @ x
            w = procrustes_update(m)
            w_grid, score_grid = best_orthogonal_on_grid(m, grid)
            score = float(np.sum(w * m))
            # analytic solution can only beat the grid, and by at most the
            # grid resolution's worth of objective
            assert score >= score_grid - 1e-9
            assert score - score_grid <= np.linalg.norm(m) * np.sqrt(2) * 0.001

    def test_scale_invariance(self):
        m = np.random.default_rng(4).standard_normal((3, 7))
        base = procrustes_update(m)
        for f in (1e-3, 3.7, 1e3):
            assert np.max(np.abs(procrustes_update(f * m) - base)) <= 1e-8

    def test_errors(self):
        with pytest.raises(ValueError, match="k <= v"):
            procrustes_update(np.zeros((5, 3)))
        with pytest.raises(ValueError, match="finite"):
            procrustes_update(np.array([[np.nan, 0.0]]))


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices given to np.linalg.svd while the test runs."""
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


class TestPolarKernel:
    @pytest.mark.parametrize("v", [200, 20_000])
    def test_gram_kernel_matches_svd(self, svd_calls, v):
        m = np.random.default_rng(14).standard_normal((20, v))
        w, d = srm._polar(m)
        assert svd_calls == []  # well-conditioned: the Gram kernel, not the fallback
        u, d_svd, vt = np.linalg.svd(m, full_matrices=False)
        assert np.linalg.norm(w - u @ vt) <= 1e-12 * np.linalg.norm(u @ vt)
        assert np.max(np.abs(d - d_svd) / d_svd) <= 1e-12

    def test_ill_conditioned_input_takes_the_svd(self, svd_calls):
        # singular values 1 ... 1e-5: the Gram eigenvalue ratio 1e-10 is below the floor
        k, v = 20, 200
        u = random_orthonormal_rows(k, k, seed=15)
        vt = random_orthonormal_rows(k, v, seed=16)
        m = (u * np.logspace(0, -5, k)) @ vt
        assert np.logspace(0, -5, k)[-1] ** 2 < srm.GRAM_FLOOR
        w, d = srm._polar(m)
        assert svd_calls == [(k, v)]
        u_svd, d_svd, vt_svd = np.linalg.svd(m, full_matrices=False)
        assert w.tobytes() == (u_svd @ vt_svd).tobytes()
        assert d.tobytes() == d_svd.tobytes()

    @pytest.mark.parametrize("rank", [0, 2])
    def test_rank_deficient_input_gives_orthonormal_rows(self, svd_calls, rank):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((5, rank)) @ rng.standard_normal((rank, 40))
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            w, d = srm._polar(m)
        assert svd_calls == [(5, 40)]
        assert np.max(np.abs(w @ w.T - np.eye(5))) <= 1e-12
        assert np.all(np.isfinite(d)) and np.count_nonzero(d > 1e-12) == rank

    @pytest.mark.parametrize("algorithm", ["detsrm", "probsrm", "fastsrm"])
    def test_planted_fit_never_falls_back(self, make_dataset, svd_calls, algorithm):
        # a floor set too tight would send every step to the SVD and lose the speed-up
        manifest, _ = make_dataset(n=3, m=2, t_list=(40, 50), v=60, k=4, sigma=0.3, seed=18)
        atlas = balanced_partition(60, 12, seed=19) if algorithm == "fastsrm" else None
        fit(manifest, algorithm, 4, atlas=atlas, n_iter=5, seed=1)
        assert svd_calls == []


class TestUpdateShared:
    def test_identity_basis_returns_run(self):
        x = np.random.default_rng(5).standard_normal((6, 4))
        assert np.allclose(update_shared([x], [np.eye(4)]), x, atol=1e-14)

    def test_identical_subjects(self):
        x = np.random.default_rng(6).standard_normal((6, 8))
        w = random_orthonormal_rows(3, 8, seed=7)
        out = update_shared([x, x, x], [w, w, w])
        assert np.allclose(out, x @ w.T, atol=1e-12)

    def test_cancellation(self):
        x = np.random.default_rng(8).standard_normal((5, 8))
        w = random_orthonormal_rows(2, 8, seed=9)
        assert np.allclose(update_shared([x, -x], [w, w]), 0.0, atol=1e-14)

    def test_shape_errors(self):
        x = np.zeros((5, 8))
        w = random_orthonormal_rows(2, 8, seed=10)
        with pytest.raises(ValueError):
            update_shared([x], [w, w])
        with pytest.raises(ValueError):
            update_shared([x, np.zeros((4, 8))], [w, w])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_generators_match_lists_bit_for_bit(self, dtype):
        rng = np.random.default_rng(11)
        runs = [rng.standard_normal((7, 9)).astype(dtype) for _ in range(4)]
        spatial = [random_orthonormal_rows(3, 9, seed=12 + i) for i in range(4)]
        listed = update_shared(runs, spatial)
        streamed = update_shared((x for x in runs), (w for w in spatial))
        assert listed.dtype == np.float64
        assert streamed.tobytes() == listed.tobytes()

    def test_each_pair_is_checked_before_the_next_is_drawn(self):
        w = random_orthonormal_rows(2, 8, seed=13)
        drawn = []

        def runs():
            for t in (5, 4, 5):
                drawn.append(t)
                yield np.zeros((t, 8))

        with pytest.raises(ValueError, match="expected 5 timeframes"):
            update_shared(runs(), iter([w, w, w]))
        assert drawn == [5, 4]


class TestDetSrm:
    def test_noiseless_single_subject_recovery(self):
        rng = np.random.default_rng(20)
        k, v, t = 3, 12, 40
        w_true = random_orthonormal_rows(k, v, seed=21)
        s_true = rng.standard_normal((t, k)) * np.array([3.0, 2.0, 1.0])
        x = s_true @ w_true
        model, shared = detsrm_fit([[x]], k=k, n_iter=10, seed=0)
        w = model.spatial_component(0)
        resid = x - shared[0] @ w
        assert np.sum(resid**2) <= 1e-16 * np.sum(x**2)
        assert model.trace[-1] <= 1e-16 * np.sum(x**2)
        rel = np.linalg.norm(shared[0] @ w - x) / np.linalg.norm(x)
        assert rel <= 1e-6

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(22)
        data = [[rng.standard_normal((20, 15)) for _ in range(2)] for _ in range(3)]
        model, _ = detsrm_fit(data, k=4, n_iter=8, seed=1)
        trace = np.array(model.trace)
        assert len(trace) == 8
        assert np.all(np.diff(trace) <= 1e-12 * trace[0])

    def test_default_n_iter_is_10(self):
        import inspect

        assert inspect.signature(detsrm_fit).parameters["n_iter"].default == 10

    def test_fitted_components_orthonormal(self):
        rng = np.random.default_rng(23)
        data = [[rng.standard_normal((25, 30))] for _ in range(4)]
        model, _ = detsrm_fit(data, k=5, n_iter=3, seed=2)
        for i in range(4):
            w = model.spatial_component(i)
            assert np.max(np.abs(w @ w.T - np.eye(5))) <= 1e-8

    def test_rotation_ambiguity_of_objective(self):
        rng = np.random.default_rng(24)
        data = [[rng.standard_normal((20, 12))] for _ in range(2)]
        model, shared = detsrm_fit(data, k=3, n_iter=4, seed=3)

        def objective(s_runs, spatial):
            return sum(
                np.sum((data[i][0] - s_runs[0] @ spatial[i]) ** 2) for i in range(2)
            )

        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        base = objective(shared, [model.spatial_component(i) for i in range(2)])
        rotated = objective(
            [shared[0] @ q.T], [q @ model.spatial_component(i) for i in range(2)]
        )
        assert abs(base - rotated) <= 1e-10 * max(base, 1.0)

    def test_planted_fixed_point(self):
        # Once converged on noiseless data, another alternation must not move
        # the fitted products.
        rng = np.random.default_rng(25)
        k, v = 3, 15
        w_true = [random_orthonormal_rows(k, v, seed=30 + i) for i in range(2)]
        s_true = rng.standard_normal((30, k)) * np.array([3.0, 2.0, 1.0])
        data = [[s_true @ w] for w in w_true]
        model, shared = detsrm_fit(data, k=k, n_iter=20, seed=4)
        spatial = [model.spatial_component(i) for i in range(2)]
        s_next = update_shared([data[i][0] for i in range(2)], spatial)
        w_next = [procrustes_update(s_next.T @ data[i][0]) for i in range(2)]
        for i in range(2):
            before = shared[0] @ spatial[i]
            after = s_next @ w_next[i]
            assert np.max(np.abs(after - before)) <= 1e-8 * max(1.0, np.max(np.abs(before)))

    def test_multi_run_different_lengths(self):
        rng = np.random.default_rng(26)
        data = [[rng.standard_normal((t, 10)) for t in (12, 17, 9)] for _ in range(2)]
        model, shared = detsrm_fit(data, k=3, n_iter=3, seed=5)
        assert [s.shape for s in shared] == [(12, 3), (17, 3), (9, 3)]

    def test_validation_errors(self):
        rng = np.random.default_rng(27)
        with pytest.raises(ValueError, match="k="):
            detsrm_fit([[rng.standard_normal((5, 4))]], k=5, n_iter=1)
        with pytest.raises(ValueError, match="n_iter"):
            detsrm_fit([[rng.standard_normal((6, 4))]], k=2, n_iter=0)

    @pytest.mark.parametrize("solver", [detsrm_fit, probsrm_fit])
    @pytest.mark.parametrize("value, dtype", [
        (np.nan, np.float64), (np.inf, np.float64), (-np.inf, np.float64),
        (np.nan, np.float32), (np.inf, np.float32), (-np.inf, np.float32),
        (1e200, np.float64),  # finite, but its square overflows float64
    ])
    def test_non_finite_run_is_rejected(self, solver, value, dtype):
        rng = np.random.default_rng(27)
        data = [[rng.standard_normal((6, 4)).astype(dtype) for _ in range(2)] for _ in range(2)]
        data[1][1][2, 2] = value
        with pytest.raises(ValueError, match="subject 1 run 1: non-finite values"):
            solver(data, k=2, n_iter=1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("solver", [detsrm_fit, probsrm_fit])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("empty", ["timeframes", "voxels"])
    def test_empty_run_is_rejected(self, solver, dtype, empty):
        # Every subject's run 1 has no timeframes, or every run no voxels:
        # the shapes agree, so only the empty-run check can name the run.
        x = np.random.default_rng(27).standard_normal((6, 4)).astype(dtype)
        if empty == "timeframes":
            data, where = [[x, np.zeros((0, 4), dtype)] for _ in range(2)], "subject 0 run 1"
        else:
            data, where = [[np.zeros((6, 0), dtype)] * 2 for _ in range(2)], "subject 0 run 0"
        with pytest.raises(ValueError, match=f"{where}: empty run"):
            solver(data, k=2, n_iter=1)

    @pytest.mark.parametrize("solver", [detsrm_fit, probsrm_fit])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fit_holds_one_run_at_a_time(self, solver, dtype):
        # Over a [subject][run] view that makes each run when it is indexed,
        # every pass releases a run before it draws the next.
        import weakref

        n, m, t, v = 4, 2, 12, 10
        live = {"now": 0, "peak": 0}

        def released():
            live["now"] -= 1

        class LazyRuns:
            def __init__(self, i):
                self.i = i

            def __len__(self):
                return m

            def __getitem__(self, s):
                if s >= m:
                    raise IndexError(s)
                x = np.random.default_rng([self.i, s]).standard_normal((t, v)).astype(dtype)
                live["now"] += 1
                live["peak"] = max(live["peak"], live["now"])
                weakref.finalize(x, released)
                return x

        solver([LazyRuns(i) for i in range(n)], k=3, n_iter=2, seed=0)
        assert live["peak"] == 1, f"{live['peak']} runs alive at once"

    def test_n_jobs_bit_identical(self):
        rng = np.random.default_rng(28)
        data = [[rng.standard_normal((18, 14)) for _ in range(2)] for _ in range(4)]
        m1, s1 = detsrm_fit(data, k=4, n_iter=5, seed=6, n_jobs=1)
        m4, s4 = detsrm_fit(data, k=4, n_iter=5, seed=6, n_jobs=4)
        for i in range(4):
            assert np.array_equal(m1.spatial_component(i), m4.spatial_component(i))
        for a, b in zip(s1, s4):
            assert np.array_equal(a, b)
        assert m1.trace == m4.trace

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_trace_matches_direct_residual(self, n_jobs):
        # The trace is computed from the Procrustes singular values; it must
        # equal the residual of the returned factors computed directly.
        rng = np.random.default_rng(29)
        k, v = 4, 30
        s_true = [rng.standard_normal((t, k)) for t in (16, 11)]
        data = [
            [s @ random_orthonormal_rows(k, v, seed=40 + i) + 0.3 * rng.standard_normal((len(s), v))
             for s in s_true]
            for i in range(3)
        ]
        model, shared = detsrm_fit(data, k=k, n_iter=6, seed=7, n_jobs=n_jobs)
        direct = sum(
            np.sum((x - shared[s] @ model.spatial_component(i)) ** 2)
            for i, runs in enumerate(data)
            for s, x in enumerate(runs)
        )
        assert abs(model.trace[-1] - direct) <= 1e-12 * direct

    def test_noiseless_trace_at_rounding_floor(self):
        # On noiseless data the closed form cancels to rounding: never below
        # 0 (it is clamped) and no more than 1e-14 of the data's energy.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            k, v = 3, 20
            s_true = [rng.standard_normal((t, k)) * np.array([3.0, 2.0, 1.0]) for t in (15, 12)]
            data = [
                [s @ random_orthonormal_rows(k, v, seed=100 * seed + i) for s in s_true]
                for i in range(3)
            ]
            model, _ = detsrm_fit(data, k=k, n_iter=10, seed=seed)
            energy = sum(np.sum(x**2) for runs in data for x in runs)
            assert 0.0 <= model.trace[-1] <= 1e-14 * energy

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sum_squares_holds_one_run(self, dtype):
        # detsrm's one-time sum of squares upcasts and drops one run at a
        # time, whatever the input dtype.
        import tracemalloc

        rng = np.random.default_rng(12)
        runs = [rng.standard_normal((60, 2000)).astype(dtype) for _ in range(3)]
        run_bytes = runs[0].size * 8
        tracemalloc.start()
        try:
            total = srm._sum_squares(runs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * run_bytes, f"peak {peak / run_bytes:.1f} float64 runs"
        flats = [x.astype(np.float64).ravel() for x in runs]
        assert total == sum(float(np.dot(f, f)) for f in flats)

    @pytest.mark.parametrize(
        "step", ["components", "projection", "sum_squares", "centered_sum_squares"])
    def test_float32_run_is_upcast_one_block_at_a_time(self, monkeypatch, step):
        # An in-memory float32 run reaches the float64 products and the
        # validation's sums of squares in row blocks of the dataio block size,
        # never as one whole float64 copy.
        import tracemalloc

        t, v, k = 200, 2000, 4
        rng = np.random.default_rng(27)
        x = rng.standard_normal((t, v)).astype(np.float32)
        shared = [rng.standard_normal((t, k))]
        w = random_orthonormal_rows(k, v, seed=28)
        monkeypatch.setattr(dataio, "BLOCK_BYTES", 25 * 8 * v)  # 25-row blocks
        if step == "components":
            def run():
                return srm._update_components([[x]], shared, [0.0], v, 1)[0][0]

            whole = next(srm._fold_steps([shared], lambda s: [(0, t, x.astype(np.float64))], v))[0]
        elif step == "projection":
            def run():
                return srm._project_sum([x], [w])[0]

            whole = x.astype(np.float64) @ w.T
        else:
            centered = step == "centered_sum_squares"

            def run():
                return np.array(srm._validate_stack([[x]], centered=centered)[-1])

            f = x.astype(np.float64)
            if centered:
                f -= f.mean(axis=0)
            whole = np.array([np.dot(f.ravel(), f.ravel())])
            del f
        run_bytes = t * v * 8
        tracemalloc.start()
        try:
            out = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * run_bytes, f"peak {peak / run_bytes:.2f} float64 runs"
        assert np.linalg.norm(out - whole) <= 1e-12 * np.linalg.norm(whole)


class TestSrmModel:
    def test_save_load_roundtrip(self, tmp_path):
        spatial = [random_orthonormal_rows(3, 10, seed=i) for i in range(2)]
        model = SrmModel(spatial, sigma_sq=[0.5, 1.5], sigma_s=np.diag([3.0, 2.0, 1.0]))
        model.save(tmp_path / "model")
        back = SrmModel.load(tmp_path / "model")
        for i in range(2):
            assert np.array_equal(back.spatial_component(i), spatial[i])
        assert np.array_equal(back.sigma_sq, [0.5, 1.5])
        assert np.array_equal(back.sigma_s, np.diag([3.0, 2.0, 1.0]))

    def test_disk_backed_components(self, tmp_path):
        spatial = [random_orthonormal_rows(2, 8, seed=5)]
        SrmModel(spatial).save(tmp_path / "model")
        lazy = SrmModel.load(tmp_path / "model")
        assert lazy.is_on_disk(0)
        assert np.array_equal(lazy.spatial_component(0), spatial[0])

    def test_load_checks_every_component_header(self, tmp_path):
        spatial = [random_orthonormal_rows(2, 50, seed=i) for i in range(2)]
        SrmModel(spatial).save(tmp_path / "model")
        bad = tmp_path / "model" / "w_001.srmb"
        save_matrix(random_orthonormal_rows(3, 40, seed=9), bad)
        with pytest.raises(ValueError, match="3x40") as info:
            SrmModel.load(tmp_path / "model")
        assert str(bad) in str(info.value)

    def test_component_file_checked_when_read(self, tmp_path, monkeypatch):
        spatial = [random_orthonormal_rows(2, 50, seed=i) for i in range(3)]
        SrmModel(spatial).save(tmp_path / "model")
        bad = tmp_path / "model" / "w_001.srmb"
        save_matrix(np.ones((2, 50)), bad)
        reads = []
        real_load = srm.load_matrix

        def counting_load(path, *args, **kwargs):
            reads.append(Path(path).name)
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(srm, "load_matrix", counting_load)
        model = SrmModel.load(tmp_path / "model")  # headers only
        assert (model.n, model.k, model.v) == (3, 2, 50) and reads == []
        assert np.array_equal(model.spatial_component(2), spatial[2])
        with pytest.raises(ValueError, match="orthonormal") as info:
            model.spatial_component(1)
        assert str(bad) in str(info.value)
        assert reads == ["w_002.srmb", "w_001.srmb"]

    @pytest.mark.parametrize("key, value", [
        ("format", "something-else"),
        ("version", 7),
        ("components", ["w_000.srmb", "w_000.srmb"]),
        ("components", ["w_000.srmb"]),
        ("sigma_s", "../elsewhere.srmb"),
    ])
    def test_load_rejects_unknown_descriptor(self, tmp_path, key, value):
        SrmModel([random_orthonormal_rows(2, 8, seed=i) for i in range(2)],
                 sigma_s=np.eye(2)).save(tmp_path / "model")
        path = tmp_path / "model" / "model.json"
        desc = json.loads(path.read_text())
        desc[key] = value
        path.write_text(json.dumps(desc))
        with pytest.raises(ValueError, match=key) as info:
            SrmModel.load(tmp_path / "model")
        assert str(path) in str(info.value)

    def test_interrupted_save_keeps_old_descriptor(self, tmp_path, monkeypatch):
        SrmModel([random_orthonormal_rows(2, 8, seed=5)]).save(tmp_path / "model")
        old = (tmp_path / "model" / "model.json").read_bytes()

        def failing_dump(obj, f, **kwargs):
            f.write("{")
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(OSError, match="no space"):
            SrmModel([random_orthonormal_rows(3, 8, seed=6)]).save(tmp_path / "model")
        assert (tmp_path / "model" / "model.json").read_bytes() == old
        assert list((tmp_path / "model").glob("*.tmp")) == []

    @pytest.mark.parametrize("source", ["memory", "disk"])
    def test_failed_save_keeps_old_model(self, tmp_path, monkeypatch, source):
        old = SrmModel([random_orthonormal_rows(2, 8, seed=i) for i in range(2)])
        old.save(tmp_path / "model")
        before = {p.name: p.read_bytes() for p in (tmp_path / "model").iterdir()}
        new = SrmModel([random_orthonormal_rows(3, 8, seed=10 + i) for i in range(2)])
        if source == "disk":
            new.save(tmp_path / "src")
            new = SrmModel.load(tmp_path / "src")
        target = "copyfile" if source == "disk" else "save_matrix"
        module = shutil if source == "disk" else srm
        real = getattr(module, target)
        calls = []

        def fail_after_first(src, dest):
            calls.append(dest)
            if len(calls) == 1:
                return real(src, dest)
            Path(dest).write_bytes(b"SRMB")  # a partial file at the destination
            raise OSError("no space left on device")

        monkeypatch.setattr(module, target, fail_after_first)
        with pytest.raises(OSError, match="no space"):
            new.save(tmp_path / "model")
        monkeypatch.undo()
        assert len(calls) == 2
        assert {p.name: p.read_bytes() for p in (tmp_path / "model").iterdir()} == before
        back = SrmModel.load(tmp_path / "model")
        for i in range(2):
            assert back.spatial_component(i).tobytes() == old.spatial[i].tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["model"] + (["src"] if source == "disk" else [])
        )

    def test_save_over_existing_replaces_directory(self, tmp_path):
        SrmModel([random_orthonormal_rows(2, 8, seed=i) for i in range(3)],
                 sigma_s=np.eye(2)).save(tmp_path / "model")
        new = SrmModel([random_orthonormal_rows(2, 8, seed=7)])
        new.save(tmp_path / "model")
        names = sorted(p.name for p in (tmp_path / "model").iterdir())
        assert names == ["model.json", "w_000.srmb"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model"]
        back = SrmModel.load(tmp_path / "model")
        assert back.n == 1 and back.sigma_s is None
        assert np.array_equal(back.spatial_component(0), new.spatial[0])

    def test_save_in_place_keeps_components(self, tmp_path):
        spatial = [random_orthonormal_rows(2, 8, seed=i) for i in range(2)]
        SrmModel(spatial, sigma_sq=[0.5, 2.0], sigma_s=np.eye(2)).save(tmp_path / "m")
        before = {p.name: p.read_bytes() for p in (tmp_path / "m").iterdir()}
        SrmModel.load(tmp_path / "m").save(tmp_path / "m")
        assert {p.name: p.read_bytes() for p in (tmp_path / "m").iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m"]
        back = SrmModel.load(tmp_path / "m")
        for i in range(2):
            assert np.array_equal(back.spatial_component(i), spatial[i])

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError, match="orthonormal"):
            SrmModel([np.ones((2, 6))])

    def test_prob_param_validation(self):
        w = [random_orthonormal_rows(2, 6, seed=6)]
        with pytest.raises(ValueError, match="positive"):
            SrmModel(w, sigma_sq=[-1.0])
        with pytest.raises(ValueError, match="symmetric"):
            SrmModel(w, sigma_s=np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="semi-definite"):
            SrmModel(w, sigma_s=np.diag([1.0, -2.0]))
