import numpy as np
import pytest

from srmkit import (
    SharedResponse,
    SrmModel,
    detsrm_fit,
    procrustes_update,
    reconstruct,
    update_shared,
)

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


class TestReconstruct:
    def test_identity(self):
        s = np.random.default_rng(11).standard_normal((7, 3))
        assert np.array_equal(reconstruct(np.eye(3), s), s)

    def test_zero_shared(self):
        w = random_orthonormal_rows(3, 9, seed=12)
        assert np.array_equal(reconstruct(w, np.zeros((5, 3))), np.zeros((5, 9)))

    def test_roundtrip_is_row_space_projection(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((10, 8))
        w = random_orthonormal_rows(3, 8, seed=14)
        out = reconstruct(w, update_shared([x], [w]))
        assert np.max(np.abs(out - x @ w.T @ w)) <= 1e-10

    def test_shape_error(self):
        with pytest.raises(ValueError):
            reconstruct(np.eye(3), np.zeros((5, 4)))


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
        base = objective(shared.runs, [model.spatial_component(i) for i in range(2)])
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
        assert [s.shape for s in shared.runs] == [(12, 3), (17, 3), (9, 3)]

    def test_validation_errors(self):
        rng = np.random.default_rng(27)
        with pytest.raises(ValueError, match="k="):
            detsrm_fit([[rng.standard_normal((5, 4))]], k=5, n_iter=1)
        bad = rng.standard_normal((6, 4))
        bad[2, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            detsrm_fit([[bad]], k=2, n_iter=1)
        with pytest.raises(ValueError, match="n_iter"):
            detsrm_fit([[rng.standard_normal((6, 4))]], k=2, n_iter=0)

    def test_n_jobs_bit_identical(self):
        rng = np.random.default_rng(28)
        data = [[rng.standard_normal((18, 14)) for _ in range(2)] for _ in range(4)]
        m1, s1 = detsrm_fit(data, k=4, n_iter=5, seed=6, n_jobs=1)
        m4, s4 = detsrm_fit(data, k=4, n_iter=5, seed=6, n_jobs=4)
        for i in range(4):
            assert np.array_equal(m1.spatial_component(i), m4.spatial_component(i))
        for a, b in zip(s1.runs, s4.runs):
            assert np.array_equal(a, b)
        assert m1.trace == m4.trace


class TestSrmModel:
    def test_save_load_roundtrip(self, tmp_path):
        spatial = [random_orthonormal_rows(3, 10, seed=i) for i in range(2)]
        model = SrmModel(spatial, sigma_sq=[0.5, 1.5], sigma_s=np.diag([3.0, 2.0, 1.0]))
        model.save(tmp_path / "model")
        back = SrmModel.load(tmp_path / "model", keep_on_disk=False)
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

    def test_shared_response_validation(self):
        with pytest.raises(ValueError):
            SharedResponse([])
        with pytest.raises(ValueError, match="component count"):
            SharedResponse([np.zeros((4, 2)), np.zeros((4, 3))])
        with pytest.raises(ValueError, match="finite"):
            SharedResponse([np.full((3, 2), np.nan)])
