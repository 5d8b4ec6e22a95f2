import numpy as np
import pytest

from srmkit import SrmModel, probsrm_fit, shared_posterior

from conftest import random_orthonormal_rows


def test_loglik_non_decreasing():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        data = [[rng.standard_normal((25, 18)) for _ in range(2)] for _ in range(3)]
        model, _ = probsrm_fit(data, k=4, n_iter=8, seed=seed)
        trace = np.array(model.trace)
        assert len(trace) == 9
        assert np.all(np.diff(trace) >= -1e-6 * np.abs(trace[:-1]))


def test_noiseless_noise_estimates_vanish(make_dataset):
    manifest, truth = make_dataset(n=3, m=2, t_list=(50, 40), v=30, k=3, sigma=0.0, seed=2)
    data = manifest.load_all()
    model, _ = probsrm_fit(data, k=3, n_iter=25, seed=0)
    for i in range(3):
        signal_var = float(np.var(data[i][0])) + float(np.var(data[i][1]))
        assert model.sigma_sq[i] <= 1e-6 * signal_var


def test_posterior_mean_matches_gaussian_conditioning():
    # Single subject, square identity basis: the posterior mean has the
    # textbook ridge form Sigma (Sigma + sigma^2 I)^-1 x, computed here with
    # an explicit inverse as the independent oracle.
    rng = np.random.default_rng(3)
    k = 4
    sigma_s = np.diag([4.0, 3.0, 2.0, 1.0])
    sigma_sq = [0.7]
    x = rng.standard_normal((9, k))
    mean, cov = shared_posterior([x], [np.eye(k)], sigma_sq, sigma_s)
    oracle = x @ (sigma_s @ np.linalg.inv(sigma_s + sigma_sq[0] * np.eye(k))).T
    assert np.max(np.abs(mean - oracle)) <= 1e-10
    cov_oracle = np.linalg.inv(np.linalg.inv(sigma_s) + np.eye(k) / sigma_sq[0])
    assert np.max(np.abs(cov - cov_oracle)) <= 1e-10


def test_mean_offset_invariance():
    # Fitting enforces centered time-courses, so a per-voxel offset must not
    # change the result.
    rng = np.random.default_rng(4)
    data = [[rng.standard_normal((30, 12))] for _ in range(2)]
    shifted = [[x + 100.0 * np.arange(12)] for (x,) in data]
    m0, s0 = probsrm_fit(data, k=3, n_iter=6, seed=1)
    m1, s1 = probsrm_fit(shifted, k=3, n_iter=6, seed=1)
    for i in range(2):
        assert np.max(np.abs(m0.spatial_component(i) - m1.spatial_component(i))) <= 1e-8
    assert np.max(np.abs(s0[0] - s1[0])) <= 1e-8


def test_fitted_parameters_well_formed():
    rng = np.random.default_rng(5)
    data = [[rng.standard_normal((20, 16)) for _ in range(2)] for _ in range(3)]
    model, shared = probsrm_fit(data, k=4, n_iter=5, seed=2)
    for i in range(3):
        w = model.spatial_component(i)
        assert np.max(np.abs(w @ w.T - np.eye(4))) <= 1e-8
    assert np.all(model.sigma_sq > 0)
    assert np.allclose(model.sigma_s, model.sigma_s.T)
    assert np.all(np.linalg.eigvalsh(model.sigma_s) >= -1e-12)
    assert [s.shape for s in shared.runs] == [(20, 4), (20, 4)]


def test_recovers_planted_noise_levels(make_dataset):
    manifest, truth = make_dataset(
        n=3, m=2, t_list=(80, 80), v=40, k=4, sigma=(0.5, 1.0, 0.7), seed=7
    )
    model, _ = probsrm_fit(manifest.load_all(), k=4, n_iter=15, seed=0)
    assert np.max(np.abs(model.sigma_sq - truth.sigma**2)) < 0.15


def test_n_jobs_bit_identical():
    rng = np.random.default_rng(6)
    data = [[rng.standard_normal((22, 14))] for _ in range(4)]
    m1, s1 = probsrm_fit(data, k=3, n_iter=4, seed=3, n_jobs=1)
    m4, s4 = probsrm_fit(data, k=3, n_iter=4, seed=3, n_jobs=4)
    for i in range(4):
        assert np.array_equal(m1.spatial_component(i), m4.spatial_component(i))
    assert m1.trace == m4.trace
    assert np.array_equal(s1[0], s4[0])


def test_rank_deficient_covariance_floored():
    # Fitting more components than the planted rank collapses shared
    # covariance eigenvalues; the update floors them and says so.
    rng = np.random.default_rng(8)
    w1 = random_orthonormal_rows(2, 30, seed=8)
    w2 = random_orthonormal_rows(2, 30, seed=9)
    s = rng.standard_normal((60, 2)) * np.array([3.0, 2.0])
    data = [[s @ w1], [s @ w2]]
    with pytest.warns(RuntimeWarning, match="floored"):
        model, _ = probsrm_fit(data, k=4, n_iter=20, seed=1)
    # floored eigenvalues, up to eigendecomposition reconstruction rounding
    floor_slack = 1e-14 * np.linalg.norm(model.sigma_s, 2)
    assert np.all(np.linalg.eigvalsh(model.sigma_s) >= 1e-10 - floor_slack)


def test_model_roundtrip_with_prob_params(tmp_path):
    rng = np.random.default_rng(7)
    data = [[rng.standard_normal((20, 10))] for _ in range(2)]
    model, _ = probsrm_fit(data, k=3, n_iter=3, seed=4)
    model.save(tmp_path / "m")
    back = SrmModel.load(tmp_path / "m", keep_on_disk=False)
    assert np.array_equal(back.sigma_sq, model.sigma_sq)
    assert np.array_equal(back.sigma_s, model.sigma_s)
