import tracemalloc

import numpy as np
import pytest

from srmkit import SrmModel, probsrm_fit
from srmkit.srm import _posterior_cov, _sum_squares, _validate_stack

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
    # The E-step's q @ cov for one subject with W = I.
    cov, _ = _posterior_cov(sigma_sq, sigma_s)
    mean = (x / sigma_sq[0]) @ cov
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
    assert [s.shape for s in shared] == [(20, 4), (20, 4)]


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
    back = SrmModel.load(tmp_path / "m")
    for i in range(2):
        assert np.array_equal(back.spatial_component(i), model.spatial_component(i))
    assert np.array_equal(back.sigma_sq, model.sigma_sq)
    assert np.array_equal(back.sigma_s, model.sigma_s)


def _float32_runs(n=4, m=3, t=60, v=2000, seed=10):
    rng = np.random.default_rng(seed)
    offsets = 50.0 * rng.standard_normal(v)
    return [
        [(rng.standard_normal((t, v)) + offsets).astype(np.float32) for _ in range(m)]
        for _ in range(n)
    ]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_peak_memory_is_dataset_plus_few_runs(dtype):
    # The centering lives in the t x k products, so the fit allocates no
    # copy of the dataset: a handful of transient run-sized buffers at most.
    data = [[x.astype(dtype) for x in runs] for runs in _float32_runs()]
    run_bytes = data[0][0].size * 8
    tracemalloc.start()
    try:
        probsrm_fit(data, k=3, n_iter=2, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * run_bytes, f"peak {peak / run_bytes:.1f} float64 runs"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_centered_sum_squares_holds_one_run(dtype):
    # probsrm's one-time sum of squares copies, centers and drops one run at
    # a time, whatever the input dtype.
    runs = [x.astype(dtype) for x in _float32_runs(n=1)[0]]
    run_bytes = runs[0].size * 8
    tracemalloc.start()
    try:
        total = _sum_squares(runs, centered=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * run_bytes, f"peak {peak / run_bytes:.1f} float64 runs"
    centered = [x.astype(np.float64) - x.astype(np.float64).mean(axis=0) for x in runs]
    assert total == sum(float(np.dot(c.ravel(), c.ravel())) for c in centered)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_centered_validation_matches_whole_run_dots_bit_for_bit(dtype):
    # Runs of unequal length, longest first: each subject's centered sum must
    # be, byte for byte, the sum of its runs' whole-run dots of freshly
    # centered copies, so a float64 buffer reused across the runs would have
    # to be sliced to each run's rows.
    rng = np.random.default_rng(71)
    t_list, v = (37, 23, 11), 257
    offsets = 20.0 * rng.standard_normal(v)
    data = [[(rng.standard_normal((t, v)) + offsets).astype(dtype) for t in t_list]
            for _ in range(2)]
    ssq = _validate_stack(data, centered=True)[-1]
    for runs, got in zip(data, ssq):
        want = 0.0
        for x in runs:
            f = (x - x.mean(axis=0, dtype=np.float64)).ravel()
            want += float(np.dot(f, f))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_input_left_untouched(dtype):
    data = [[x.astype(dtype) for x in runs] for runs in _float32_runs(v=300)]
    before = [[x.tobytes() for x in runs] for runs in data]
    probsrm_fit(data, k=3, n_iter=3, seed=0)
    assert [[x.tobytes() for x in runs] for runs in data] == before


def test_float32_matches_float64_upcast_bit_for_bit():
    data32 = _float32_runs(v=300)
    data64 = [[x.astype(np.float64) for x in runs] for runs in data32]
    m32, s32 = probsrm_fit(data32, k=3, n_iter=4, seed=2)
    m64, s64 = probsrm_fit(data64, k=3, n_iter=4, seed=2)
    for i in range(4):
        assert np.array_equal(m32.spatial_component(i), m64.spatial_component(i))
    assert m32.trace == m64.trace
    assert np.array_equal(m32.sigma_sq, m64.sigma_sq)
    assert np.array_equal(m32.sigma_s, m64.sigma_s)
    for a, b in zip(s32, s64):
        assert np.array_equal(a, b)
