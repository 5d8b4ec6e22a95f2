import numpy as np
import pytest

from srmkit import balanced_partition, cosmoothing, generate, subspace_error

from conftest import random_orthonormal_rows


def test_noiseless_runs_have_rank_k(make_dataset):
    manifest, truth = make_dataset(n=2, m=2, v=50, k=4, sigma=0.0, seed=1)
    x = manifest.load_run(0, 0)
    sv = np.linalg.svd(x, compute_uv=False)
    assert np.all(sv[4:] <= 1e-12 * sv[0])


def test_shared_covariance_matches_target(tmp_path):
    # Monte Carlo check of the drawn shared response against its target
    # covariance diag(k, ..., 1).
    manifest, truth = generate(
        n=1, m=1, t_list=[100_000], v=8, k=4, sigma_list=0.0, seed=2, out_dir=tmp_path / "mc"
    )
    s = truth.shared[0]
    emp = (s - s.mean(axis=0)).T @ (s - s.mean(axis=0)) / s.shape[0]
    target = np.diag([4.0, 3.0, 2.0, 1.0])
    diag_rel = np.abs(np.diag(emp) - np.diag(target)) / np.diag(target)
    assert np.all(diag_rel <= 0.05)
    off = emp - np.diag(np.diag(emp))
    assert np.max(np.abs(off)) <= 0.05 * np.sqrt(np.max(np.diag(target)))


def test_isotropic_toggle(tmp_path):
    _, truth = generate(
        n=1, m=1, t_list=[50_000], v=8, k=3, sigma_list=0.0, seed=3,
        out_dir=tmp_path / "iso", isotropic=True,
    )
    s = truth.shared[0]
    emp = np.var(s, axis=0)
    assert np.all(np.abs(emp - 1.0) <= 0.05)


def test_same_seed_bit_identical_files(tmp_path):
    kw = dict(n=2, m=2, t_list=[15, 20], v=25, k=3, sigma_list=0.7, seed=11)
    man_a, _ = generate(out_dir=tmp_path / "a", **kw)
    man_b, _ = generate(out_dir=tmp_path / "b", **kw)
    for i in range(2):
        for s in range(2):
            assert man_a.runs[i][s].read_bytes() == man_b.runs[i][s].read_bytes()
    assert (tmp_path / "a/manifest.json").read_text() == (tmp_path / "b/manifest.json").read_text()


def test_f32_output(tmp_path):
    manifest, _ = generate(
        n=1, m=1, t_list=[10], v=12, k=2, sigma_list=0.1, seed=4,
        out_dir=tmp_path / "f32", dtype=np.float32,
    )
    assert manifest.load_run(0, 0).dtype == np.float32


def test_parameter_validation(tmp_path):
    with pytest.raises(ValueError, match="k="):
        generate(n=1, m=1, t_list=[5], v=4, k=6, sigma_list=0.0, seed=0, out_dir=tmp_path)
    with pytest.raises(ValueError, match="noise levels"):
        generate(n=2, m=1, t_list=[5], v=8, k=2, sigma_list=[0.1], seed=0, out_dir=tmp_path)
    with pytest.raises(ValueError, match="non-negative"):
        generate(n=1, m=1, t_list=[5], v=8, k=2, sigma_list=-1.0, seed=0, out_dir=tmp_path)
    with pytest.raises(ValueError, match="run lengths"):
        generate(n=1, m=2, t_list=[5], v=8, k=2, sigma_list=0.0, seed=0, out_dir=tmp_path)
    for name in ("n", "m", "v", "k"):
        counts = {"n": 1, "m": 1, "v": 8, "k": 2, name: 0}
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            generate(**counts, t_list=[5], sigma_list=0.0, seed=0, out_dir=tmp_path / "new")
    assert not (tmp_path / "new").exists()


class TestSubspaceError:
    def test_zero_for_identical(self):
        w = random_orthonormal_rows(3, 20, seed=5)
        assert subspace_error(w, w) <= 1e-12

    def test_rotation_invisible(self):
        w = random_orthonormal_rows(3, 20, seed=6)
        q = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]
        assert subspace_error(q @ w, w) <= 1e-7

    def test_orthogonal_complements(self):
        w1 = np.eye(3, 10)
        w2 = np.zeros((3, 10))
        w2[:, 3:6] = np.eye(3)
        assert abs(subspace_error(w1, w2) - np.pi / 2) <= 1e-8

    def test_rejects_non_orthonormal(self):
        w = random_orthonormal_rows(3, 10, seed=8)
        with pytest.raises(ValueError, match="orthonormal"):
            subspace_error(2.0 * w, w)


class TestBalancedPartition:
    def test_balanced_and_complete(self):
        atlas = balanced_partition(103, 10, seed=9)
        counts = np.bincount(atlas.labels, minlength=10)
        assert counts.min() >= 1
        assert counts.max() - counts.min() <= 1
        assert atlas.c == 10 and atlas.v == 103

    def test_singletons(self):
        atlas = balanced_partition(7, 7, seed=10)
        assert sorted(atlas.labels.tolist()) == list(range(7))

    def test_validation(self):
        with pytest.raises(ValueError):
            balanced_partition(5, 6, seed=0)


def test_generate_rejects_other_dtypes(tmp_path):
    with pytest.raises(ValueError, match="float32 or float64"):
        generate(2, 1, [10], 20, 2, 0.1, seed=0, out_dir=tmp_path, dtype=np.int32)
    assert not any(tmp_path.iterdir())


def test_noise_monotonically_degrades_reconstruction(tmp_path):
    # More planted noise must mean worse cross-validated reconstruction on
    # the informative voxels.
    means = []
    for sigma in (0.0, 0.5, 1.0, 2.0):
        manifest, truth = generate(
            n=4, m=2, t_list=[60, 60], v=300, k=4, sigma_list=sigma, seed=31,
            out_dir=tmp_path / f"sig{sigma}",
        )
        result = cosmoothing(manifest, "detsrm", k=4, n_iter=10, seed=0)
        signal = truth.signal_voxels(0)
        means.append(float(np.mean(result.mean_map()[signal])))
    assert all(a > b for a, b in zip(means, means[1:])), means
