import ctypes
import hashlib
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import srmkit.synthetic
from srmkit import balanced_partition, cosmoothing, generate, subspace_error
from srmkit.srm import init_spatial

from conftest import random_orthonormal_rows, tree


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
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="noise level of subject 1 must be finite"):
            generate(n=2, m=1, t_list=[5], v=8, k=2, sigma_list=[0.1, bad], seed=0,
                     out_dir=tmp_path / "new")
    with pytest.raises(ValueError, match="run lengths"):
        generate(n=1, m=2, t_list=[5], v=8, k=2, sigma_list=0.0, seed=0, out_dir=tmp_path)
    for name in ("n", "m", "v", "k"):
        counts = {"n": 1, "m": 1, "v": 8, "k": 2, name: 0}
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            generate(**counts, t_list=[5], sigma_list=0.0, seed=0, out_dir=tmp_path / "new")
    with pytest.raises(ValueError, match="t of run 1 must be at least 1"):
        generate(n=2, m=2, t_list=[5, 0], v=10, k=2, sigma_list=0.0, seed=0,
                 out_dir=tmp_path / "new")
    assert not (tmp_path / "new").exists()


# A seed must give the same bytes in every version: the benchmark's seeds and
# the acceptance fixtures rest on it. Digests (SHA-256) of generate(**PINNED),
# taken at the version that drew and wrote one run at a time.
PINNED = dict(n=3, m=2, t_list=[7, 12], v=30, k=3, sigma_list=[0.5, 0.0, 1.25], seed=2021)
PINNED_MANIFEST = "74315b9e1b20a53f59fa21fdc54a1c85bbe6b8afb7ecb3302e686c8009b7cef8"
# The seeded stream, drawn elementwise and so the same on every BLAS: the
# shared time courses with sigma and the variances, and the noise each run
# is given (run 0 of subjects 0-2, then run 1; subject 1 has no noise).
PINNED_STREAM = "fcab4ee4596d1094a4ce2b4533d3cf51edd793877068f28d33b61d370f2e5541"
PINNED_NOISE = [
    "3497a104944af8dbdaaf8ff519856ffdde719f9667f95ad8ae4bd3e8992d680e",
    None,
    "2432dae20917623e939fbea98d5e080402eb91c725bec8c875b18708cb73916d",
    "76409f344f271483a2c4a6afa297d67e07e4322d84604452d68af73d87fe9fd4",
    None,
    "58627d55dc78641caa690f9f826cf5bbf1ce6b32e859ba42c163cdd41df93e41",
]
# The components and the files also pass through LAPACK's QR and the BLAS
# product S W, which another BLAS build, or another CPU kernel of the same
# one, may round differently: these digests hold for this build and kernel.
PINNED_BLAS = ("scipy-openblas", "0.3.31.188.0", "SkylakeX")
PINNED_SPATIAL = "961e57c3bd94fcf2ed31376d90cb79ab618f1de8760c0d1f977fee6af6865178"
PINNED_RUNS = {
    np.float64: [
        "e00f337030c2ce369bc74bca65243d7318be52cf28602909b6b910e01883ca6e",
        "ac297da6fcba7429ff740159bf6faf9fee00eda392d3e66b7b62abd53016c425",
        "209ab791730be976f7caa6a1ecde84c5a3df724bf0e6b85e9ff2504ba47dbd25",
        "646b08d98f15fe7d57edcddbb3f8be598804608048e6cbb8effcd011d7e356ab",
        "772a2fad8ad69829afed327233a31d7d55b75aad554e57ce7e1ac53591a5bd28",
        "6091998b147c7a9b82aaaff5bfb62812dc20ff91efdf86da5e0aee32ebeb968b",
    ],
    np.float32: [
        "17493fe0aa4e47888b2517f3f1fad5cf900f2b442b306a88131095b168b58174",
        "7e461853806bb1eae57cb7f1412fc8f16da9f17bbe6725d90cb3d477b5ecd30d",
        "2d749d325233d3f8fa4579a408d3d90f27ff435b81a7c1daaa849a4371939257",
        "df1caa5551f5bf70c01a9e9f448b7b02be1e48f67b6ec0a6a81eb37aa113a5fa",
        "ce87702d60f46613dccdc99665a24f641c96baadbfaffbe23d49fc6fdc4aecac",
        "49ac4d17e85add2511aaeb95589ed3ee0c46c4b38ad81ae4921d94461d34e7e0",
    ],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(arrays) -> str:
    return sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))


def blas_build():
    """(name, version, CPU kernel) of numpy's BLAS; a part is None where
    unknown. The kernel is asked of a pip wheel's bundled OpenBLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:
        return None, None, None
    kernel = None
    corename = getattr(srmkit.synthetic._openblas(), "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.restype = ctypes.c_char_p
        kernel = corename().decode()
    return blas.get("name"), blas.get("version"), kernel


def test_stream_matches_digests_pinned_across_versions(tmp_path, monkeypatch):
    noise = []
    write_run = srmkit.synthetic._write_run

    def record(path, shared, spatial, sigma, e, *rest):
        noise.append(None if e is None else sha256(e.tobytes()))
        write_run(path, shared, spatial, sigma, e, *rest)

    monkeypatch.setattr(srmkit.synthetic, "_write_run", record)
    _, truth = generate(**PINNED, out_dir=tmp_path / "ds")
    assert noise == PINNED_NOISE
    assert digest([*truth.shared, truth.sigma, truth.shared_variances]) == PINNED_STREAM
    assert sha256((tmp_path / "ds" / "manifest.json").read_bytes()) == PINNED_MANIFEST


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_files_match_digests_pinned_across_versions(tmp_path, dtype):
    # float64 and float32, unequal run lengths, and a noiseless subject
    # (drawing no noise) between two noisy ones.
    if (build := blas_build()) != PINNED_BLAS:
        pytest.skip(f"file digests were taken with BLAS {PINNED_BLAS}, this is {build}; "
                    "the stream test and the serial-reference test still run")
    out = tmp_path / "ds"
    _, truth = generate(**PINNED, out_dir=out, dtype=dtype)
    runs = [f"sub-{i:02d}_run-{s:02d}.srmb" for i in range(3) for s in range(2)]
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", *runs]
    assert {name: sha256((out / name).read_bytes()) for name in runs} == dict(
        zip(runs, PINNED_RUNS[dtype]))
    assert digest(truth.spatial) == PINNED_SPATIAL


def serial_runs(n, m, t_list, v, k, sigma_list, seed, dtype):
    """The runs of ``generate``, each drawn, formed and cast before the next
    is drawn: the reference the worker thread must reproduce. As in
    ``generate``, the components' QR runs on the process's BLAS threads and
    the products on one."""
    rng = np.random.default_rng(seed)
    spatial = init_spatial(n, k, v, rng)
    scale = np.sqrt(np.arange(k, 0, -1, dtype=np.float64))
    shared = [rng.standard_normal((t, k)) * scale for t in t_list]
    runs = {}
    with srmkit.synthetic._one_blas_thread():
        for s in range(m):
            for i in range(n):
                x = shared[s] @ spatial[i]
                if sigma_list[i] > 0:
                    x = x + sigma_list[i] * rng.standard_normal((t_list[s], v))
                runs[i, s] = x.astype(dtype, copy=False)
    return runs


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_runs_match_drawing_and_writing_one_at_a_time(tmp_path, dtype):
    # Many short runs (one of a single frame) with the thread switch interval
    # cut to a microsecond: a run formed while the worker still used the
    # signal buffer or the noise for another would change some run's bytes.
    kw = dict(n=4, m=5, t_list=[9, 3, 14, 1, 8], v=257, k=3, sigma_list=[0.3, 0.0, 2.0, 0.7],
              seed=8, dtype=dtype)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        manifest, _ = generate(**kw, out_dir=tmp_path / "ds")
    finally:
        sys.setswitchinterval(interval)
    for (i, s), x in serial_runs(**kw).items():
        run = manifest.load_run(i, s)
        assert run.dtype == x.dtype and run.tobytes() == x.tobytes(), (i, s)


# OpenBLAS 0.3.31 rounds S W apart on one and on two threads at this width
# (v=5,270), though not at v=20,000.
CORE_COUNT = dict(n=2, m=2, t_list=[200, 200], v=5270, k=20, sigma_list=[0.5, 0.0], seed=5,
                  dtype=np.float64)


@pytest.fixture
def openblas():
    """numpy's OpenBLAS, its thread count restored after the test."""
    lib = srmkit.synthetic._openblas()
    if lib is None:
        pytest.skip("needs numpy's bundled OpenBLAS")
    threads = lib.scipy_openblas_get_num_threads64_()
    yield lib
    lib.scipy_openblas_set_num_threads64_(threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_files_do_not_depend_on_the_blas_thread_count(tmp_path, openblas, threads):
    openblas.scipy_openblas_set_num_threads64_(threads)
    manifest, _ = generate(**CORE_COUNT, out_dir=tmp_path / "ds")
    assert openblas.scipy_openblas_get_num_threads64_() == threads
    for (i, s), x in serial_runs(**CORE_COUNT).items():
        assert manifest.load_run(i, s).tobytes() == x.tobytes(), (i, s)


def test_blas_thread_count_is_restored_on_every_exit(tmp_path, openblas, monkeypatch):
    get_threads = openblas.scipy_openblas_get_num_threads64_
    openblas.scipy_openblas_set_num_threads64_(2)
    threads = threading.active_count()
    write_run = srmkit.synthetic._write_run
    seen = []

    def record(*args):
        seen.append(get_threads())
        write_run(*args)

    monkeypatch.setattr(srmkit.synthetic, "_write_run", record)
    kw = dict(CORE_COUNT, v=40, t_list=[20, 20])
    generate(**kw, out_dir=tmp_path / "returns")
    assert seen == [1] * 4 and get_threads() == 2

    with srmkit.synthetic._one_blas_thread():
        generate(**kw, out_dir=tmp_path / "nested")
        assert get_threads() == 1
    assert get_threads() == 2

    def fail(*args):
        raise OSError("no space left")

    monkeypatch.setattr(srmkit.synthetic, "_write_run", fail)
    with pytest.raises(OSError, match="no space left"):
        generate(**kw, out_dir=tmp_path / "raises")
    assert get_threads() == 2

    # both calls' first runs wait for each other, so the holds overlap; the
    # call that ends first must leave the other's runs on one thread
    both_in = threading.Barrier(2, timeout=30)
    seen.clear()

    def meet(path, *args):
        if path.name == "sub-00_run-00.srmb":
            both_in.wait()
        record(path, *args)

    monkeypatch.setattr(srmkit.synthetic, "_write_run", meet)
    with ThreadPoolExecutor(max_workers=2) as pool:
        calls = [pool.submit(generate, **kw, out_dir=tmp_path / f"concurrent-{j}")
                 for j in range(2)]
        for call in calls:
            call.result()
    assert seen == [1] * 8 and get_threads() == 2
    for j in range(2):
        assert tree(tmp_path / f"concurrent-{j}") == tree(tmp_path / "returns")
    assert threading.active_count() == threads


def test_worker_error_is_raised_and_leaves_no_manifest_or_thread(tmp_path, monkeypatch):
    written = []
    save_matrix = srmkit.synthetic.save_matrix

    def fail_third(mat, path):
        written.append(path.name)
        if len(written) == 3:
            raise OSError(f"no space left for {path.name}")
        save_matrix(mat, path)

    monkeypatch.setattr(srmkit.synthetic, "save_matrix", fail_third)
    threads = threading.active_count()
    out = tmp_path / "ds"
    with pytest.raises(OSError, match="no space left for sub-00_run-01.srmb"):
        generate(n=2, m=3, t_list=[8, 9, 10], v=20, k=2, sigma_list=0.5, seed=0, out_dir=out)
    assert len(written) == 3  # no run is submitted after the failed one
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("*.tmp"))
    assert sorted(p.name for p in out.iterdir()) == written[:2]
    assert threading.active_count() == threads


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_holds_three_run_buffers_and_one_cast(tmp_path, dtype):
    # Two runs' noise (one being drawn, one in the worker) and one signal
    # buffer of t_max x v float64 values, plus the float32 copy each run is
    # cast into before it is written.
    n, k, v, t_list = 3, 2, 3000, [40, 60, 50]
    run_bytes = max(t_list) * v * 8
    budget = 3 * run_bytes + (run_bytes // 2 if dtype == np.float32 else 0)
    truth_bytes = (n * k * v + sum(t_list) * k) * 8
    threads = threading.active_count()
    tracemalloc.start()
    try:
        generate(n=n, m=3, t_list=t_list, v=v, k=k, sigma_list=[0.5, 0.0, 1.0], seed=3,
                 out_dir=tmp_path / "ds", dtype=dtype)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= budget + truth_bytes + run_bytes // 4, f"peak {peak / run_bytes:.2f} runs"
    assert threading.active_count() == threads


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
