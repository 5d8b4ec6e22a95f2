"""Planted-model dataset generation and rotation-aware recovery metrics.

Generated datasets follow the model exactly: known orthonormal spatial
components per subject, a known shared time course per run, and isotropic
Gaussian noise per subject. They serve as ground truth for every solver
test and for the benchmark harness, replacing any real recordings.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atlas import Atlas
from .dataio import DatasetManifest, load_manifest, save_manifest, save_matrix
from .srm import _check_positive, check_orthonormal, init_spatial


@dataclass
class PlantedModel:
    """Ground truth behind a generated dataset."""

    spatial: list[np.ndarray]  # true orthonormal k x v components, one per subject
    shared: list[np.ndarray]  # true t_s x k time course per run
    sigma: np.ndarray  # per-subject noise level
    shared_variances: np.ndarray  # diagonal of the shared covariance used to draw S
    seed: int

    def signal_variance(self, subject: int) -> np.ndarray:
        """Per-voxel variance of the planted signal for one subject,
        computed from the actually drawn shared time course."""
        s = np.concatenate(self.shared, axis=0)
        sc = s - s.mean(axis=0)
        cov = (sc.T @ sc) / sc.shape[0]
        w = self.spatial[subject]
        return np.einsum("jx,jl,lx->x", w, cov, w)

    def signal_voxels(self, subject: int, fraction: float = 0.05) -> np.ndarray:
        """Mask of voxels whose planted signal variance is non-negligible
        (above ``fraction`` of the mean signal variance)."""
        var = self.signal_variance(subject)
        return var > fraction * var.mean()


def generate(
    n: int,
    m: int,
    t_list,
    v: int,
    k: int,
    sigma_list,
    seed: int,
    out_dir,
    isotropic: bool = False,
    dtype=np.float64,
) -> tuple[DatasetManifest, PlantedModel]:
    """Write a planted dataset to ``out_dir`` and return its manifest and truth.

    Components are orthonormalized seeded Gaussian draws. The shared time
    course is drawn with covariance diag(k, k-1, ..., 1) by default, so each
    component has a distinct variance and is identifiable up to sign; pass
    ``isotropic=True`` for an identity covariance when a test needs the full
    rotation ambiguity. Data are X = S W + sigma_i * noise, one SRMB file
    per (subject, run), plus a manifest.

    The calling thread draws the noise of each run from the one seeded
    stream while one worker forms and writes the run drawn before it, so a
    seed gives the same bytes as drawing and writing one run at a time.
    Each run's product S W is formed on one BLAS thread (numpy's bundled
    OpenBLAS, where it is found), so the files do not depend on the core
    count through it; while the runs are written, BLAS calls from other
    threads of the process also run on one thread. The components' QR
    keeps the process's thread count.
    """
    t_list = [int(t) for t in (t_list if np.iterable(t_list) else [t_list] * m)]
    _check_positive(n=n, m=m, v=v, k=k, **{f"t of run {s}": t for s, t in enumerate(t_list)})
    if len(t_list) != m:
        raise ValueError(f"expected {m} run lengths, got {len(t_list)}")
    sigma = np.asarray(
        sigma_list if np.iterable(sigma_list) else [sigma_list] * n, dtype=np.float64
    )
    if sigma.shape != (n,):
        raise ValueError(f"expected {n} noise levels, got {sigma.shape}")
    for i, level in enumerate(sigma):
        if not np.isfinite(level) or level < 0:
            raise ValueError(f"noise level of subject {i} must be finite and non-negative, "
                             f"got {level}")
    if k > min(v, sum(t_list)):
        raise ValueError(f"k={k} exceeds min(v={v}, total timeframes={sum(t_list)})")
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise ValueError("dtype must be float32 or float64")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    spatial = init_spatial(n, k, v, rng)
    variances = np.ones(k) if isotropic else np.arange(k, 0, -1, dtype=np.float64)
    scale = np.sqrt(variances)
    shared = [rng.standard_normal((t, k)) * scale for t in t_list]

    # The calling thread draws run j while the worker forms and writes run
    # j - 1 in the one reused signal buffer, so at most one run is in flight:
    # it is waited for before the next is submitted.
    signal = np.empty((max(t_list), v))
    subject_runs = {f"sub-{i:02d}": [] for i in range(n)}
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        for s, t in enumerate(t_list):
            for i in range(n):
                e = rng.standard_normal((t, v)) if sigma[i] > 0 else None
                if pending is not None:
                    pending.result()
                name = f"sub-{i:02d}_run-{s:02d}.srmb"
                pending = worker.submit(_write_run, out_dir / name, shared[s], spatial[i],
                                        sigma[i], e, signal[:t], dtype)
                subject_runs[f"sub-{i:02d}"].append(name)
        pending.result()

    manifest_path = out_dir / "manifest.json"
    save_manifest(manifest_path, subject_runs)
    planted = PlantedModel(
        spatial=spatial, shared=shared, sigma=sigma, shared_variances=variances, seed=seed
    )
    return load_manifest(manifest_path), planted


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (the library numpy already loaded), or None
    where there is none, as in a numpy built against another BLAS."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return lib
    return None


_blas_lock = threading.Lock()
_blas_holders = 0
_blas_threads = 0  # the count the first holder found


@contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread for the whole process, then
    restore the count found, also on error. Nested and concurrent holds
    share one: the last to leave restores the count the first found. Does
    nothing where no OpenBLAS is found.

    OpenBLAS's helper thread spins for a while after each threaded product,
    so with it the drawing and the writing thread share two cores with a
    third; and a product formed on one thread rounds the same on any
    number of cores."""
    global _blas_holders, _blas_threads
    lib = _openblas()
    if lib is None:
        yield
        return
    with _blas_lock:
        if not _blas_holders:
            _blas_threads = lib.scipy_openblas_get_num_threads64_()
            lib.scipy_openblas_set_num_threads64_(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if not _blas_holders:
                lib.scipy_openblas_set_num_threads64_(_blas_threads)


def _write_run(path, shared, spatial, sigma, noise, signal, dtype) -> None:
    """Write ``shared @ spatial + sigma * noise`` (no noise term when
    ``noise`` is None) to ``path`` as ``dtype``, by the same operations in the
    same order, formed in ``signal`` and scaling ``noise`` in place."""
    np.matmul(shared, spatial, out=signal)
    if noise is not None:
        noise *= sigma
        signal += noise
    save_matrix(signal.astype(dtype, copy=False), path)


def subspace_error(w_est: np.ndarray, w_true: np.ndarray) -> float:
    """Largest principal angle (radians) between two component row spaces.

    Rotation-invariant: any k x k orthogonal remixing of either input leaves
    the result unchanged, which makes this the right recovery metric for
    factors identified only up to rotation.
    """
    w_est = np.asarray(w_est, dtype=np.float64)
    w_true = np.asarray(w_true, dtype=np.float64)
    check_orthonormal(w_est)
    check_orthonormal(w_true)
    overlap = w_est @ w_true.T
    cos_min = float(np.clip(np.linalg.svd(overlap, compute_uv=False).min(), 0.0, 1.0))
    # arccos alone loses ~sqrt(eps) near 1; the projection residual gives the
    # sine of the largest angle at full precision for small angles.
    resid = w_est - overlap @ w_true
    sin_max = float(np.clip(np.linalg.svd(resid, compute_uv=False).max(), 0.0, 1.0))
    return float(np.arctan2(sin_max, cos_min))


def balanced_partition(v: int, c: int, seed) -> Atlas:
    """Random partition atlas with parcel sizes differing by at most one."""
    if not 1 <= c <= v:
        raise ValueError(f"need 1 <= c <= v, got c={c}, v={v}")
    rng = np.random.default_rng(seed)
    counts = np.full(c, v // c)
    counts[: v % c] += 1
    labels = np.repeat(np.arange(c), counts)
    rng.shuffle(labels)
    return Atlas.partition(labels)
