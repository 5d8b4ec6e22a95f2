"""Shared response solvers and their primitives.

The model: each subject's run X_i^(s) (t x v) is approximated by S^(s) W_i
where S^(s) (t x k) is a shared per-run time course and W_i (k x v) are
subject-specific spatial components with orthonormal rows. Two fits are
provided: an alternating least-squares fit with closed-form half steps
(``detsrm_fit``) and an expectation-maximization fit of the Gaussian
formulation where the shared response is integrated out (``probsrm_fit``).

Factors are identified only up to a k x k rotation; downstream code should
compare products S W_i or row spaces, never raw factors.
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .dataio import load_matrix, read_header, save_json, save_matrix

ORTHONORMALITY_TOL = 1e-8
SIGMA_EIG_FLOOR = 1e-10


def _procrustes_svd(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal row-space solution U V^T of the SVD of m, plus singular values."""
    u, d, vt = np.linalg.svd(m, full_matrices=False)
    return u @ vt, d


def procrustes_update(m: np.ndarray) -> np.ndarray:
    """Closest orthonormal-row matrix to the row space of ``m``.

    For m = S^T X this is the closed-form minimizer of ||X - S W||_F over
    matrices W with W W^T = I_k. Scale-invariant: any positive rescaling of
    ``m`` yields the same result.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    k, v = m.shape
    if k > v:
        raise ValueError(f"need k <= v, got {k} x {v}")
    if not np.all(np.isfinite(m)):
        raise ValueError("input contains non-finite values")
    w, _ = _procrustes_svd(m)
    return w


def _project_sum(runs, spatial, sigma_sq=None) -> np.ndarray:
    """Sum over subjects of X_i W_i^T, each term divided by sigma_i^2 when
    ``sigma_sq`` is given.

    ``spatial`` may be any iterable, so disk-backed components can be loaded
    one at a time. The sum runs in subject order with a float64 accumulator,
    so the result does not depend on scheduling.
    """
    total = 0.0  # becomes a float64 array at the first term
    for i, (x, w) in enumerate(zip(runs, spatial)):
        p = x @ w.T.astype(np.float64, copy=False)
        total += p if sigma_sq is None else p / sigma_sq[i]
    return total


def update_shared(runs, spatial) -> np.ndarray:
    """Average of X_i W_i^T across subjects, for one run.

    This is the closed-form least-squares update of the shared response and
    doubles as the transform of new data through fitted components.
    """
    if len(runs) != len(spatial):
        raise ValueError(f"{len(runs)} runs but {len(spatial)} component matrices")
    if not runs:
        raise ValueError("need at least one subject")
    t = runs[0].shape[0]
    k = spatial[0].shape[0]
    for x, w in zip(runs, spatial):
        if x.shape[0] != t:
            raise ValueError("runs disagree on timeframe count")
        if x.shape[1] != w.shape[1] or w.shape[0] != k:
            raise ValueError(f"shape mismatch: run {x.shape} vs components {w.shape}")
    return _project_sum(runs, spatial) / len(runs)


class SrmModel:
    """Fitted spatial components, optionally with noise/covariance parameters.

    ``spatial[i]`` is either an in-memory k x v array or a Path to an SRMB
    file (disk-backed components are loaded on demand and never pinned).
    ``sigma_sq`` (per-subject noise variances) and ``sigma_s`` (k x k shared
    covariance) are present only on probabilistic fits. Fits attach
    ``trace``: the residual sum of squares per iteration for detsrm and
    fastsrm (in parcel space), the log-likelihood for probsrm.
    """

    def __init__(self, spatial, sigma_sq=None, sigma_s=None, validate=True):
        if not spatial:
            raise ValueError("need at least one subject")
        self.spatial = list(spatial)
        self.sigma_sq = None if sigma_sq is None else np.asarray(sigma_sq, dtype=np.float64)
        self.sigma_s = None if sigma_s is None else np.asarray(sigma_s, dtype=np.float64)
        first = self.spatial_component(0)
        self.k, self.v = first.shape
        if validate:
            for i in range(self.n):
                check_orthonormal(self.spatial_component(i))
        if self.sigma_sq is not None and (
            self.sigma_sq.shape != (self.n,) or np.any(self.sigma_sq <= 0)
        ):
            raise ValueError("sigma_sq must hold one positive value per subject")
        if self.sigma_s is not None:
            if self.sigma_s.shape != (self.k, self.k):
                raise ValueError("sigma_s must be k x k")
            if not np.allclose(self.sigma_s, self.sigma_s.T, atol=1e-10):
                raise ValueError("sigma_s must be symmetric")
            eigvals = np.linalg.eigvalsh(self.sigma_s)
            if eigvals[0] < -1e-10 * max(abs(eigvals[-1]), 1.0):
                raise ValueError("sigma_s must be positive semi-definite")

    @property
    def n(self) -> int:
        return len(self.spatial)

    def spatial_component(self, i: int) -> np.ndarray:
        w = self.spatial[i]
        if isinstance(w, (str, Path)):
            return load_matrix(w)
        return w

    def is_on_disk(self, i: int) -> bool:
        return isinstance(self.spatial[i], (str, Path))

    def save(self, directory) -> None:
        """Serialize as a directory: JSON descriptor plus one SRMB file per subject.

        When every component already sits in ``directory`` under its own
        name (fastsrm's ``component_dir``), only ``model.json`` is written,
        atomically. Otherwise the model is written into a new sibling
        ``<name>.<token>.tmp`` directory, which then replaces ``directory``
        whole, so a failed save leaves a model already at ``directory`` intact.
        """
        directory = Path(directory)
        names = [f"w_{i:03d}.srmb" for i in range(self.n)]
        desc = {
            "format": "srmkit-model",
            "version": 1,
            "k": self.k,
            "n": self.n,
            "v": self.v,
            "dtype": "f64",
            "components": names,
            "sigma_sq": None if self.sigma_sq is None else self.sigma_sq.tolist(),
            "sigma_s": None if self.sigma_s is None else "sigma_s.srmb",
        }
        if self.sigma_s is None and all(
            self.is_on_disk(i) and Path(self.spatial[i]).resolve() == (directory / name).resolve()
            for i, name in enumerate(names)
        ):
            save_json(desc, directory / "model.json")
            return
        staging = directory.with_name(f"{directory.name}.{uuid.uuid4().hex[:12]}.tmp")
        staging.mkdir(parents=True)
        try:
            for i, name in enumerate(names):
                if self.is_on_disk(i):
                    shutil.copyfile(self.spatial[i], staging / name)
                else:
                    save_matrix(np.asarray(self.spatial[i], dtype=np.float64), staging / name)
            if self.sigma_s is not None:
                save_matrix(self.sigma_s, staging / "sigma_s.srmb")
            save_json(desc, staging / "model.json")
            _replace_dir(staging, directory)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise

    @classmethod
    def load(cls, directory, keep_on_disk: bool = True) -> "SrmModel":
        directory = Path(directory)
        with open(directory / "model.json") as f:
            desc = json.load(f)
        paths = [directory / name for name in desc["components"]]
        if len(paths) != desc["n"]:
            raise ValueError(f"{directory}: descriptor does not match component files")
        for p in paths:
            rows, cols, _ = read_header(p)
            if (rows, cols) != (desc["k"], desc["v"]):
                raise ValueError(f"{p}: shape {rows}x{cols}, expected {desc['k']}x{desc['v']}")
        spatial = paths if keep_on_disk else [load_matrix(p) for p in paths]
        sigma_s = None
        if desc.get("sigma_s"):
            sigma_s = load_matrix(directory / desc["sigma_s"])
        return cls(spatial, sigma_sq=desc.get("sigma_sq"), sigma_s=sigma_s, validate=not keep_on_disk)


def _replace_dir(src: Path, dest: Path) -> None:
    """Rename directory ``src`` (``*.tmp``) to ``dest``, replacing the
    directory there; the old one is parked at ``src`` with suffix ``.old``
    and moved back if the second rename fails."""
    if not dest.exists():
        os.rename(src, dest)
        return
    old = src.with_suffix(".old")
    os.rename(dest, old)
    try:
        os.rename(src, dest)
    except BaseException:
        os.rename(old, dest)
        raise
    shutil.rmtree(old)


def check_orthonormal(w: np.ndarray, tol: float = ORTHONORMALITY_TOL) -> None:
    gram = w @ w.T
    dev = np.max(np.abs(gram - np.eye(w.shape[0])))
    if dev > tol:
        raise ValueError(f"rows are not orthonormal (max deviation {dev:.3g})")


# ---------------------------------------------------------------------------
# shared fit plumbing


def _validate_stack(data, k):
    """Check the [subject][run] layout and return (n, m, t_per_run, v)."""
    n = len(data)
    if n < 1:
        raise ValueError("need at least one subject")
    m = len(data[0])
    if m < 1:
        raise ValueError("need at least one run")
    if any(len(runs) != m for runs in data):
        raise ValueError("subjects disagree on run count")
    v = data[0][0].shape[1]
    t_per_run = [data[0][s].shape[0] for s in range(m)]
    for i, runs in enumerate(data):
        for s, x in enumerate(runs):
            if x.ndim != 2:
                raise ValueError(f"subject {i} run {s}: expected a matrix")
            if x.shape != (t_per_run[s], v):
                raise ValueError(
                    f"subject {i} run {s}: shape {x.shape}, expected ({t_per_run[s]}, {v})"
                )
            if not np.all(np.isfinite(x)):
                raise ValueError(f"subject {i} run {s}: non-finite values")
    total_t = sum(t_per_run)
    if k > min(v, total_t):
        raise ValueError(f"k={k} exceeds min(v={v}, total timeframes={total_t})")
    return n, m, t_per_run, v


def _check_fit_args(k, n_iter, n_jobs) -> None:
    """Reject the counts every fit needs positive, before it reads any run."""
    for name, value in (("k", k), ("n_iter", n_iter), ("n_jobs", n_jobs)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1")


def init_spatial(n: int, k: int, v: int, seed) -> list[np.ndarray]:
    """Seeded starting components: per subject, the orthonormalized rows of a
    Gaussian k x v draw (Q factor with a fixed sign convention)."""
    rng = np.random.default_rng(seed)
    spatial = []
    for _ in range(n):
        g = rng.standard_normal((k, v))
        q, r = np.linalg.qr(g.T)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        spatial.append((q * signs).T)
    return spatial


def _map_subjects(fn, n, n_jobs):
    """Apply fn(i) for i in range(n); results in subject order regardless of pool."""
    if n_jobs <= 1 or n == 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=n_jobs) as pool:
        return list(pool.map(fn, range(n)))


def _subject_step(shared, blocks, v):
    """Orthonormal components of one subject given the shared response.

    Accumulates sum_s S_s^T X_s in float64, in run order, where ``blocks(s)``
    yields (start, stop, X_s[start:stop]) over the rows of the subject's run
    s: an in-memory run is one block, a run streamed from disk is read a
    block at a time. Each block's product S_s[start:stop]^T X_s[start:stop]
    is added in row order, and a float32 block is upcast on its own. Returns
    the Procrustes solution and its singular values. The accumulator and the
    scratch product are per call, so worker threads never share them.
    """
    acc = np.zeros((shared[0].shape[1], v), dtype=np.float64)
    scratch = np.empty_like(acc)
    for s, sh in enumerate(shared):
        for start, stop, x in blocks(s):
            acc += np.matmul(sh[start:stop].T, x, out=scratch)
    return _procrustes_svd(acc)


def _sum_squares(runs) -> float:
    """sum_s ||X_s||_F^2, accumulated in float64 in run order. Each run's
    float64 upcast is released before the next one is made."""
    total = 0.0
    for x in runs:
        f = np.asarray(x, dtype=np.float64).ravel()
        total += float(np.dot(f, f))
        del f
    return total


def _centered_sum_squares(runs) -> float:
    """sum_s ||X_s - 1 mu_s^T||_F^2 with mu_s the column means, accumulated in
    float64 in run order. Each run is centered in place in an owned float64
    copy that is released before the next one is made."""
    total = 0.0
    for x in runs:
        c = np.array(x, dtype=np.float64)
        c -= c.mean(axis=0)
        total += float(np.dot(c.ravel(), c.ravel()))
        del c
    return total


def _update_components(data, shared, ssq, n_jobs):
    """Procrustes step of every subject. Returns the components and, per
    subject, ssq[i] - 2 sum(d_i) with d_i the singular values of S^T X_i;
    adding ||S||^2 gives ||X_i - S W_i||^2, since W_i has orthonormal rows."""
    def step(i):
        runs = data[i]  # each in-memory run is one block
        w, d = _subject_step(shared, lambda s: [(0, len(runs[s]), runs[s])], runs[0].shape[1])
        return w, ssq[i] - 2.0 * float(np.sum(d))

    updated = _map_subjects(step, len(data), n_jobs)
    return [w for w, _ in updated], [p for _, p in updated]


# ---------------------------------------------------------------------------
# alternating least-squares fit


def detsrm_fit(data, k: int, n_iter: int = 10, seed=0, n_jobs: int = 1):
    """Alternating minimization of sum_i ||X_i - S W_i||^2 with orthonormal W_i.

    Parameters
    ----------
    data : list of list of ndarray
        ``data[i][s]`` is the t_s x v matrix of subject i, run s. All
        subjects share v and, within a run, t_s.
    k : int
        Number of components; at least 1 and at most min(v, total timeframes).
    n_iter : int
        Fixed iteration count (no convergence tolerance); each iteration is
        one exact shared-response update followed by one exact per-subject
        component update, so the objective never increases.
    seed
        Seeds the component initialization.
    n_jobs : int
        Upper bound on concurrent per-subject updates, at least 1. Has no
        effect on the result.

    Returns
    -------
    (SrmModel, list of ndarray)
        The shared response is one t_s x k array per run. The model carries
        ``trace``, the residual sum-of-squares after every iteration,
        computed from the Procrustes singular values d_i as
        sum_i (||X_i||^2 - 2 sum(d_i)) + n sum_s ||S_s||^2: exact up to
        rounding of about 1e-15 * sum_i ||X_i||^2, and clamped at 0.
    """
    _check_fit_args(k, n_iter, n_jobs)
    n, m, _, v = _validate_stack(data, k)
    spatial = init_spatial(n, k, v, seed)
    ssq = [_sum_squares(runs) for runs in data]
    trace = []
    for _ in range(n_iter):
        shared = [update_shared([data[i][s] for i in range(n)], spatial) for s in range(m)]
        spatial, partial = _update_components(data, shared, ssq, n_jobs)
        trace.append(max(sum(partial) + n * _sum_squares(shared), 0.0))
    model = SrmModel(spatial, validate=False)
    model.trace = trace
    return model, shared


# ---------------------------------------------------------------------------
# expectation-maximization fit


def _posterior_cov(sigma_sq, sigma_s):
    """Posterior covariance of one shared timepoint, (Sigma^-1 + sum_i
    I/sigma_i^2)^-1 = (I + alpha Sigma)^-1 Sigma, together with the matrix
    b = I + alpha Sigma whose determinant enters the log-likelihood."""
    alpha = float(np.sum(1.0 / np.asarray(sigma_sq)))
    b = np.eye(sigma_s.shape[0]) + alpha * sigma_s
    cov = np.linalg.solve(b, sigma_s)
    return (cov + cov.T) / 2.0, b


def probsrm_fit(data, k: int, n_iter: int = 10, seed=0, n_jobs: int = 1):
    """EM fit of the Gaussian shared response model.

    The shared response S[tau] ~ N(0, Sigma) is integrated out; each subject
    has its own isotropic noise variance sigma_i^2 and orthonormal W_i. Time-
    courses are centered (no intercept) within the t x k products X W^T and
    S^T X, so the input is neither copied nor modified.

    The E-step computes the exact posterior of S given all subjects; the
    M-step solves the expected complete-data problem in closed form (a
    Procrustes step per subject, then stationary updates of Sigma and each
    sigma_i^2), so the observed-data log-likelihood never decreases. The
    guarantee holds while the model stays non-degenerate: on noiseless or
    rank-deficient data the likelihood itself diverges, the covariance
    eigenvalue floor engages (reported via RuntimeWarning) and the recorded
    trace is no longer meaningful.

    Returns (SrmModel, list of ndarray) where the list holds, per run, the
    t_s x k posterior means under the final parameters. The model carries
    ``trace``, the log-likelihood with n_iter + 1 entries: the initial
    parameters and every update thereafter.
    """
    _check_fit_args(k, n_iter, n_jobs)
    n, m, t_per_run, v = _validate_stack(data, k)
    total_t = sum(t_per_run)

    ssq = np.array([_centered_sum_squares(runs) for runs in data])

    spatial = init_spatial(n, k, v, seed)
    sigma_s = np.eye(k)
    sigma_sq = np.ones(n)
    trace = []

    def e_step():
        """Posterior moments and the observed-data log-likelihood at the
        current parameters, via the k x k collapsed form."""
        cov, b = _posterior_cov(sigma_sq, sigma_s)
        means = []
        quad = float(np.sum(ssq / sigma_sq))
        for s in range(m):
            q = _project_sum([data[i][s] for i in range(n)], spatial, sigma_sq)
            q -= q.mean(axis=0)
            mu = q @ cov
            quad -= float(np.sum(mu * q))
            means.append(mu)
        sign, logdet_b = np.linalg.slogdet(b)
        if sign <= 0:
            raise FloatingPointError("shared covariance update lost positive definiteness")
        logdet = v * float(np.sum(np.log(sigma_sq))) + logdet_b
        ll = -0.5 * (total_t * (n * v * np.log(2.0 * np.pi) + logdet) + quad)
        return means, cov, ll

    for _ in range(n_iter):
        post_means, post_cov, ll = e_step()
        trace.append(float(ll))

        msq = sum(float(np.sum(mu * mu)) for mu in post_means)
        second_moment = total_t * post_cov + sum(mu.T @ mu for mu in post_means)

        # S^T X = S^T (X - 1 mu^T) needs column-centered S; mu is only centered to rounding
        centered = [mu - mu.mean(axis=0) for mu in post_means]
        spatial, partial = _update_components(data, centered, ssq, n_jobs)
        post_var = total_t * float(np.trace(post_cov))
        sigma_sq = np.array([max((p + post_var + msq) / (total_t * v), 1e-30) for p in partial])

        sigma_s = second_moment / total_t
        sigma_s = (sigma_s + sigma_s.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(sigma_s)
        if eigvals[0] < SIGMA_EIG_FLOOR:
            warnings.warn(
                f"shared covariance eigenvalue {eigvals[0]:.3g} floored at {SIGMA_EIG_FLOOR}",
                RuntimeWarning,
                stacklevel=2,
            )
            eigvals = np.maximum(eigvals, SIGMA_EIG_FLOOR)
            sigma_s = (eigvecs * eigvals) @ eigvecs.T
            sigma_s = (sigma_s + sigma_s.T) / 2.0

    post_means, _, ll = e_step()
    trace.append(float(ll))
    model = SrmModel(spatial, sigma_sq=sigma_sq, sigma_s=sigma_s, validate=False)
    model.trace = trace
    return model, post_means
