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
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dataio import _row_blocks, load_matrix, read_header, save_json, save_matrix

ORTHONORMALITY_TOL = 1e-8
SIGMA_EIG_FLOOR = 1e-10
COMPONENT_FILE = "w_{:03d}.srmb"  # subject i's components in a model directory
SIGMA_S_FILE = "sigma_s.srmb"
GRAM_FLOOR = 1e-6  # smallest eigenvalue ratio of m m^T that _polar's Gram kernel accepts


def _polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar factor U V^T of the k x v matrix m (U D V^T its thin SVD), plus
    its singular values in descending order.

    The kernel works on the k x k Gram matrix m m^T = U D^2 U^T: the factor
    is (m m^T)^(-1/2) m = U D^-1 U^T m and the singular values are the square
    roots of its eigenvalues. Its error grows as the squared condition number
    of m, so an m whose smallest Gram eigenvalue is not above ``GRAM_FLOOR``
    times its largest (ill-conditioned, rank-deficient or zero) takes the
    SVD of m instead.
    """
    e, u = np.linalg.eigh(m @ m.T)
    if e[0] > GRAM_FLOOR * e[-1]:
        d = np.sqrt(e)
        return ((u / d) @ u.T) @ m, d[::-1]
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
    w, _ = _polar(m)
    return w


def _project_blocks(blocks, w, t, colsum=None) -> np.ndarray:
    """X W^T of a t-row run X given as its (start, stop, X[start:stop]) row
    blocks, in order: the one X W^T kernel. A block that is not float64 is
    upcast into the leading rows of one float64 buffer reused by every later
    block. If ``colsum`` is given, each float64 row is added into it in
    order, as numpy's axis-0 sum adds them. Both keep the heap from
    fragmenting: a fresh float64 copy per block, or a float32 row added to
    float64 sums, leaves temporaries that raised the resident peak of a
    fastsrm co-smoothing at the benchmark shape by 4-8 MiB.
    """
    wt = w.T.astype(np.float64, copy=False)
    p, buf = np.empty((t, w.shape[0])), None
    for start, stop, rows in blocks:
        if rows.dtype != np.float64:
            if buf is None or len(buf) < len(rows):
                buf = np.empty(rows.shape)
            buf[:len(rows)] = rows
            rows = buf[:len(rows)]
        np.matmul(rows, wt, out=p[start:stop])
        if colsum is not None:
            for row in rows:
                colsum += row
        del rows  # released before the next block is drawn
    return p


def _project_sum(runs, spatial, sigma_sq=None) -> tuple[np.ndarray, int]:
    """(sum over subjects of X_i W_i^T, subject count): the one place where
    in-memory runs meet their components, each term divided by sigma_i^2
    when ``sigma_sq`` is given. ``runs`` and ``spatial`` are equal-length
    iterables, drawn one pair at a time and checked as each pair arrives. A
    run that is not float64 is upcast and projected one :func:`_row_blocks`
    block at a time (:func:`_project_blocks`), and each pair is released
    before the next is drawn, so generators that load each pair on demand
    keep one run in memory. The sum runs in subject order in float64, so it
    does not depend on scheduling.
    """
    total, n = 0.0, 0  # total becomes a float64 array at the first term
    components = iter(spatial)  # not zip(), which would hold the last run
    for x in runs:
        w = next(components, None)
        if w is None:
            raise ValueError("runs and component matrices differ in count")
        if 0 in x.shape:
            raise ValueError(f"subject {n}: empty run of shape {x.shape}")
        if n == 0:  # the first pair sets the shapes the others must match
            t, k = x.shape[0], w.shape[0]
        if x.shape[0] != t or w.shape != (k, x.shape[1]):
            raise ValueError(f"shape mismatch: run {x.shape} vs components {w.shape}, "
                             f"expected {t} timeframes and {k} components")
        p = _project_blocks(_row_blocks(x), w, t)
        del x, w  # released before the next pair is drawn
        total += p if sigma_sq is None else p / sigma_sq[n]
        n += 1
    if next(components, None) is not None:
        raise ValueError("runs and component matrices differ in count")
    if n == 0:
        raise ValueError("need at least one subject")
    return total, n


def update_shared(runs, spatial) -> np.ndarray:
    """Average of X_i W_i^T across subjects, for one run: the closed-form
    least-squares update of the shared response, and the transform of new
    data through fitted components. ``runs`` and ``spatial`` are drawn as
    :func:`_project_sum` draws them, so generators keep one run in memory."""
    total, n = _project_sum(runs, spatial)
    return total / n


def _save_descriptor(directory: Path, k: int, v: int, n: int, sigma_sq=None, sigma_s=None) -> None:
    """Write ``model.json`` into a model directory whose other files are in place."""
    save_json({
        "format": "srmkit-model",
        "version": 1,
        "k": k,
        "n": n,
        "v": v,
        "dtype": "f64",
        "components": [COMPONENT_FILE.format(i) for i in range(n)],
        "sigma_sq": None if sigma_sq is None else sigma_sq.tolist(),
        "sigma_s": None if sigma_s is None else SIGMA_S_FILE,
    }, directory / "model.json")


class SrmModel:
    """Fitted spatial components, optionally with noise/covariance parameters.

    ``spatial[i]`` is a k x v array with orthonormal rows, checked when the
    model is built, or a Path to an SRMB file, checked each time it is read.
    ``sigma_sq`` (per-subject noise variances) and ``sigma_s`` (k x k shared
    covariance) are present only on probabilistic fits. Fits attach
    ``trace``: the residual sum of squares per iteration for detsrm and
    fastsrm (in parcel space), the log-likelihood for probsrm.
    """

    def __init__(self, spatial, sigma_sq=None, sigma_s=None):
        if not spatial:
            raise ValueError("need at least one subject")
        self.spatial = list(spatial)
        self.sigma_sq = None if sigma_sq is None else np.asarray(sigma_sq, dtype=np.float64)
        self.sigma_s = None if sigma_s is None else np.asarray(sigma_s, dtype=np.float64)
        for i in range(self.n):
            if not self.is_on_disk(i):
                check_orthonormal(self.spatial[i])
        first = self.spatial[0]
        self.k, self.v = read_header(first)[:2] if self.is_on_disk(0) else first.shape
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
        if not self.is_on_disk(i):
            return self.spatial[i]
        w = load_matrix(self.spatial[i])
        try:
            check_orthonormal(w)
        except ValueError as exc:
            raise ValueError(f"{self.spatial[i]}: {exc}") from None
        return w

    def is_on_disk(self, i: int) -> bool:
        return isinstance(self.spatial[i], (str, Path))

    def save(self, directory) -> None:
        """Serialize as a directory: JSON descriptor plus one SRMB file per subject.

        The model is written into a new sibling ``<name>.<token>.tmp``
        directory, which then replaces ``directory`` whole, so a failed save
        leaves a model already at ``directory`` intact.
        """
        with _staged_dir(Path(directory)) as staging:
            self._write(staging)

    def _write(self, directory: Path) -> None:
        """Write the model's files into the empty, existing ``directory``."""
        for i in range(self.n):
            dest = directory / COMPONENT_FILE.format(i)
            if self.is_on_disk(i):
                shutil.copyfile(self.spatial[i], dest)
            else:
                save_matrix(np.asarray(self.spatial[i], dtype=np.float64), dest)
        if self.sigma_s is not None:
            save_matrix(self.sigma_s, directory / SIGMA_S_FILE)
        _save_descriptor(directory, self.k, self.v, self.n, self.sigma_sq, self.sigma_s)

    @classmethod
    def load(cls, directory) -> "SrmModel":
        directory = Path(directory)
        with open(directory / "model.json") as f:
            desc = json.load(f)
        expected = {
            "format": "srmkit-model",
            "version": 1,
            "components": [COMPONENT_FILE.format(i) for i in range(desc["n"])],
        }
        for key, value in expected.items():
            if desc.get(key) != value:
                raise ValueError(f"{directory / 'model.json'}: {key} is {desc.get(key)!r}, "
                                 f"expected {value!r}")
        if desc.get("sigma_s") not in (None, SIGMA_S_FILE):
            raise ValueError(f"{directory / 'model.json'}: sigma_s is {desc['sigma_s']!r}, "
                             f"expected null or {SIGMA_S_FILE!r}")
        paths = [directory / name for name in desc["components"]]
        for p in paths:
            rows, cols, _ = read_header(p)
            if (rows, cols) != (desc["k"], desc["v"]):
                raise ValueError(f"{p}: shape {rows}x{cols}, expected {desc['k']}x{desc['v']}")
        sigma_s = None
        if desc.get("sigma_s"):
            sigma_s = load_matrix(directory / SIGMA_S_FILE)
        return cls(paths, sigma_sq=desc.get("sigma_sq"), sigma_s=sigma_s)


@contextmanager
def _staged_dir(directory: Path):
    """Yield a new sibling ``<name>.<token>.tmp`` of ``directory``, made before
    the block runs. It then replaces ``directory`` whole, or is removed if the
    block raises, leaving ``directory`` as it was."""
    staging = directory.with_name(f"{directory.name}.{uuid.uuid4().hex[:12]}.tmp")
    staging.mkdir(parents=True)
    try:
        yield staging
        _replace_dir(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


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


def _validate_stack(data, centered=False):
    """Check the [subject][run] layout and return (n, m, t_per_run, v, ssq),
    where ssq[i] is subject i's (``centered``) :func:`_sum_squares` over its
    runs. Each run is drawn once and released before the next one is drawn,
    so ``data`` may read its runs from disk as they are indexed. An empty run
    is rejected before its sum of squares is taken. A run's sum of squares
    is not finite exactly when the run holds a NaN or an infinity, or values
    too large to square in float64, so that one pass also rejects every run
    a fit cannot use."""
    n = len(data)
    if n < 1:
        raise ValueError("need at least one subject")
    m = len(data[0])
    if m < 1:
        raise ValueError("need at least one run")
    if any(len(runs) != m for runs in data):
        raise ValueError("subjects disagree on run count")
    t_per_run, v, ssq = [], None, []
    for i, runs in enumerate(data):
        total = 0.0
        for s in range(m):  # not enumerate(), whose reused result tuple would hold the last run
            x = runs[s]
            if x.ndim != 2:
                raise ValueError(f"subject {i} run {s}: expected a matrix")
            if 0 in x.shape:
                raise ValueError(f"subject {i} run {s}: empty run of shape {x.shape}")
            if i == 0:  # subject 0's runs set the shapes the others must match
                if s == 0:
                    v = x.shape[1]
                t_per_run.append(x.shape[0])
            if x.shape != (t_per_run[s], v):
                raise ValueError(
                    f"subject {i} run {s}: shape {x.shape}, expected ({t_per_run[s]}, {v})"
                )
            with np.errstate(invalid="ignore", over="ignore"):  # reported below
                run_ssq = _sum_squares((x,), centered)
            del x
            if not np.isfinite(run_ssq):
                raise ValueError(f"subject {i} run {s}: non-finite values")
            total += run_ssq
        ssq.append(total)
    return n, m, t_per_run, v, ssq


def _check_positive(**counts) -> None:
    """Reject any of ``counts`` below 1, naming it."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1")


def _check_fit_args(k, n_iter, n_jobs, v, total_t) -> None:
    """Reject the counts every fit needs positive, and a ``k`` above the rank
    that ``total_t`` timeframes of ``v`` features can hold, before any run
    is read."""
    _check_positive(k=k, n_iter=n_iter, n_jobs=n_jobs)
    if k > min(v, total_t):
        raise ValueError(f"k={k} exceeds min(v={v}, total timeframes={total_t})")


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


def _fold_steps(folds, blocks, v):
    """Orthonormal components of one subject for each fold of shared responses.

    ``folds[f][s]`` is fold f's t_s x k shared response for run s, or None
    where fold f leaves run s out. ``blocks(s)`` yields (start, stop,
    X_s[start:stop]) over the rows of the subject's run s: an in-memory run
    comes in :func:`_row_blocks`, a run streamed from disk is read a block
    at a time. Each block is drawn once, upcast to float64 once and released
    before the next; its product S_f[start:stop]^T X_s[start:stop] is added
    into the k x v accumulator of every fold f that trains on run s, in run
    and row order. Each fold keeps its own product, so its sum is bit-identical to
    that of the fold alone.

    Yields, fold by fold, the polar factor of the fold's accumulator and its
    singular values (:func:`_polar`), releasing the accumulator first.
    Accumulators and the scratch product are per call, so worker threads
    never share them.
    """
    k = next(sh for sh in folds[0] if sh is not None).shape[1]
    acc = [np.zeros((k, v), dtype=np.float64) for _ in folds]
    scratch = np.empty((k, v), dtype=np.float64)
    for s in range(len(folds[0])):
        training = [f for f, fold in enumerate(folds) if fold[s] is not None]
        for start, stop, x in blocks(s):
            x = x.astype(np.float64, copy=False)
            for f in training:
                acc[f] += np.matmul(folds[f][s][start:stop].T, x, out=scratch)
            del x
    del scratch
    while acc:  # popped, so no accumulator outlives its Procrustes step
        yield _polar(acc.pop(0))


def _sum_squares(runs, centered=False) -> float:
    """sum_s ||X_s||_F^2, or with ``centered`` sum_s ||X_s - 1 mu_s^T||_F^2
    with mu_s the column means, accumulated in float64 in run and row order.
    Each run is upcast (and centered) one :func:`_row_blocks` block at a
    time, so a float64 run is one block and is copied only to be centered;
    the run and its blocks are released before the next run is drawn."""
    total = 0.0
    for x in runs:
        if centered:
            mu = x.mean(axis=0, dtype=np.float64)
        for _, _, rows in _row_blocks(x):
            f = (rows - mu if centered else rows).astype(np.float64, copy=False).ravel()
            total += float(np.dot(f, f))
            del rows, f
        del x
    return total


def _update_components(data, shared, ssq, v, n_jobs):
    """Procrustes step of every subject. Returns the components and, per
    subject, ssq[i] - 2 sum(d_i) with d_i the singular values of S^T X_i;
    adding ||S||^2 gives ||X_i - S W_i||^2, since W_i has orthonormal rows.
    Each run of ``data`` is drawn once and fed in :func:`_row_blocks`."""
    def step(i):
        runs = data[i]
        ((w, d),) = _fold_steps([shared], lambda s: _row_blocks(runs[s]), v)
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
        subjects share v and, within a run, t_s. Runs are drawn by index or
        iteration, one at a time and never held from one draw to the next,
        so ``data`` may be a [subject][run] view that reads each run from
        disk when it is indexed.
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
    n, m, t_per_run, v, ssq = _validate_stack(data)
    _check_fit_args(k, n_iter, n_jobs, v, sum(t_per_run))
    spatial = init_spatial(n, k, v, seed)
    trace = []
    for _ in range(n_iter):
        shared = [update_shared((data[i][s] for i in range(n)), spatial) for s in range(m)]
        spatial, partial = _update_components(data, shared, ssq, v, n_jobs)
        trace.append(max(sum(partial) + n * _sum_squares(shared), 0.0))
    model = SrmModel(spatial)
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
    S^T X, so the input is neither copied nor modified. ``data`` is laid out
    as for :func:`detsrm_fit`: runs are drawn by index or iteration, one at a
    time and never held from one draw to the next, so ``data`` may be a
    [subject][run] view that reads each run from disk when it is indexed.

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
    n, m, t_per_run, v, ssq = _validate_stack(data, centered=True)
    total_t = sum(t_per_run)
    _check_fit_args(k, n_iter, n_jobs, v, total_t)
    ssq = np.array(ssq)

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
            q, _ = _project_sum((data[i][s] for i in range(n)), spatial, sigma_sq)
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
        spatial, partial = _update_components(data, centered, ssq, v, n_jobs)
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
    model = SrmModel(spatial, sigma_sq=sigma_sq, sigma_s=sigma_s)
    model.trace = trace
    return model, post_means
