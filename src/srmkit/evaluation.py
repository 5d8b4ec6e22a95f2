"""Cross-validated reconstruction scoring.

The protocol holds out one run and one subject at a time: components are
fitted on the remaining runs, the held-out run's shared response is
estimated from the remaining subjects, and the held-out subject's data are
reconstructed from it and scored per voxel. Folds over every (run, subject)
pair give one score map each, plus cross-fold averages.

:func:`fit` is the single entry point from an algorithm name and a dataset
to a fitted model; the CLI and the bench harness use it too.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .dataio import DatasetManifest, load_matrix, save_matrix
from .fastsrm import _fit_reduced, fastsrm_fit, reduce_dataset
from .srm import (SrmModel, _check_fit_inputs, _fold_steps, _map_subjects, _project_blocks,
                  _staged_dir, check_orthonormal, detsrm_fit, probsrm_fit)

DEGENERATE_SS = 1e-24
ROI_THRESHOLD = 0.05  # reference cut for "informative" voxels
FOLD_COMPONENT_FILE = "run-{:03d}_w_{:03d}.srmb"  # fastsrm co-smoothing spill: fold, subject


def r2_score(pred, truth) -> float:
    """Coefficient of determination between two equal-length series.

    1 - sum((pred - truth)^2) / sum((truth - mean(truth))^2); a prediction
    equal to the truth scores 1, predicting the mean scores 0, and worse
    predictions go negative. A truth series with (numerically) zero variance
    scores 0 by convention.
    """
    pred = np.asarray(pred, dtype=np.float64).ravel()
    truth = np.asarray(truth, dtype=np.float64).ravel()
    if pred.shape != truth.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if truth.size < 2:
        raise ValueError("need at least 2 samples")
    scores, _ = r2_map(pred[:, None], truth[:, None])
    return float(scores[0])


def r2_map(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column scores for t x v prediction/truth matrices.

    Returns (scores, degenerate): columns whose centered sum of squares falls
    below 1e-24 are flagged degenerate and score 0.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    # One float64 t x v scratch serves both sums; float32 truth is upcast
    # element by element inside the ufuncs instead of copied whole.
    scratch = np.subtract(truth, truth.mean(axis=0, dtype=np.float64), dtype=np.float64)
    ss_tot = np.sum(np.square(scratch, out=scratch), axis=0)
    np.subtract(pred, truth, out=scratch, dtype=np.float64)
    ss_res = np.sum(np.square(scratch, out=scratch), axis=0)
    return _scores(ss_res, ss_tot)


def _scores(ss_res, ss_tot) -> tuple[np.ndarray, np.ndarray]:
    """(scores, degenerate) from the per-column residual and centered sums
    of squares: a column whose centered sum falls below ``DEGENERATE_SS``
    is degenerate and scores 0."""
    degenerate = ss_tot < DEGENERATE_SS
    scores = np.zeros(len(ss_tot))
    live = ~degenerate
    scores[live] = 1.0 - ss_res[live] / ss_tot[live]
    return scores, degenerate


def _score_blocks(shared, w, blocks, mu) -> tuple[np.ndarray, np.ndarray]:
    """:func:`r2_map` of the prediction ``shared @ w`` against a t x v truth
    with column means ``mu``, never forming the t x v prediction nor holding
    more than one row block of the truth.

    ``blocks`` yields the truth's (start, stop, rows [start, stop)) in
    order, as :meth:`DatasetManifest.run_blocks` does, each drawn once and
    released before the next; all share one float64 buffer sized by the
    first, the largest. Both sums add the block's rows one at a time in
    order, which is what numpy's axis-0 sum does for v >= 2. So with ``mu``
    the truth's ``mean(axis=0, dtype=np.float64)``, the scores match
    :func:`r2_map`'s bit for bit wherever BLAS rounds each row of a block's
    product as it rounds that row of the whole product. OpenBLAS may not
    when v is not a multiple of 8, or for a 1-row block (a GEMV); then they
    differ by rounding.
    """
    ss_tot, ss_res, buf = np.zeros(len(mu)), np.zeros(len(mu)), None
    for a, b, truth in blocks:
        buf = np.empty(truth.shape) if buf is None else buf
        block = buf[:b - a]
        np.square(np.subtract(truth, mu, out=block, dtype=np.float64), out=block)
        for row in block:
            ss_tot += row
        np.matmul(shared[a:b], w, out=block)
        np.square(np.subtract(block, truth, out=block, dtype=np.float64), out=block)
        for row in block:
            ss_res += row
        del truth  # released before the next block is drawn
    return _scores(ss_res, ss_tot)


@dataclass
class R2Map:
    """Per-voxel scores of one (left-out run, left-out subject) fold."""

    scores: np.ndarray
    degenerate: np.ndarray
    left_out_run: int
    left_out_subject: int


@dataclass
class CosmoothingResult:
    """All fold maps of one cross-validated evaluation."""

    folds: list[R2Map]
    algorithm: str
    k: int

    def mean_map(self) -> np.ndarray:
        """Voxelwise mean score across every fold."""
        return np.mean([f.scores for f in self.folds], axis=0)


def fold_seed(base_seed: int, run: int) -> int:
    """Deterministic per-fold fit seed, stable across processes."""
    return int(np.random.SeedSequence(entropy=[int(base_seed), int(run)]).generate_state(1)[0])


def fit(
    manifest: DatasetManifest,
    algorithm: str,
    k: int,
    atlas=None,
    n_iter: int = 10,
    seed: int = 0,
    n_jobs: int = 1,
    component_dir: str | Path | None = None,
) -> SrmModel:
    """Fit one of :data:`srm.ALGORITHMS` on a dataset; ``model.trace`` holds its
    per-iteration objective (log-likelihood for probsrm).

    fastsrm streams the runs from disk and needs ``atlas``; the
    full-resolution fits load the whole dataset. Every fit writes its model
    to ``component_dir`` if given: fastsrm subject by subject as it recovers
    the components, the others once the dataset is released. Either way
    the model is written into a sibling ``<name>.<token>.tmp``, made before
    any run is read, that then replaces ``component_dir`` whole.
    """
    if algorithm == "fastsrm":  # fastsrm_fit checks its own inputs
        return fastsrm_fit(manifest, atlas, k, n_iter, seed, n_jobs, component_dir)
    _check_fit_inputs(manifest, algorithm, k, atlas, n_iter, n_jobs)
    solver = detsrm_fit if algorithm == "detsrm" else probsrm_fit
    with _staged_dir(component_dir) as staging:
        model, _ = solver(manifest.load_all(), k, n_iter=n_iter, seed=seed, n_jobs=n_jobs)
        if staging is not None:
            model._write(staging)
    return model


def _project_left_out(manifest, subject, run, w) -> tuple[np.ndarray, np.ndarray]:
    """(X W^T, column mean of X) of the subject's run X through its
    components w, in one pass over the run's :meth:`DatasetManifest.run_blocks`
    row blocks, each read from disk once and handed to :func:`_project_blocks`.

    A float32 block of these rows is the block :func:`_project_sum` takes
    of the whole run, so the projection is its whole-run one to the byte; a
    float64 run, which :func:`_project_sum` takes whole in one product,
    agrees to rounding. The mean is ``X.mean(axis=0, dtype=np.float64)``
    bit for bit.
    """
    t = manifest.t_per_run[run]
    total = np.zeros(manifest.v)
    proj = _project_blocks(manifest.run_blocks(subject, run), w, t, total)
    return proj, total / t


def _score_run(manifest, run, held_out, proj, subjects=None):
    """Score reconstruction of each requested left-out subject for one run.

    ``proj[z]`` is subject z's run projected onto its own components and
    ``held_out(z)`` returns those components and the run's column mean,
    read as each subject is scored (:func:`_score_fold` holds the fold's
    means in memory). Each leave-one-out shared response is the ordered
    total of the projections minus the held-out subject's, so recomputing
    any single fold reproduces its map bit-for-bit. The truth is read from
    disk one row block at a time (:func:`_score_blocks`).
    """
    n = len(proj)
    total = sum(proj)
    folds = []
    for i in subjects if subjects is not None else range(n):
        shared = (total - proj[i]) / (n - 1)
        w, mu = held_out(i)
        scores, degenerate = _score_blocks(shared, w, manifest.run_blocks(i, run), mu)
        del w, mu  # released before the next subject's are read
        folds.append(R2Map(scores, degenerate, left_out_run=run, left_out_subject=i))
    return folds


def _score_fold(manifest, run, components, n_jobs, subjects=None):
    """Maps of the fold that leaves out ``run``, for each requested left-out
    subject (every subject by default). ``components(z)`` returns subject
    z's k x v components of a model fitted without ``run``. Each subject's
    run is projected through them (:func:`_project_left_out`) on up to
    ``n_jobs`` workers; the fold's n 1 x v column means stay in memory until
    it is scored, n*v*8 bytes, less than the n maps it adds to the result.
    :func:`_score_run` then reads each scored subject's components again,
    one subject at a time.
    """
    proj, means = zip(*_map_subjects(
        lambda z: _project_left_out(manifest, z, run, components(z)), manifest.n_subjects, n_jobs))
    return _score_run(manifest, run, lambda i: (components(i), means[i]), proj, subjects)


def _fold_error(run: int, exc: Exception) -> RuntimeError:
    return RuntimeError(f"fold with left-out run {run} failed: {exc}")


def _fastsrm_folds(manifest, atlas, k, n_iter, seed, n_jobs, spill):
    """Write fastsrm's components of every co-smoothing fold into ``spill``.

    The reduce pass writes every run's projection through the atlas there,
    for the m parcel-space fits, one per left-out run. One recovery pass per
    subject then makes that subject's components of every fold, each checked
    and written as :data:`FOLD_COMPONENT_FILE` before the next fold's is
    made. It reads each run in whole-run column tiles, and each tile takes
    one product for all the folds that train on the run, so a worker's peak
    is its m k x v accumulators, one tile with its float32 staging and one
    stacked scratch (:func:`_fold_steps`).
    """
    n, m = manifest.n_subjects, manifest.n_runs
    shared = []  # [fold][run], None where the fold leaves its run out
    for s in range(m):
        try:
            if s == 0:  # fold 0 reads every run anyway, so a bad run fails fold 0
                reduced = reduce_dataset(manifest, atlas, spill, n_jobs=n_jobs)
            _, sh = _fit_reduced(reduced.without_run(s), k, n_iter, fold_seed(seed, s))
        except Exception as exc:
            raise _fold_error(s, exc) from exc
        shared.append(sh[:s] + [None] + sh[s:])

    def recover(i):
        done = 0  # every fold reads every run, so a failed read fails fold 0
        try:
            for w, _ in _fold_steps(shared, partial(manifest.run_tiles, i), manifest.v):
                check_orthonormal(w)
                save_matrix(w, spill / FOLD_COMPONENT_FILE.format(done, i))
                del w  # released before the next fold's components are made
                done += 1
        except Exception as exc:
            raise _fold_error(done, exc) from exc

    _map_subjects(recover, n, n_jobs)


@contextmanager
def _fold_components(manifest, algorithm, k, atlas, n_iter, seed, n_jobs):
    """Yield components(s), which returns the components(z) of subject z in
    the fold that leaves out run s, inside one ``srmkit-*`` spill directory
    under :func:`tempfile.gettempdir`, removed when the block ends or fails.
    fastsrm makes every fold's components there first (:func:`_fastsrm_folds`)
    and reads them back; detsrm and probsrm fit the fold when it is asked
    for."""
    with tempfile.TemporaryDirectory(prefix="srmkit-") as spill:
        spill = Path(spill)
        if algorithm == "fastsrm":
            _fastsrm_folds(manifest, atlas, k, n_iter, seed, n_jobs, spill)

        def components(s):
            if algorithm == "fastsrm":
                return lambda z: load_matrix(spill / FOLD_COMPONENT_FILE.format(s, z))
            model = fit(manifest.without_run(s), algorithm, k, atlas, n_iter, fold_seed(seed, s),
                        n_jobs)
            return model.spatial_component  # the model goes once its fold is scored

        yield components


def cosmoothing(
    manifest: DatasetManifest,
    algorithm: str,
    k: int,
    atlas=None,
    n_iter: int = 10,
    seed: int = 0,
    n_jobs: int = 1,
) -> CosmoothingResult:
    """Cross-validated reconstruction over every (left-out run, left-out
    subject) pair.

    Needs at least 2 runs (to fit without the held-out one) and 2 subjects
    (to estimate the held-out run's shared response). Fit seeds derive from
    ``seed`` and the left-out run index (the fit is the only stochastic
    step and is shared by all subjects of a run), so any fold can be
    recomputed in isolation. Folds are enumerated subject-major.

    Every fold is scored by :func:`_score_fold`, which reads each run in row
    blocks, never whole. detsrm and probsrm score each fold from its
    in-memory fit, released before the next fold's. fastsrm makes every
    fold's components first (:func:`_fastsrm_folds`), so it reads each run
    four times in all, whatever the run count: to project it through the
    atlas, to recover every fold's components, to project it as a left-out
    run and as the truth it is scored against. A fold's n 1 x v column
    means are held in memory only while it is scored. One ``srmkit-*``
    directory under :func:`tempfile.gettempdir`, removed when the evaluation
    ends or fails, holds fastsrm's reduced runs and n*m*k*v*8 bytes of fold
    components; it stays empty for detsrm and probsrm.
    """
    _check_fit_inputs(manifest, algorithm, k, atlas, n_iter, n_jobs, held_out=True)
    folds = []
    with _fold_components(manifest, algorithm, k, atlas, n_iter, seed, n_jobs) as components:
        for s in range(manifest.n_runs):
            try:
                folds.extend(_score_fold(manifest, s, components(s), n_jobs))
            except Exception as exc:
                raise _fold_error(s, exc) from exc
    folds.sort(key=lambda f: (f.left_out_subject, f.left_out_run))
    return CosmoothingResult(folds=folds, algorithm=algorithm, k=k)


def cosmoothing_fold(
    manifest: DatasetManifest,
    algorithm: str,
    k: int,
    run: int,
    subject: int,
    atlas=None,
    n_iter: int = 10,
    seed: int = 0,
    n_jobs: int = 1,
) -> R2Map:
    """Recompute a single (run, subject) fold; identical arithmetic to the
    full sweep, so the map matches bit-for-bit. Rejects what :func:`cosmoothing`
    rejects, and a fold the dataset lacks, before any run is read.

    detsrm and probsrm fit the one fold. fastsrm's recovery makes every
    fold's components in one pass, whose stacked products round each fold
    apart from a fit of that fold alone, so this takes the sweep's steps:
    the reduce pass, all m parcel-space fits and the recovery of every
    subject, then scores the one fold.
    """
    _check_fit_inputs(manifest, algorithm, k, atlas, n_iter, n_jobs, held_out=True)
    for name, value, count in (("run", run, manifest.n_runs),
                               ("subject", subject, manifest.n_subjects)):
        if not 0 <= value < count:
            raise ValueError(f"{name}={value} is outside [0, {count})")
    with _fold_components(manifest, algorithm, k, atlas, n_iter, seed, n_jobs) as components:
        return _score_fold(manifest, run, components(run), n_jobs, subjects=[subject])[0]


def roi_mask(maps, threshold: float = ROI_THRESHOLD) -> np.ndarray:
    """Voxels scoring above ``threshold`` on every supplied mean map.

    Intersecting maps fitted at several component counts keeps only regions
    that are informative at all of them.
    """
    maps = [np.asarray(m) for m in maps]
    if not maps:
        raise ValueError("need at least one map")
    v = maps[0].shape[0]
    mask = np.ones(v, dtype=bool)
    for m in maps:
        if m.shape != (v,):
            raise ValueError("maps disagree on voxel count")
        mask &= m > threshold
    return mask


def mean_within(mask: np.ndarray, score_map: np.ndarray) -> float:
    """Mean score inside a voxel mask; NaN when the mask is empty."""
    if not np.any(mask):
        return float("nan")
    return float(np.mean(np.asarray(score_map)[mask]))
