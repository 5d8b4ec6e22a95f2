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
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .dataio import DatasetManifest, _block_rows, load_matrix, save_matrix
from .fastsrm import _check_atlas, _fit_reduced, _recover_subject, fastsrm_fit, reduce_dataset
from .srm import (SrmModel, _check_fit_args, _map_subjects, _project_blocks, _staged_dir,
                  check_orthonormal, detsrm_fit, probsrm_fit)

DEGENERATE_SS = 1e-24
ROI_THRESHOLD = 0.05  # reference cut for "informative" voxels

ALGORITHMS = ("detsrm", "probsrm", "fastsrm")
FOLD_COMPONENT_FILE = "run-{:03d}_w_{:03d}.srmb"  # fastsrm co-smoothing spill: fold, subject
FOLD_MEAN_FILE = "run-{:03d}_mean_{:03d}.srmb"  # the column mean of that fold's left-out run


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


def _score_blocks(shared, w, read, mu) -> tuple[np.ndarray, np.ndarray]:
    """:func:`r2_map` of the prediction ``shared @ w`` against a t x v truth
    with column means ``mu``, never forming the t x v prediction nor holding
    more than one row block of the truth.

    ``read((a, b))`` returns the truth's rows [a, b). They are read in
    :func:`_block_rows` blocks of at least 2 rows, each once, with a 1-row
    tail merged into the block before it (a 1-row product goes through GEMV
    and rounds differently), and every block shares one float64 buffer.
    Both sums add the block's rows one at a time in order, which is what
    numpy's axis-0 sum does for v >= 2. So with ``mu`` the truth's
    ``mean(axis=0, dtype=np.float64)``, the scores match :func:`r2_map`'s
    bit for bit wherever BLAS rounds each row of a block's product as it
    rounds that row of the whole product; OpenBLAS may not when v is not a
    multiple of 8, and then they differ by rounding.
    """
    t, v = len(shared), len(mu)
    rows = _block_rows(v, 2 * 8 * v)
    bounds = [0, *range(rows, t - 1, rows), t]
    buf = np.empty((min(t, rows + 1), v))
    ss_tot, ss_res = np.zeros(v), np.zeros(v)
    for a, b in zip(bounds, bounds[1:]):
        truth = read((a, b))
        block = buf[:b - a]
        np.square(np.subtract(truth, mu, out=block, dtype=np.float64), out=block)
        for row in block:
            ss_tot += row
        np.matmul(shared[a:b], w, out=block)
        np.square(np.subtract(block, truth, out=block, dtype=np.float64), out=block)
        for row in block:
            ss_res += row
        del truth  # released before the next block is read
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
    """Fit one of :data:`ALGORITHMS` on a dataset; ``model.trace`` holds its
    per-iteration objective (log-likelihood for probsrm).

    fastsrm streams the runs from disk and needs ``atlas``; the
    full-resolution fits load the whole dataset. Every fit writes its model
    to ``component_dir`` if given: fastsrm subject by subject as it recovers
    the components, the others once the dataset is released. Either way
    the model is written into a sibling ``<name>.<token>.tmp``, made before
    any run is read, that then replaces ``component_dir`` whole.
    """
    _check_fit_inputs(manifest, algorithm, k, atlas, n_iter, n_jobs)
    if algorithm == "fastsrm":
        return fastsrm_fit(manifest, atlas, k, n_iter, seed, n_jobs, component_dir)
    solver = detsrm_fit if algorithm == "detsrm" else probsrm_fit
    staged = nullcontext() if component_dir is None else _staged_dir(Path(component_dir))
    with staged as staging:
        model, _ = solver(manifest.load_all(), k, n_iter=n_iter, seed=seed, n_jobs=n_jobs)
        if staging is not None:
            model._write(staging)
    return model


def _check_fit_inputs(manifest, algorithm, k, atlas, n_iter, n_jobs, held_out=False) -> None:
    """Reject what a fit of ``algorithm`` on ``manifest`` cannot use, before
    any run is read. With ``held_out``, the dataset must have the 2 runs and
    2 subjects that :func:`cosmoothing` holds out one of, and every fold must
    be able to fit ``k`` components without its left-out run."""
    if held_out and manifest.n_runs < 2:
        raise ValueError("co-smoothing needs at least 2 runs (one is held out per fold)")
    if held_out and manifest.n_subjects < 2:
        raise ValueError("co-smoothing needs at least 2 subjects (one is held out per fold)")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    v = manifest.v
    if algorithm == "fastsrm":
        if atlas is None:
            raise ValueError("fastsrm needs an atlas")
        _check_atlas(atlas, k, manifest.v)
        v = atlas.c  # the reduced fit's feature count
    frames = sum(manifest.t_per_run) - (max(manifest.t_per_run) if held_out else 0)
    _check_fit_args(k, n_iter, n_jobs, v, frames)


def _project_left_out(manifest, subject, run, w) -> tuple[np.ndarray, np.ndarray]:
    """(X W^T, column mean of X) of the subject's run X through its
    components w, in one pass over the run's :func:`_block_rows` row blocks,
    each read from disk once and handed to :func:`_project_blocks`.

    A float32 block of these rows is the block :func:`_project_sum` takes
    of the whole run, so the projection is its whole-run one to the byte; a
    float64 run, which :func:`_project_sum` takes whole in one product,
    agrees to rounding. The mean is ``X.mean(axis=0, dtype=np.float64)``
    bit for bit.
    """
    t, v = manifest.t_per_run[run], manifest.v
    total = np.zeros(v)
    proj = _project_blocks(manifest.run_blocks(subject, run, _block_rows(v)), w, t, total)
    return proj, total / t


def _score_run(manifest, run, held_out, proj, subjects=None):
    """Score reconstruction of each requested left-out subject for one run.

    ``proj[z]`` is subject z's run projected onto its own components and
    ``held_out(z)`` returns those components and the run's column mean (both
    from :func:`_project_left_out`), read as each subject is scored. Each
    leave-one-out shared response is the ordered total of the projections
    minus the held-out subject's, so recomputing any single fold reproduces
    its map bit-for-bit. The truth is read from disk one row block at a
    time (:func:`_score_blocks`).
    """
    n = len(proj)
    total = sum(proj)
    folds = []
    for i in subjects if subjects is not None else range(n):
        shared = (total - proj[i]) / (n - 1)
        w, mu = held_out(i)
        scores, degenerate = _score_blocks(shared, w, partial(manifest.load_run, i, run), mu)
        del w, mu  # released before the next subject's are read
        folds.append(R2Map(scores, degenerate, left_out_run=run, left_out_subject=i))
    return folds


def _score_model(manifest, model, run, subjects=None):
    """:func:`_score_run` for a model fitted without ``run``."""
    proj, means = zip(*(_project_left_out(manifest, z, run, model.spatial_component(z))
                        for z in range(manifest.n_subjects)))
    return _score_run(manifest, run, lambda i: (model.spatial_component(i), means[i]), proj,
                      subjects)


def _fold_error(run: int, exc: Exception) -> RuntimeError:
    return RuntimeError(f"fold with left-out run {run} failed: {exc}")


def _fastsrm_folds(manifest, atlas, k, n_iter, seed, n_jobs):
    """fastsrm's co-smoothing maps, run by run, in a fixed number of passes.

    After the reduce pass and the m parcel-space fits, one recovery pass per
    subject makes that subject's components of every fold; each is checked,
    projects the fold's left-out run and is written to the spill before the
    next fold's is made. Scoring then reads them back one at a time.
    """
    n, m = manifest.n_subjects, manifest.n_runs
    with tempfile.TemporaryDirectory(prefix="srmkit-") as spill:
        spill = Path(spill)
        shared = []  # [fold][run], None where the fold leaves its run out
        for s in range(m):
            try:
                if s == 0:  # fold 0 reads every run anyway, so a bad run fails fold 0
                    reduced = reduce_dataset(manifest, atlas, spill, n_jobs=n_jobs)
                _, sh = _fit_reduced(reduced.without_run(s), k, n_iter, fold_seed(seed, s))
            except Exception as exc:
                raise _fold_error(s, exc) from exc
            shared.append(sh[:s] + [None] + sh[s:])

        proj = [[None] * n for _ in range(m)]  # [fold][subject] left-out run projections

        def recover(i):
            done = 0  # every fold reads every run, so a failed read fails fold 0
            try:
                for w, _ in _recover_subject(manifest, i, shared):
                    check_orthonormal(w)
                    proj[done][i], mu = _project_left_out(manifest, i, done, w)
                    save_matrix(w, spill / FOLD_COMPONENT_FILE.format(done, i))
                    save_matrix(mu[None], spill / FOLD_MEAN_FILE.format(done, i))
                    del w, mu  # released before the next fold's components are made
                    done += 1
            except Exception as exc:
                raise _fold_error(done, exc) from exc

        _map_subjects(recover, n, n_jobs)

        def held_out(s, i):
            return (load_matrix(spill / FOLD_COMPONENT_FILE.format(s, i)),
                    load_matrix(spill / FOLD_MEAN_FILE.format(s, i))[0])

        folds = []
        for s in range(m):
            try:
                folds.extend(_score_run(manifest, s, partial(held_out, s), proj[s]))
            except Exception as exc:
                raise _fold_error(s, exc) from exc
    return folds


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

    The left-out projections and the scoring read each run in row blocks,
    never whole. fastsrm reads each run four times in all, whatever the run
    count: to project it through the atlas, to recover every fold's
    components, to project it as a left-out run (which also takes its
    column mean) and as the truth it is scored against. Its reduced runs,
    and its fold components with the column means of their left-out runs
    (n*m*(k+1)*v*8 bytes), wait in one ``srmkit-*`` directory under
    :func:`tempfile.gettempdir`, removed when the evaluation ends or fails.
    """
    _check_fit_inputs(manifest, algorithm, k, atlas, n_iter, n_jobs, held_out=True)
    if algorithm == "fastsrm":
        folds = _fastsrm_folds(manifest, atlas, k, n_iter, seed, n_jobs)
    else:
        folds = []
        for s in range(manifest.n_runs):
            try:
                training = manifest.without_run(s)
                model = fit(training, algorithm, k, atlas, n_iter, fold_seed(seed, s), n_jobs)
                folds.extend(_score_model(manifest, model, s))
                del model  # release the components before the next fold's fit
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
    rejects, and a fold the dataset lacks, before any run is read."""
    _check_fit_inputs(manifest, algorithm, k, atlas, n_iter, n_jobs, held_out=True)
    for name, value, count in (("run", run, manifest.n_runs),
                               ("subject", subject, manifest.n_subjects)):
        if not 0 <= value < count:
            raise ValueError(f"{name}={value} is outside [0, {count})")
    training = manifest.without_run(run)
    model = fit(training, algorithm, k, atlas, n_iter, fold_seed(seed, run), n_jobs)
    return _score_model(manifest, model, run, subjects=[subject])[0]


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
