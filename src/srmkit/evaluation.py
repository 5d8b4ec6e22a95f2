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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import DatasetManifest
from .fastsrm import _check_atlas, fastsrm_fit, reduce_dataset
from .srm import SrmModel, _check_fit_args, detsrm_fit, probsrm_fit

DEGENERATE_SS = 1e-24
ROI_THRESHOLD = 0.05  # reference cut for "informative" voxels

ALGORITHMS = ("detsrm", "probsrm", "fastsrm")


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
    degenerate = ss_tot < DEGENERATE_SS
    scores = np.zeros(truth.shape[1])
    live = ~degenerate
    scores[live] = 1.0 - ss_res[live] / ss_tot[live]
    return scores, degenerate


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

    fastsrm streams the runs from disk and needs ``atlas``; with
    ``component_dir`` it writes its components into that model directory
    instead of keeping them in memory. The full-resolution fits load the
    whole dataset and keep their components in memory.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if algorithm == "fastsrm":
        if atlas is None:
            raise ValueError("fastsrm needs an atlas")
        return fastsrm_fit(manifest, atlas, k, n_iter, seed, n_jobs, component_dir)
    _check_fit_args(k, n_iter, n_jobs)  # before the whole dataset is loaded
    solver = detsrm_fit if algorithm == "detsrm" else probsrm_fit
    model, _ = solver(manifest.load_all(), k, n_iter=n_iter, seed=seed, n_jobs=n_jobs)
    return model


def _score_left_out_run(manifest, spatial, run, subjects=None):
    """Score reconstruction of each requested left-out subject for one run.

    All subjects' projections onto their own bases are computed once; each
    leave-one-out shared response is the ordered total minus the held-out
    subject's projection, so recomputing any single fold reproduces its map
    bit-for-bit.
    """
    n = manifest.n_subjects
    proj = []
    for z in range(n):
        x = manifest.load_run(z, run)
        proj.append(x @ spatial[z].T.astype(np.float64, copy=False))
        del x
    total = np.zeros_like(proj[0])
    for p in proj:
        total += p
    folds = []
    for i in subjects if subjects is not None else range(n):
        shared = (total - proj[i]) / (n - 1)
        pred = shared @ spatial[i]
        truth = manifest.load_run(i, run)
        scores, degenerate = r2_map(pred, truth)
        folds.append(R2Map(scores, degenerate, left_out_run=run, left_out_subject=i))
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

    fastsrm projects each run through the atlas once per evaluation (n*m
    projections, not n*m*(m-1)): the first fold, which reads every run
    anyway, projects the whole dataset, and every fold fits on it without
    its left-out run.
    """
    if manifest.n_runs < 2:
        raise ValueError("co-smoothing needs at least 2 runs")
    if manifest.n_subjects < 2:
        raise ValueError("co-smoothing needs at least 2 subjects")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if algorithm == "fastsrm":
        if atlas is None:
            raise ValueError("fastsrm needs an atlas")
        _check_atlas(atlas, k, manifest.v)
    folds = []
    for s in range(manifest.n_runs):
        try:
            training = manifest.without_run(s)
            fit_seed = fold_seed(seed, s)
            if algorithm == "fastsrm":
                if s == 0:  # fold 0 reads every run anyway, so a bad run fails fold 0
                    reduced = reduce_dataset(manifest, atlas, n_jobs=n_jobs)
                held_in = [runs[:s] + runs[s + 1:] for runs in reduced]
                model = fastsrm_fit(training, atlas, k, n_iter, fit_seed, n_jobs, reduced=held_in)
            else:
                model = fit(training, algorithm, k, atlas, n_iter, fit_seed, n_jobs)
            folds.extend(_score_left_out_run(manifest, model.spatial, s))
            del model  # release the components before the next fold's fit
        except Exception as exc:
            raise RuntimeError(f"fold with left-out run {s} failed: {exc}") from exc
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
    full sweep, so the map matches bit-for-bit."""
    training = manifest.without_run(run)
    model = fit(training, algorithm, k, atlas, n_iter, fold_seed(seed, run), n_jobs)
    return _score_left_out_run(manifest, model.spatial, run, subjects=[subject])[0]


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
