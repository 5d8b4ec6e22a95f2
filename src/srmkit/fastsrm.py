"""Compressed three-step fit: project runs onto an atlas, solve the shared
response in parcel space, then recover full-resolution components by
orthonormal regression.

Full-resolution runs are streamed from disk and never held together: the
process keeps the reduced data (small by construction), the atlas, at most
one t x v run per worker, and the k x v accumulators. Recovered components
are kept in memory, or, given a model directory, written there one subject
at a time so that peak memory stays independent of the subject count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atlas import Atlas, project_run
from .dataio import DatasetManifest, save_matrix
from .srm import SharedResponse, SrmModel, _map_subjects, _project_sum, _subject_step, detsrm_fit


@dataclass
class FastSrmConfig:
    """Knobs of the compressed fit.

    ``component_dir`` is None to keep the recovered components in memory, or
    the model directory that recovery writes them into one subject at a
    time (created if missing; it ends up a loadable model directory).
    """

    k: int
    n_iter: int = 10
    n_jobs: int = 1
    seed: int = 0
    component_dir: str | Path | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.n_iter < 1:
            raise ValueError("n_iter must be at least 1")
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be at least 1")


def reduce_dataset(
    manifest: DatasetManifest, atlas: Atlas, n_jobs: int = 1
) -> list[list[np.ndarray]]:
    """Project every run into parcel space (float64), indexed [subject][run].

    Runs are loaded one at a time per worker; only the t x c projections are
    retained.
    """

    def reduce_subject(i):
        return [
            project_run(manifest.load_run(i, s), atlas).astype(np.float64, copy=False)
            for s in range(manifest.n_runs)
        ]

    return _map_subjects(reduce_subject, manifest.n_subjects, n_jobs)


def recover_components(
    manifest: DatasetManifest,
    shared: SharedResponse | list[np.ndarray],
    n_jobs: int = 1,
    component_dir: str | Path | None = None,
) -> list[np.ndarray | Path]:
    """Recover full-resolution components from a (possibly ill-scaled) shared
    response by orthonormal regression.

    Per subject, runs are streamed from disk and the k x v cross products
    accumulated in run order; the Procrustes step of the accumulated matrix
    is scale-invariant, so any positive rescaling of ``shared`` yields the
    same components. When ``component_dir`` is given, each component is
    written there (atomic rename) and released before the next subject.
    """
    if component_dir is not None:
        component_dir = Path(component_dir)
        component_dir.mkdir(parents=True, exist_ok=True)
    runs = list(shared.runs) if isinstance(shared, SharedResponse) else list(shared)
    if len(runs) != manifest.n_runs:
        raise ValueError(f"{len(runs)} shared runs for a {manifest.n_runs}-run dataset")
    for s, sh in enumerate(runs):
        if sh.shape[0] != manifest.t_per_run[s]:
            raise ValueError(f"run {s}: shared response has {sh.shape[0]} timeframes, "
                             f"data has {manifest.t_per_run[s]}")

    def recover_subject(i):
        w, _ = _subject_step(runs, lambda s: manifest.load_run(i, s), manifest.v)
        if component_dir is None:
            return w
        dest = component_dir / f"w_{i:03d}.srmb"
        tmp = component_dir / f"w_{i:03d}.srmb.tmp"
        save_matrix(w, tmp)
        os.replace(tmp, dest)
        return dest

    return _map_subjects(recover_subject, manifest.n_subjects, n_jobs)


def fastsrm_fit(manifest: DatasetManifest, atlas: Atlas, cfg: FastSrmConfig) -> SrmModel:
    """Fit spatial components through the atlas-compressed pipeline.

    Step 1 projects every run onto the atlas (streaming). Step 2 runs the
    alternating fit on the reduced data. Step 3 recovers each subject's
    full-resolution components by orthonormal regression against the reduced
    shared response, streaming runs from disk once more.

    The returned model carries ``trace`` (the reduced-space fit trace) and
    ``reduced_shared`` (the step-2 shared response, which is not
    correctly scaled for reconstruction; use :func:`fastsrm_transform`).
    """
    if atlas.v != manifest.v:
        raise ValueError(f"atlas has {atlas.v} voxels, dataset has {manifest.v}")
    if cfg.k >= atlas.c:
        raise ValueError(f"k={cfg.k} must be smaller than the parcel count c={atlas.c}")

    reduced = reduce_dataset(manifest, atlas, n_jobs=cfg.n_jobs)
    reduced_model, reduced_shared = detsrm_fit(
        reduced, cfg.k, n_iter=cfg.n_iter, seed=cfg.seed, n_jobs=1
    )
    del reduced

    spatial = recover_components(
        manifest, reduced_shared, n_jobs=cfg.n_jobs, component_dir=cfg.component_dir
    )
    model = SrmModel(spatial, validate=False)
    if cfg.component_dir is not None:
        model.save(cfg.component_dir)  # descriptor only; components are already in place
    model.trace = reduced_model.trace
    model.reduced_shared = reduced_shared
    return model


def fastsrm_transform(model: SrmModel, runs, subjects=None) -> np.ndarray:
    """Shared response of one run: average each subject's data projected onto
    its own basis, loading disk-backed components on demand.

    ``runs[j]`` is the t x v matrix of subject ``subjects[j]`` (all fitted
    subjects by default). Restricting ``subjects`` yields the leave-one-out
    estimate used by cross-validated reconstruction.
    """
    if subjects is None:
        subjects = list(range(model.n))
    subjects = list(subjects)
    if len(runs) != len(subjects):
        raise ValueError(f"{len(runs)} runs for {len(subjects)} subjects")
    if not subjects:
        raise ValueError("need at least one subject")
    for i in subjects:
        if not 0 <= i < model.n:
            raise ValueError(f"unknown subject {i} (model has {model.n})")
    t = runs[0].shape[0]
    for x, i in zip(runs, subjects):
        if x.shape != (t, model.v):
            raise ValueError(f"subject {i}: run shape {x.shape}, expected ({t}, {model.v})")
    return _project_sum(runs, (model.spatial_component(i) for i in subjects)) / len(subjects)
