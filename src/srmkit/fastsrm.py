"""Compressed three-step fit: project runs onto an atlas, solve the shared
response in parcel space, then recover full-resolution components by
orthonormal regression.

Full-resolution runs are streamed from disk in blocks of rows and never
held whole: the process keeps the reduced data (small by construction), the
atlas, the k x v accumulators and one row block per worker. Recovered
components are kept in memory, or, given a model directory, written there
one subject at a time so that peak memory stays independent of the subject
count.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .atlas import Atlas, project_run
from .dataio import DatasetManifest, save_matrix
from .srm import SrmModel, _check_fit_args, _map_subjects, _project_sum, _subject_step, detsrm_fit

BLOCK_BYTES = 8 << 20  # float64 bytes of run rows read from disk at a time


def _block_rows(v: int, min_bytes: int = 0) -> int:
    """Rows per block: ``BLOCK_BYTES`` (read at call time), or ``min_bytes``
    if larger, of float64 rows of v voxels, and at least one row. The block
    size never depends on ``n_jobs``, so results do not either."""
    return max(1, max(BLOCK_BYTES, min_bytes) // (8 * v))


def _check_atlas(atlas: Atlas, k: int, v: int) -> None:
    """Reject an atlas that does not fit the dataset, or a ``k`` it cannot hold."""
    if atlas.v != v:
        raise ValueError(f"atlas has {atlas.v} voxels, dataset has {v}")
    if k >= atlas.c:
        raise ValueError(f"k={k} must be smaller than the parcel count c={atlas.c}")


def reduce_dataset(
    manifest: DatasetManifest, atlas: Atlas, n_jobs: int = 1
) -> list[list[np.ndarray]]:
    """Project every run into parcel space (float64), indexed [subject][run].

    Runs are read from disk a block of rows at a time per worker and each
    block is projected on its own; only the t x c projections are retained.
    A partition's projection is row-local, so its result is bit-identical to
    projecting whole runs. A probabilistic atlas's blocks are at least as
    large as its dense c x v weights, since each block's product repacks
    them; where a run spans several blocks, the result agrees with the
    whole-run product to rounding (BLAS may order a row's sum by the number
    of rows it is given).
    """
    dense = atlas.weights.nbytes if atlas.kind == "probabilistic" else 0
    rows = _block_rows(manifest.v, dense)

    def reduce_run(i, s):
        out = np.empty((manifest.t_per_run[s], atlas.c))
        for start, stop, x in manifest.run_blocks(i, s, rows):
            out[start:stop] = project_run(x, atlas)
        return out

    def reduce_subject(i):
        return [reduce_run(i, s) for s in range(manifest.n_runs)]

    return _map_subjects(reduce_subject, manifest.n_subjects, n_jobs)


def recover_components(
    manifest: DatasetManifest,
    shared: list[np.ndarray],
    n_jobs: int = 1,
    component_dir: str | Path | None = None,
) -> list[np.ndarray | Path]:
    """Recover full-resolution components from a (possibly ill-scaled) shared
    response, one t_s x k array per run, by orthonormal regression.

    Per subject, runs are streamed from disk in blocks of rows and the k x v
    cross products accumulated in run and row order; the Procrustes step of
    the accumulated matrix is scale-invariant, so any positive rescaling of
    ``shared`` yields the same components. When ``component_dir`` is given,
    each component is written there and released before the next subject.
    """
    runs = [np.asarray(sh) for sh in shared]
    if len(runs) != manifest.n_runs:
        raise ValueError(f"{len(runs)} shared runs for a {manifest.n_runs}-run dataset")
    k = runs[0].shape[-1]
    for s, sh in enumerate(runs):
        if sh.shape != (manifest.t_per_run[s], k):
            raise ValueError(f"run {s}: shared response has shape {sh.shape}, "
                             f"expected ({manifest.t_per_run[s]}, {k})")
        if not np.all(np.isfinite(sh)):
            raise ValueError(f"run {s}: shared response contains non-finite values")
    if component_dir is not None:
        component_dir = Path(component_dir)
        component_dir.mkdir(parents=True, exist_ok=True)

    rows = _block_rows(manifest.v)

    def recover_subject(i):
        w, _ = _subject_step(runs, lambda s: manifest.run_blocks(i, s, rows), manifest.v)
        if component_dir is None:
            return w
        dest = component_dir / f"w_{i:03d}.srmb"
        save_matrix(w, dest)
        return dest

    return _map_subjects(recover_subject, manifest.n_subjects, n_jobs)


def _check_reduced(reduced, manifest: DatasetManifest, atlas: Atlas) -> None:
    if len(reduced) != manifest.n_subjects:
        raise ValueError(f"reduced data has {len(reduced)} subjects, "
                         f"dataset has {manifest.n_subjects}")
    for i, runs in enumerate(reduced):
        if len(runs) != manifest.n_runs:
            raise ValueError(f"subject {i}: reduced data has {len(runs)} runs, "
                             f"dataset has {manifest.n_runs}")
        for s, x in enumerate(runs):
            expected = (manifest.t_per_run[s], atlas.c)
            if np.shape(x) != expected:
                raise ValueError(f"subject {i}, run {s}: reduced run has shape "
                                 f"{np.shape(x)}, expected {expected}")


def fastsrm_fit(
    manifest: DatasetManifest,
    atlas: Atlas,
    k: int,
    n_iter: int = 10,
    seed=0,
    n_jobs: int = 1,
    component_dir: str | Path | None = None,
    *,
    reduced=None,
) -> SrmModel:
    """Fit spatial components through the atlas-compressed pipeline.

    Step 1 projects every run onto the atlas (streaming). Step 2 runs the
    alternating fit on the reduced data. Step 3 recovers each subject's
    full-resolution components by orthonormal regression against the reduced
    shared response, streaming runs from disk once more.

    ``k``, ``n_iter``, ``seed`` and ``n_jobs`` mean what they mean for
    :func:`detsrm_fit`; ``k`` must also be below the parcel count.
    ``component_dir`` is None to keep the recovered components in memory,
    or the model directory that recovery writes them into one subject at a
    time (created if missing; it ends up a loadable model directory).

    ``reduced`` replaces step 1 with runs already projected through
    ``atlas``, indexed [subject][run] in the order of ``manifest`` (as
    :func:`reduce_dataset` returns them); run s of every subject must be
    t_s x c. Given the projections of the same runs, the result is
    bit-identical to the fit that projects them itself. Cross-validation
    uses it to project each run once for all of its folds.

    The returned model carries ``trace`` (the reduced-space fit trace) and
    ``reduced_shared`` (the step-2 shared response, one t_s x k array per
    run, which is not correctly scaled for reconstruction; use
    :func:`fastsrm_transform`).
    """
    _check_fit_args(k, n_iter, n_jobs)
    _check_atlas(atlas, k, manifest.v)
    if component_dir is not None:
        Path(component_dir).mkdir(parents=True, exist_ok=True)  # fails before any run is read

    if reduced is None:
        reduced = reduce_dataset(manifest, atlas, n_jobs=n_jobs)
    else:
        _check_reduced(reduced, manifest, atlas)
    reduced_model, reduced_shared = detsrm_fit(reduced, k, n_iter=n_iter, seed=seed, n_jobs=1)
    del reduced

    spatial = recover_components(
        manifest, reduced_shared, n_jobs=n_jobs, component_dir=component_dir
    )
    model = SrmModel(spatial, validate=False)
    if component_dir is not None:
        model.save(component_dir)  # descriptor only; components are already in place
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
