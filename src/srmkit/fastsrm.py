"""Compressed three-step fit: project runs onto an atlas, solve the shared
response in parcel space, then recover full-resolution components by
orthonormal regression.

Full-resolution runs are streamed from disk and never held whole: in
blocks of rows to project them, in whole-run column tiles to recover the
components. Each reduced run is written to a spill directory as soon as it
is projected, and the parcel-space fit reads the reduced runs back one at a
time. So the process holds one row block per worker, then its k x v
accumulators and one tile, plus the atlas and every subject's k x c
parcel-space components, while the reduced data stays on disk. Recovered
components are kept in memory, or, given a model directory, written there
one subject at a time.
"""

from __future__ import annotations

import dataclasses
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

from .atlas import Atlas, project_run
from .dataio import DatasetManifest, _block_rows, save_matrix
from .srm import (COMPONENT_FILE, SrmModel, _check_fit_inputs, _fold_steps, _map_subjects,
                  _save_descriptor, _staged_dir, detsrm_fit)

REDUCED_FILE = "sub-{:03d}_run-{:03d}.srmb"  # subject i, run s in reduce_dataset's directory


class _RunsView:
    """[subject][run] view of a manifest's runs that reads a run from disk
    each time it is indexed or reached by iteration, so that a fit over it
    holds only the runs it is using."""

    def __init__(self, manifest: DatasetManifest, subject: int | None = None):
        self._manifest = manifest
        self._subject = subject

    def __len__(self) -> int:
        return self._manifest.n_subjects if self._subject is None else self._manifest.n_runs

    def __getitem__(self, j: int):
        if self._subject is None:
            return _RunsView(self._manifest, j)
        return self._manifest.load_run(self._subject, j)

    def __iter__(self):
        return (self[j] for j in range(len(self)))


def reduce_dataset(
    manifest: DatasetManifest, atlas: Atlas, directory: str | Path, n_jobs: int = 1
) -> DatasetManifest:
    """Project every run into parcel space and write each t x c projection
    (float64) into the existing ``directory`` as soon as it is made.

    Returns the manifest over those files: the subjects, run lengths and
    run indices of ``manifest``, with ``atlas.c`` columns. Runs are read
    from disk a block of rows at a time per worker and each block is
    projected on its own, so a worker holds one block and one reduced run.
    Blocks are :func:`_block_rows` rows, which a sparse operator (a
    partition, or sparse probabilistic weights) reads in place a row at a
    time; dense probabilistic weights are repacked by each block's product,
    so their blocks are at least as large as the c x v weights. A
    partition's projection is row-local, so its result is bit-identical to
    projecting whole runs. A probabilistic atlas's, where a run spans
    several blocks, agrees with the whole-run product to rounding (BLAS may
    order a row's sum by the number of rows it is given). A run that
    reduces to non-finite values is rejected before it is written, naming
    its subject, run and file.
    """
    directory = Path(directory)
    dense = isinstance(atlas.weights, np.ndarray)
    rows = max(_block_rows(manifest.v), atlas.c if dense else 1)

    def reduce_run(i, s):
        out = np.empty((manifest.t_per_run[s], atlas.c))
        for start, stop, x in manifest.run_blocks(i, s, rows):
            out[start:stop] = project_run(x, atlas)
            del x  # released before the next block is read
        if not np.all(np.isfinite(out)):  # as a run holding a NaN or an infinity does
            exc = ValueError(f"{manifest.runs[i][s]}: non-finite values")
            raise manifest._load_error(i, s, exc)
        path = directory / REDUCED_FILE.format(i, s)
        save_matrix(out, path)
        return path

    def reduce_subject(i):
        return tuple(reduce_run(i, s) for s in range(manifest.n_runs))

    runs = _map_subjects(reduce_subject, manifest.n_subjects, n_jobs)
    return dataclasses.replace(manifest, runs=tuple(runs), v=atlas.c)


def recover_components(
    manifest: DatasetManifest,
    shared: list[np.ndarray],
    n_jobs: int = 1,
    component_dir: str | Path | None = None,
) -> list[np.ndarray | Path]:
    """Recover full-resolution components from a (possibly ill-scaled) shared
    response, one t_s x k array per run, by orthonormal regression.

    Per subject, runs are streamed from disk in whole-run column tiles
    (:meth:`DatasetManifest.run_tiles`) and each tile's S^T X added into the
    k x v cross product, in run and column order; the Procrustes step of
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

    def recover_subject(i):
        ((w, _),) = _fold_steps([runs], partial(manifest.run_tiles, i), manifest.v)
        if component_dir is None:
            return w
        dest = component_dir / COMPONENT_FILE.format(i)
        save_matrix(w, dest)
        return dest

    return _map_subjects(recover_subject, manifest.n_subjects, n_jobs)


def _fit_reduced(reduced: DatasetManifest, k: int, n_iter: int, seed):
    """The parcel-space fit of step 2: :func:`detsrm_fit` over the reduced
    runs of ``reduced``, read from disk one at a time. Returns (model,
    shared)."""
    return detsrm_fit(_RunsView(reduced), k, n_iter=n_iter, seed=seed, n_jobs=1)


def fastsrm_fit(
    manifest: DatasetManifest,
    atlas: Atlas,
    k: int,
    n_iter: int = 10,
    seed=0,
    n_jobs: int = 1,
    component_dir: str | Path | None = None,
) -> SrmModel:
    """Fit spatial components through the atlas-compressed pipeline.

    Step 1 projects every run onto the atlas (streaming). Step 2 runs the
    alternating fit on the reduced data. Step 3 recovers each subject's
    full-resolution components by orthonormal regression against the reduced
    shared response, streaming runs from disk once more.

    ``k``, ``n_iter``, ``seed`` and ``n_jobs`` mean what they mean for
    :func:`detsrm_fit`; ``k`` must also be below the parcel count.
    ``component_dir`` is None to keep the recovered components in memory, or
    a model directory: they are written one subject at a time into a sibling
    ``<name>.<token>.tmp`` that then replaces it whole, and the returned model
    reads them there. A failed fit leaves a model already there intact.

    Step 1 writes the reduced runs into a new ``srmkit-*`` directory under
    :func:`tempfile.gettempdir` (``TMPDIR``), made before any run is read and
    removed once step 2 ends or the fit fails; step 2 reads them back one
    at a time.

    The returned model carries ``trace`` (the reduced-space fit trace) and
    ``reduced_shared`` (the step-2 shared response, one t_s x k array per
    run, which is not correctly scaled for reconstruction; use
    :func:`update_shared`).
    """
    _check_fit_inputs(manifest, "fastsrm", k, atlas, n_iter, n_jobs)
    # the staging directory is made, or fails, before any run is read
    with _staged_dir(component_dir) as staging:
        with tempfile.TemporaryDirectory(prefix="srmkit-") as spill_dir:
            reduced = reduce_dataset(manifest, atlas, spill_dir, n_jobs=n_jobs)
            reduced_model, reduced_shared = _fit_reduced(reduced, k, n_iter, seed)

        spatial = recover_components(
            manifest, reduced_shared, n_jobs=n_jobs, component_dir=staging
        )
        if staging is not None:
            _save_descriptor(staging, k, manifest.v, manifest.n_subjects)
    model = SrmModel(spatial) if component_dir is None else SrmModel.load(component_dir)
    model.trace = reduced_model.trace
    model.reduced_shared = reduced_shared
    return model
