"""Run-matrix storage (SRMB binary format) and dataset manifests.

A run matrix is the t x v recording of one run of one subject: rows are
timeframes, columns are voxels (or features). Matrices are stored in a small
self-describing little-endian binary format so that files round-trip
bit-exactly and can be read by row range without loading the whole file.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"SRMB"
VERSION = 1
HEADER_SIZE = 4 + 4 + 1 + 8 + 8  # magic, version, dtype code, rows, cols

_DTYPE_BY_CODE = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_CODE_BY_DTYPE = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}


class FormatError(ValueError):
    """Raised when a file does not conform to the SRMB layout."""


@contextmanager
def _atomic_open(path, mode: str):
    """Open ``<name>.tmp`` beside ``path`` and rename it onto ``path`` once
    the block completes; if the block raises, remove it, so ``path`` keeps
    its previous content and no half-written file is ever visible."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_json(obj, path) -> None:
    """Write ``obj`` as indented, key-sorted JSON through ``<name>.tmp``, so an
    interrupted write leaves any previous file at ``path`` intact."""
    with _atomic_open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def save_matrix(mat: np.ndarray, path) -> None:
    """Write a 2-D float32/float64 matrix to ``path`` in SRMB format.

    Values are stored row-major, little-endian, after a 25-byte header.
    Non-finite values are rejected so that every stored file is valid
    input for the solvers. The file is written beside ``path`` as
    ``<name>.tmp`` and renamed into place, so an interrupted write never
    leaves a truncated matrix at ``path``.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={mat.ndim}")
    if mat.shape[0] < 1 or mat.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got {mat.shape}")
    if mat.dtype not in _CODE_BY_DTYPE:
        raise ValueError(f"unsupported dtype {mat.dtype}; use float32 or float64")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix contains non-finite values")
    code = _CODE_BY_DTYPE[mat.dtype]
    header = struct.pack("<4sIBQQ", MAGIC, VERSION, code, mat.shape[0], mat.shape[1])
    le = mat.astype(_DTYPE_BY_CODE[code], copy=False)
    with _atomic_open(path, "wb") as f:
        f.write(header)
        np.ascontiguousarray(le).tofile(f)


def read_header(path) -> tuple[int, int, np.dtype]:
    """Return (rows, cols, dtype) from an SRMB file without reading data."""
    with open(path, "rb") as f:
        raw = f.read(HEADER_SIZE)
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"{path}: file shorter than header")
    magic, version, code, rows, cols = struct.unpack("<4sIBQQ", raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if code not in _DTYPE_BY_CODE:
        raise FormatError(f"{path}: unknown dtype code {code}")
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: invalid shape {rows}x{cols}")
    if rows * cols > 2**62 // 8:
        raise FormatError(f"{path}: rows*cols overflow ({rows}x{cols})")
    return rows, cols, _DTYPE_BY_CODE[code]


def load_matrix(path, row_range: tuple[int, int] | None = None) -> np.ndarray:
    """Load an SRMB matrix, optionally restricted to rows [start, stop).

    Region reads seek directly to the requested rows so a full file never
    needs to reside in memory.
    """
    rows, cols, dtype = read_header(path)
    expected = HEADER_SIZE + rows * cols * dtype.itemsize
    actual = Path(path).stat().st_size
    if actual != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {actual} (truncated or padded)")
    if row_range is None:
        start, stop = 0, rows
    else:
        start, stop = row_range
        if not (0 <= start < stop <= rows):
            raise ValueError(f"{path}: row range [{start}, {stop}) out of bounds for {rows} rows")
    count = (stop - start) * cols
    offset = HEADER_SIZE + start * cols * dtype.itemsize
    data = np.fromfile(path, dtype=dtype, count=count, offset=offset)
    if data.size != count:
        raise FormatError(f"{path}: short read")
    return data.reshape(stop - start, cols)


@dataclass(frozen=True)
class DatasetManifest:
    """Index over the run files of a multi-subject dataset.

    ``runs[i][s]`` is the path of subject i, run s. Every subject has the
    same run count and voxel count; within a run all subjects share the
    timeframe count (required for a per-run shared response). ``run_ids``
    holds the dataset's index of each run when this manifest keeps only some
    of them (see :meth:`without_run`); errors report those indices.
    """

    subjects: tuple[str, ...]
    runs: tuple[tuple[Path, ...], ...]
    v: int
    t_per_run: tuple[int, ...]
    run_ids: tuple[int, ...] | None = None

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_runs(self) -> int:
        return len(self.t_per_run)

    def _load_error(self, subject: int, run: int, exc: Exception) -> RuntimeError:
        run_id = run if self.run_ids is None else self.run_ids[run]
        return RuntimeError(f"failed loading subject {subject}, run {run_id}: {exc}")

    def load_run(self, subject: int, run: int, rows: tuple[int, int] | None = None) -> np.ndarray:
        """Subject ``subject``'s run ``run``, or only its rows [start, stop)
        given ``rows``."""
        try:
            return load_matrix(self.runs[subject][run], row_range=rows)
        except Exception as exc:
            raise self._load_error(subject, run, exc) from exc

    def run_blocks(self, subject: int, run: int, block_rows: int):
        """Yield (start, stop, rows [start, stop) of the run) over successive
        blocks of ``block_rows`` rows (the last may be shorter), so that no
        more than one block of the run is in memory at a time.

        The file's shape is checked against the manifest before the first
        block; every block is read through :meth:`load_run`, which checks the
        header and file size again, so a file truncated while it is streamed
        fails with the subject, run and file named.
        """
        path = self.runs[subject][run]
        t = self.t_per_run[run]
        try:
            rows, cols, _ = read_header(path)
            if (rows, cols) != (t, self.v):
                raise FormatError(f"{path}: shape {rows}x{cols}, manifest expects {t}x{self.v}")
        except Exception as exc:
            raise self._load_error(subject, run, exc) from exc
        for start in range(0, t, block_rows):
            stop = min(start + block_rows, t)
            yield start, stop, self.load_run(subject, run, rows=(start, stop))

    def load_all(self) -> list[list[np.ndarray]]:
        """Load every run into memory, indexed [subject][run]."""
        return [[self.load_run(i, s) for s in range(self.n_runs)] for i in range(self.n_subjects)]

    def without_run(self, run: int) -> "DatasetManifest":
        """Manifest restricted to all runs but one (for cross-validation)."""
        keep = [s for s in range(self.n_runs) if s != run]
        if not keep:
            raise ValueError("cannot drop the only run")
        ids = self.run_ids or range(self.n_runs)
        return DatasetManifest(
            subjects=self.subjects,
            runs=tuple(tuple(paths[s] for s in keep) for paths in self.runs),
            v=self.v,
            t_per_run=tuple(self.t_per_run[s] for s in keep),
            run_ids=tuple(ids[s] for s in keep),
        )


def load_manifest(path) -> DatasetManifest:
    """Read a manifest JSON document and validate shape consistency.

    Layout: ``{"subjects": [{"id": str, "runs": [path, ...]}, ...]}`` with
    run paths relative to the manifest file. Timeframe and voxel counts are
    taken from the SRMB headers.
    """
    path = Path(path)
    with open(path) as f:
        doc = json.load(f)
    subjects = doc.get("subjects")
    if not subjects:
        raise ValueError(f"{path}: manifest has no subjects")
    base = path.parent
    ids = []
    runs = []
    for entry in subjects:
        ids.append(str(entry["id"]))
        paths = tuple(base / p for p in entry["runs"])
        if not paths:
            raise ValueError(f"{path}: subject {entry['id']} has no runs")
        runs.append(paths)
    m = len(runs[0])
    if any(len(r) != m for r in runs):
        raise ValueError(f"{path}: subjects disagree on run count")
    v = None
    t_per_run = [None] * m
    for sid, paths in zip(ids, runs):
        for s, p in enumerate(paths):
            rows, cols, _ = read_header(p)
            if v is None:
                v = cols
            elif cols != v:
                raise ValueError(f"{path}: subject {sid} run {s} has {cols} voxels, expected {v}")
            if t_per_run[s] is None:
                t_per_run[s] = rows
            elif rows != t_per_run[s]:
                raise ValueError(
                    f"{path}: subject {sid} run {s} has {rows} timeframes, expected {t_per_run[s]}"
                )
    return DatasetManifest(
        subjects=tuple(ids), runs=tuple(runs), v=int(v), t_per_run=tuple(int(t) for t in t_per_run)
    )


def save_manifest(path, subject_runs: dict[str, list[str]]) -> None:
    """Write a manifest JSON file; run paths must be relative to it."""
    doc = {"subjects": [{"id": sid, "runs": list(rr)} for sid, rr in subject_runs.items()]}
    save_json(doc, path)
