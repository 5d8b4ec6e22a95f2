"""Atlases: spatial compression of voxel-space runs into parcel space.

An atlas maps v voxels onto c parcels, either as a hard partition (each
voxel belongs to one parcel) or as a probabilistic c x v weight matrix.
Projecting a t x v run through an atlas yields a t x c reduced run.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import sparse

from .dataio import FormatError, _block_rows, load_matrix, read_header, save_matrix

GRAM_RCOND = 1e-10  # relative singular-value cutoff for the parcel Gram pseudo-inverse
SPARSE_DENSITY = 1 / 64  # largest share of nonzero probabilistic weights held as a CSR matrix


class Atlas:
    """Immutable compression operator over voxels.

    Use :meth:`partition` or :meth:`probabilistic` to construct. The
    projection is precomputed once here so that projecting a run is a single
    pass over its values: this projection is the dominant cost of the
    compressed pipeline, so nothing per-call is recomputed. It is a c x v
    operator ``_op`` followed by an optional c x c ``_mix``. A partition's
    ``_op`` is its sparse per-parcel averaging matrix, with no ``_mix``. A
    probabilistic atlas's ``_op`` is its ``weights``, a ``scipy.sparse`` CSR
    matrix when at most ``SPARSE_DENSITY`` of them are nonzero (as when each
    voxel lies in a few parcels) and a dense array otherwise, and its
    ``_mix`` is the cached pseudo-inverse of the parcel Gram matrix.
    """

    def __init__(self, kind, c, v, labels=None, weights=None, _op=None, _mix=None):
        self.kind = kind
        self.c = int(c)
        self.v = int(v)
        self.labels = labels
        self.weights = weights
        self._op = _op
        self._mix = _mix

    @classmethod
    def partition(cls, labels) -> "Atlas":
        """Atlas from a length-v vector of parcel ids in 0..c-1."""
        labels = np.asarray(labels)
        if labels.ndim != 1:
            raise ValueError("partition labels must be a 1-D vector")
        if not np.issubdtype(labels.dtype, np.integer):
            as_int = labels.astype(np.int64)
            if not np.array_equal(as_int, labels):
                raise ValueError("partition labels must be integer-valued")
            labels = as_int
        labels = labels.astype(np.int64, copy=False)
        v = labels.size
        if labels.min() < 0:
            raise ValueError("parcel labels must be non-negative")
        c = int(labels.max()) + 1
        counts = np.bincount(labels, minlength=c)
        if np.any(counts == 0):
            missing = np.flatnonzero(counts == 0)
            raise ValueError(f"empty parcels: {missing.tolist()}")
        if c > v:
            raise ValueError(f"parcel count c={c} exceeds voxel count v={v}")
        # c x v sparse averaging operator; X @ op.T gives per-parcel means.
        op = sparse.csr_matrix(
            (1.0 / counts[labels], (labels, np.arange(v))), shape=(c, v), dtype=np.float64
        )
        return cls("partition", c, v, labels=labels, _op=op)

    @classmethod
    def probabilistic(cls, weights) -> "Atlas":
        """Atlas from a c x v weight matrix with no all-zero row, dense or
        ``scipy.sparse``. It is kept as a CSR matrix if at most
        ``SPARSE_DENSITY`` of its entries are nonzero, and as a dense array
        otherwise, whichever form it comes in."""
        a = weights if sparse.issparse(weights) else np.asarray(weights, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("probabilistic atlas must be a 2-D matrix")
        c, v = a.shape
        if c > v:
            raise ValueError(f"parcel count c={c} exceeds voxel count v={v}")
        if sparse.issparse(a):
            a = sparse.csr_matrix(a, dtype=np.float64)  # no copy of a CSR float64 input
            values, nonzero = a.data, a.count_nonzero()
        else:
            values, nonzero = a, np.count_nonzero(a)
        if not np.all(np.isfinite(values)):
            raise ValueError("atlas weights contain non-finite values")
        if nonzero <= SPARSE_DENSITY * c * v:
            a = sparse.csr_matrix(a)
            gram = (a @ a.T).toarray()
        else:
            a = a.toarray() if sparse.issparse(a) else a
            gram = a @ a.T
        if np.any(np.diag(gram) == 0):  # a row's sum of squares
            raise ValueError("probabilistic atlas has an all-zero row")
        u, d, vt = np.linalg.svd(gram)
        rank = int(np.sum(d > GRAM_RCOND * d[0]))
        if rank < c:
            warnings.warn(
                f"atlas Gram matrix is rank deficient ({rank} < {c}); "
                "projection uses its pseudo-inverse",
                RuntimeWarning,
                stacklevel=2,
            )
        inv_d = np.where(d > GRAM_RCOND * d[0], 1.0 / np.where(d > 0, d, 1.0), 0.0)
        gram_pinv = (vt.T * inv_d) @ u.T
        return cls("probabilistic", c, v, weights=a, _op=a, _mix=gram_pinv)


def project_run(x: np.ndarray, atlas: Atlas) -> np.ndarray:
    """Compress a t x v run to t x c parcel space.

    A sparse operator (a partition's averaging matrix, or sparse
    probabilistic weights) is applied one row at a time, reading each row in
    place; dense weights take one product over the whole run, which upcasts
    a float32 run whole. A probabilistic atlas then applies the cached Gram
    pseudo-inverse, so that it computes x A^T (A A^T)^+; a partition needs
    no c x c solve.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != atlas.v:
        raise ValueError(f"run has shape {x.shape}, atlas expects {atlas.v} voxels")
    if sparse.issparse(atlas._op):
        # One sparse product per row reads the row in place; (c x v) @ x.T
        # would have scipy copy the whole transpose first.
        out = np.empty((x.shape[0], atlas.c))
        for r in range(x.shape[0]):
            out[r] = atlas._op @ x[r]
    else:
        out = x @ atlas._op.T
    return out if atlas._mix is None else out @ atlas._mix


def load_atlas(path) -> Atlas:
    """Load an atlas from an SRMB file; every error it raises names the file.

    A 1 x v matrix is a partition and must hold integer parcel labels (read
    as weights, it would be a single parcel, which no fit can use); a c x v
    matrix with c > 1 is probabilistic, and is read in :func:`_block_rows`
    row blocks (see :func:`_read_weights`). A file with c >= v cannot
    compress and is rejected from its header, before any weight is read.
    """
    c, v, _ = read_header(path)
    if c >= v:
        raise ValueError(f"{path}: atlas must compress (c={c} >= v={v})")
    try:
        if c > 1:
            return Atlas.probabilistic(_read_weights(path, c, v))
        labels = load_matrix(path)[0]
        if not np.array_equal(labels, np.round(labels)):
            raise ValueError("partition labels must be integer-valued")
        atlas = Atlas.partition(labels.astype(np.int64))
        if atlas.c >= atlas.v:
            raise ValueError(f"atlas must compress (c={atlas.c} >= v={atlas.v})")
        return atlas
    except FormatError:
        raise  # names the file already
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_weights(path, c, v):
    """The c x v weights of an SRMB file, read in :func:`_block_rows` row
    blocks and kept in the form :meth:`Atlas.probabilistic` keeps: a CSR
    matrix, built block by block, while no more than ``SPARSE_DENSITY`` of
    the c*v weights have turned out nonzero, and from the block that passes
    that a dense array, into which the blocks read so far are written. So
    reading holds the weights and one block; a dense file read in one block
    is kept as read.
    """
    rows = _block_rows(v)
    parts, nonzero, dense = [], 0, None
    for a in range(0, c, rows):
        block = load_matrix(path, (a, min(a + rows, c))).astype(np.float64, copy=False)
        nonzero += np.count_nonzero(block)
        if dense is None and nonzero > SPARSE_DENSITY * c * v:
            if len(block) == c:
                return block
            dense = np.zeros((c, v))
            for j, part in enumerate(parts):
                part.toarray(out=dense[j * rows:(j + 1) * rows])
            parts.clear()
        if dense is None:
            parts.append(sparse.csr_matrix(block))
        else:
            dense[a:a + len(block)] = block
        del block  # released before the next block is read
    return sparse.vstack(parts, format="csr") if dense is None else dense


def save_atlas(atlas: Atlas, path) -> None:
    """Store an atlas as an SRMB file readable by :func:`load_atlas`, which
    reads a probabilistic atlas back as the same representation."""
    if atlas.kind == "partition":
        save_matrix(atlas.labels.astype(np.float64)[None, :], path)
    elif sparse.issparse(atlas.weights):
        save_matrix(atlas.weights.toarray(), path)
    else:
        save_matrix(atlas.weights, path)
