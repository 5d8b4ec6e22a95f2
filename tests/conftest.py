import os
from pathlib import Path

import numpy as np
import pytest

from srmkit import generate


@pytest.fixture
def make_dataset(tmp_path):
    """Factory for small planted datasets written under the test's tmp dir."""

    counter = {"i": 0}

    def _make(n=3, m=2, t_list=(40, 50), v=60, k=4, sigma=0.0, seed=11, **kw):
        counter["i"] += 1
        out = tmp_path / f"ds{counter['i']:02d}"
        return generate(n, m, list(t_list), v, k, sigma, seed=seed, out_dir=out, **kw)

    return _make


def random_orthonormal_rows(k, v, seed=0):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((v, k)))
    return (q * np.sign(np.diag(r))).T


def sparse_weights(c, v, seed=0, second=0.0):
    """c x v probabilistic atlas weights: voxel j has a weight in parcel
    j mod c, and the first ``second`` share of the voxels a smaller one in
    another parcel."""
    rng = np.random.default_rng(seed)
    a = np.zeros((c, v))
    cols = np.arange(v)
    a[cols % c, cols] = rng.uniform(0.5, 1.0, size=v)
    two = cols[: int(second * v)]
    a[(two + rng.integers(1, c, size=two.size)) % c, two] = rng.uniform(0.1, 0.5, size=two.size)
    return a


def not_a_directory(root, kind):
    """``root/model``, where a model directory cannot go: a regular file, or
    a symbolic link to a directory holding one file."""
    path = root / "model"
    if kind == "file":
        path.write_text("not a model")
    else:
        (root / "elsewhere").mkdir()
        (root / "elsewhere" / "keep.txt").write_text("kept")
        path.symlink_to(root / "elsewhere", target_is_directory=True)
    return path


def tree(root):
    """Every entry under ``root``, symbolic links not followed: a file's
    bytes, a link's target, or None for a directory."""
    entries = {}
    for top, dirs, files in os.walk(root):
        for name in dirs + files:
            p = Path(top) / name
            entries[str(p.relative_to(root))] = (
                os.readlink(p) if p.is_symlink() else None if p.is_dir() else p.read_bytes())
    return entries
