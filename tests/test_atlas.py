import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import srmkit.dataio
from srmkit import Atlas, load_atlas, project_run, save_atlas, save_matrix
from srmkit import atlas as atlas_module
from srmkit.synthetic import balanced_partition

from conftest import random_orthonormal_rows, sparse_weights


def indicator_average(x, labels, c):
    """Independent oracle: per-parcel means computed column by column."""
    out = np.zeros((x.shape[0], c))
    for j in range(c):
        out[:, j] = x[:, labels == j].mean(axis=1)
    return out


class TestPartition:
    def test_per_parcel_mean_example(self):
        atlas = Atlas.partition([0, 0, 1, 1])
        out = project_run(np.array([[1.0, 2.0, 3.0, 4.0]]), atlas)
        assert np.allclose(out, [[1.5, 3.5]], atol=1e-14)

    def test_matches_indicator_oracle(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, size=37)
        labels[:5] = np.arange(5)  # every parcel occupied
        atlas = Atlas.partition(labels)
        x = rng.standard_normal((11, 37))
        assert np.max(np.abs(project_run(x, atlas) - indicator_average(x, labels, 5))) < 1e-12

    def test_partition_equals_probabilistic_indicator(self):
        # Running the 0/1 indicator matrix through the general path must
        # reproduce the averaging path.
        rng = np.random.default_rng(1)
        for seed in range(5):
            labels = np.random.default_rng(seed).integers(0, 7, size=50)
            labels[:7] = np.arange(7)
            part = Atlas.partition(labels)
            indicator = np.zeros((7, 50))
            indicator[labels, np.arange(50)] = 1.0
            prob = Atlas.probabilistic(indicator)
            x = rng.standard_normal((9, 50))
            assert np.max(np.abs(project_run(x, part) - project_run(x, prob))) <= 1e-10

    def test_missing_parcel_rejected(self):
        with pytest.raises(ValueError, match="empty parcels"):
            Atlas.partition([0, 2])

    def test_c_above_v_rejected(self):
        with pytest.raises(ValueError):
            Atlas.partition([0, 1, 5])  # parcels 2..4 empty anyway

    def test_singleton_parcels_allowed_in_memory(self):
        atlas = Atlas.partition(np.arange(6))
        x = np.random.default_rng(2).standard_normal((3, 6))
        assert np.array_equal(project_run(x, atlas), x)


class TestProbabilistic:
    def test_orthonormal_rows_reduce_to_plain_projection(self):
        a = random_orthonormal_rows(4, 30, seed=5)
        atlas = Atlas.probabilistic(a)
        x = np.random.default_rng(6).standard_normal((7, 30))
        assert np.max(np.abs(project_run(x, atlas) - x @ a.T)) < 1e-10

    def test_lift_is_idempotent(self):
        a = random_orthonormal_rows(5, 40, seed=7)
        atlas = Atlas.probabilistic(a)
        x = np.random.default_rng(8).standard_normal((6, 40))
        lifted = project_run(x, atlas) @ a
        again = project_run(lifted, atlas) @ a
        assert np.max(np.abs(again - lifted)) <= 1e-8

    def test_rank_deficient_gram_warns(self):
        a = np.random.default_rng(9).standard_normal((3, 20))
        a[2] = a[1]  # duplicate row: Gram loses rank
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            atlas = Atlas.probabilistic(a)
        out = project_run(np.random.default_rng(10).standard_normal((4, 20)), atlas)
        assert np.all(np.isfinite(out))

    def test_zero_row_rejected(self):
        a = np.zeros((2, 8))
        a[0, 0] = 1.0
        with pytest.raises(ValueError, match="all-zero"):
            Atlas.probabilistic(a)

    def test_sparse_weights_keep_every_check(self):
        # 1/70 of a 70 x 700 atlas is nonzero, so it is held as CSR.
        a = sparse_weights(70, 700, seed=11)
        assert sparse.issparse(Atlas.probabilistic(a).weights)
        bad = a.copy()
        bad[1, 3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Atlas.probabilistic(bad)
        bad = a.copy()
        bad[5] = 0.0
        with pytest.raises(ValueError, match="all-zero"):
            Atlas.probabilistic(bad)
        bad = a.copy()
        bad[6] = bad[7] = 0.0
        bad[6, :2] = bad[7, :2] = 1.0  # two equal rows: the Gram loses rank
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            atlas = Atlas.probabilistic(bad)
        assert sparse.issparse(atlas.weights)
        out = project_run(np.random.default_rng(10).standard_normal((4, 700)), atlas)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sparse_and_dense_projections_agree(self, monkeypatch, dtype):
        # 100 x 3,000 at one or two weights per voxel: 1% to 2% density.
        rng = np.random.default_rng(12)
        for seed, second in [(13, 0.0), (14, 0.5), (15, 1.0), (16, 1.0)]:
            a = sparse_weights(100, 3_000, seed, second)
            monkeypatch.setattr(atlas_module, "SPARSE_DENSITY", 1.0)
            held = Atlas.probabilistic(a)
            monkeypatch.setattr(atlas_module, "SPARSE_DENSITY", 0.0)
            dense = Atlas.probabilistic(a)
            assert sparse.issparse(held.weights) and isinstance(dense.weights, np.ndarray)
            x = rng.standard_normal((9, 3_000)).astype(dtype)
            want = project_run(x, dense)
            assert np.max(np.abs(project_run(x, held) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_density_rule_keeps_sparse_weights_as_csr(self):
        # 1% density (one weight per voxel at c=100): the atlas holds no
        # dense c x v array.
        a = sparse_weights(100, 10_000, seed=17)
        tracemalloc.start()
        try:
            atlas = Atlas.probabilistic(a)
            resident, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sparse.issparse(atlas.weights)
        assert resident < 0.1 * a.nbytes, f"resident {resident / a.nbytes:.2f} weights"

    def test_dense_weights_keep_the_whole_run_product(self):
        # 100% density: the weights stay dense and the projection is the
        # unchanged x A^T (A A^T)^+, byte for byte.
        a = np.random.default_rng(18).uniform(0.1, 1.0, size=(20, 500))
        atlas = Atlas.probabilistic(a)
        assert isinstance(atlas.weights, np.ndarray)
        u, d, vt = np.linalg.svd(a @ a.T)
        gram_pinv = (vt.T * (1.0 / d)) @ u.T
        x = np.random.default_rng(19).standard_normal((7, 500))
        assert project_run(x, atlas).tobytes() == ((x @ a.T) @ gram_pinv).tobytes()

    def test_dimension_mismatch(self):
        atlas = Atlas.partition([0, 1, 0, 1])
        with pytest.raises(ValueError, match="voxels"):
            project_run(np.zeros((3, 5)), atlas)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), a=st.floats(-5, 5), b=st.floats(-5, 5))
def test_projection_is_linear(seed, a, b):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 4, size=24)
    labels[:4] = np.arange(4)
    atlas = Atlas.partition(labels)
    x = rng.standard_normal((6, 24))
    y = rng.standard_normal((6, 24))
    lhs = project_run(a * x + b * y, atlas)
    rhs = a * project_run(x, atlas) + b * project_run(y, atlas)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestLoadAtlas:
    def test_partition_file(self, tmp_path):
        p = tmp_path / "atlas.srmb"
        save_matrix(np.array([[0.0, 0.0, 1.0, 1.0]]), p)
        atlas = load_atlas(p)
        assert atlas.kind == "partition"
        assert (atlas.c, atlas.v) == (2, 4)

    def test_probabilistic_file(self, tmp_path):
        p = tmp_path / "atlas.srmb"
        save_matrix(np.random.default_rng(0).standard_normal((3, 10)), p)
        atlas = load_atlas(p)
        assert atlas.kind == "probabilistic"
        assert (atlas.c, atlas.v) == (3, 10)

    def test_missing_parcel_in_file(self, tmp_path):
        p = tmp_path / "atlas.srmb"
        save_matrix(np.array([[0.0, 2.0, 0.0]]), p)
        with pytest.raises(ValueError, match="empty parcels"):
            load_atlas(p)

    def test_no_compression_rejected(self, tmp_path):
        p = tmp_path / "atlas.srmb"
        save_matrix(np.array([[0.0, 1.0]]), p)
        with pytest.raises(ValueError, match="compress"):
            load_atlas(p)

    def test_non_integer_partition_rejected(self, tmp_path):
        p = tmp_path / "atlas.srmb"
        save_matrix(np.array([[0.0, 0.5, 1.0]]), p)
        with pytest.raises(ValueError, match="integer"):
            load_atlas(p)

    def test_save_load_roundtrip(self, tmp_path):
        atlas = balanced_partition(30, 6, seed=1)
        save_atlas(atlas, tmp_path / "a.srmb")
        back = load_atlas(tmp_path / "a.srmb")
        assert np.array_equal(back.labels, atlas.labels)
        prob = Atlas.probabilistic(np.abs(np.random.default_rng(2).standard_normal((4, 20))) + 0.1)
        save_atlas(prob, tmp_path / "b.srmb")
        back = load_atlas(tmp_path / "b.srmb")
        assert np.array_equal(back.weights, prob.weights)

    def test_sparse_save_load_roundtrip(self, tmp_path):
        prob = Atlas.probabilistic(sparse_weights(70, 700, seed=20))
        assert sparse.issparse(prob.weights)
        save_atlas(prob, tmp_path / "s.srmb")
        back = load_atlas(tmp_path / "s.srmb")
        assert sparse.issparse(back.weights)
        assert back.weights.toarray().tobytes() == prob.weights.toarray().tobytes()

    @pytest.mark.parametrize("fill, match", [(np.nan, "non-finite"), (0.0, "all-zero row")])
    def test_invalid_weights_name_the_file(self, tmp_path, fill, match):
        a = np.abs(np.random.default_rng(3).standard_normal((4, 20))) + 0.1
        a[2] = fill
        p = tmp_path / "atlas.srmb"
        write_unchecked(a, p)
        with pytest.raises(ValueError, match=match) as info:
            load_atlas(p)
        assert str(info.value).startswith(f"{p}: ")

    def test_no_compression_rejected_from_the_header(self, tmp_path, monkeypatch):
        p = tmp_path / "atlas.srmb"
        save_matrix(np.ones((5, 5)), p)
        monkeypatch.setattr(atlas_module, "load_matrix", None)  # no weight may be read
        with pytest.raises(ValueError, match=r"compress \(c=5 >= v=5\)") as info:
            load_atlas(p)
        assert str(info.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("rows", [3, 7, 200])
    def test_sparse_file_is_read_by_row_block(self, tmp_path, monkeypatch, rows):
        # 100 x 8,000 weights, 1 or 2 per voxel (1.5%): the dense file is
        # 6.4 MB and the CSR matrix 0.15 MB, so the load must never hold the file.
        c, v = 100, 8_000
        a = sparse_weights(c, v, seed=21, second=0.5)
        save_matrix(a, tmp_path / "s.srmb")
        monkeypatch.setattr(srmkit.dataio, "BLOCK_BYTES", rows * 8 * v)
        tracemalloc.start()
        try:
            atlas = load_atlas(tmp_path / "s.srmb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sparse.issparse(atlas.weights)
        assert atlas.weights.toarray().tobytes() == a.tobytes()
        if rows < c:
            assert peak < 0.25 * c * v * 8, f"peak {peak / (c * v * 8):.2f} of the dense file"

    @pytest.mark.parametrize("rows, sparse_rows", [(8, 0), (8, 20), (100, 0)])
    def test_dense_file_holds_the_weights_and_one_block(self, tmp_path, monkeypatch, rows,
                                                        sparse_rows):
        # Above SPARSE_DENSITY the weights end up dense, as the whole-file
        # read kept them, and loading holds no more than them and one block;
        # with sparse_rows, the first rows are sparse enough to start a CSR
        # matrix that the dense rows then overturn.
        c, v = 40, 4_000
        a = np.random.default_rng(22).uniform(0.1, 1.0, (c, v))
        a[:sparse_rows] = sparse_weights(c, v, seed=23)[:sparse_rows]
        save_matrix(a, tmp_path / "d.srmb")
        monkeypatch.setattr(srmkit.dataio, "BLOCK_BYTES", rows * 8 * v)
        tracemalloc.start()
        try:
            atlas = load_atlas(tmp_path / "d.srmb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(atlas.weights, np.ndarray)
        assert atlas.weights.tobytes() == a.tobytes()
        # 32 KiB for Python objects and the CSR rows held when the switch comes
        assert peak <= a.nbytes + min(rows, c) * 8 * v + 2**15

    def test_streamed_load_matches_the_whole_matrix(self, tmp_path, monkeypatch):
        a = sparse_weights(100, 1_000, seed=24, second=0.5)
        save_matrix(a.astype(np.float32), tmp_path / "s.srmb")
        monkeypatch.setattr(srmkit.dataio, "BLOCK_BYTES", 9 * 8 * 1_000)  # a ragged tail of 1
        back = load_atlas(tmp_path / "s.srmb")
        want = Atlas.probabilistic(a.astype(np.float32))
        assert back.weights.toarray().tobytes() == want.weights.toarray().tobytes()
        assert back._mix.tobytes() == want._mix.tobytes()


def write_unchecked(a, path):
    """An SRMB float64 file of ``a``, written without save_matrix's finiteness check."""
    header = struct.pack("<4sIBQQ", b"SRMB", 1, 0, *a.shape)
    path.write_bytes(header + a.astype("<f8").tobytes())


def test_partition_projection_reads_rows_in_place():
    # The projection must not copy its input: a 52 x 20,000 block is 8 MiB,
    # and the traced peak stays under a tenth of it.
    x = np.random.default_rng(5).standard_normal((52, 20_000))
    atlas = balanced_partition(20_000, 200, seed=6)
    tracemalloc.start()
    try:
        out = project_run(x, atlas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (52, 200)
    assert peak < 0.1 * x.nbytes, f"peak {peak / x.nbytes:.2f} inputs"


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sparse_projection_reads_rows_in_place(dtype):
    # Sparse probabilistic weights take the partition's row loop: neither
    # the block nor the weights are copied whole.
    x = np.random.default_rng(7).standard_normal((52, 20_000)).astype(dtype)
    atlas = Atlas.probabilistic(sparse_weights(200, 20_000, seed=8, second=1.0))
    assert sparse.issparse(atlas.weights)
    tracemalloc.start()
    try:
        out = project_run(x, atlas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (52, 200)
    assert peak < 0.1 * x.nbytes, f"peak {peak / x.nbytes:.2f} inputs"
