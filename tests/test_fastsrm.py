import re
import struct
import tempfile

import numpy as np
import pytest
from scipy import sparse

from srmkit import (
    Atlas,
    balanced_partition,
    cosmoothing,
    detsrm_fit,
    fastsrm_fit,
    fit,
    probsrm_fit,
    recover_components,
    reduce_dataset,
    subspace_error,
    update_shared,
)
from srmkit import dataio, fastsrm
from srmkit.dataio import FormatError, _col_tiles
from srmkit.srm import SrmModel, _fold_steps

from conftest import random_orthonormal_rows, sparse_weights


def test_identity_compression_matches_full_fit(make_dataset, tmp_path):
    # Singleton parcels make projection the identity, so the compressed
    # pipeline must reproduce the plain fit bit-for-bit given the same seed.
    manifest, _ = make_dataset(n=3, m=2, t_list=(30, 25), v=40, k=4, sigma=0.5, seed=3)
    atlas = Atlas.partition(np.arange(40))
    cfg = dict(k=4, n_iter=6, seed=9, component_dir=tmp_path / "spill")
    fast = fastsrm_fit(manifest, atlas, **cfg)
    full, _ = detsrm_fit(manifest.load_all(), k=4, n_iter=6, seed=9)
    rel = abs(fast.trace[-1] - full.trace[-1]) / full.trace[-1]
    assert rel <= 1e-8
    for i in range(3):
        assert np.max(np.abs(fast.spatial_component(i) - full.spatial_component(i))) <= 1e-8


def test_k_must_be_below_parcel_count(make_dataset):
    manifest, _ = make_dataset(v=40, k=4)
    atlas = balanced_partition(40, 4, seed=0)
    with pytest.raises(ValueError, match="parcel count"):
        fastsrm_fit(manifest, atlas, k=4, n_iter=2)


def test_atlas_dataset_mismatch(make_dataset):
    manifest, _ = make_dataset(v=40, k=4)
    atlas = balanced_partition(39, 8, seed=0)
    with pytest.raises(ValueError, match="voxels"):
        fastsrm_fit(manifest, atlas, k=4, n_iter=2)


def test_missing_atlas_is_rejected_before_any_read(make_dataset, monkeypatch):
    # fastsrm_fit once reached atlas.v and raised an AttributeError
    manifest, _ = make_dataset(n=2, m=2, v=30, k=3, sigma=0.2, seed=18)
    loads = []
    real_load = dataio.load_matrix

    def counting_load(*args, **kwargs):
        loads.append(args)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(dataio, "load_matrix", counting_load)
    for call in (lambda: fastsrm_fit(manifest, None, 3),
                 lambda: fit(manifest, "fastsrm", 3)):
        with pytest.raises(ValueError, match="fastsrm needs an atlas"):
            call()
    assert loads == []


def _spill_dirs(root):
    return sorted(p.name for p in root.glob("srmkit-*"))


@pytest.fixture
def spill_root(tmp_path, monkeypatch):
    """A fresh directory that tempfile.gettempdir() returns."""
    root = tmp_path / "tmpdir"
    root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(root))
    return root


def test_reduced_file_disagreeing_with_its_manifest_fails_the_fit(
    make_dataset, monkeypatch, spill_root
):
    manifest, _ = make_dataset(n=3, m=2, t_list=(20, 25), v=50, k=3, sigma=0.4, seed=17)
    atlas = balanced_partition(50, 10, seed=9)
    reduce = fastsrm.reduce_dataset
    targets = []

    def reduce_then_shorten(*args, **kwargs):
        reduced = reduce(*args, **kwargs)
        targets.append(reduced.runs[1][1])
        dataio.save_matrix(np.ones((24, 10)), targets[0])
        return reduced

    monkeypatch.setattr(fastsrm, "reduce_dataset", reduce_then_shorten)
    match = r"subject 1, run 1: .*24x10, manifest expects 25x10"
    with pytest.raises(RuntimeError, match=match) as info:
        fastsrm_fit(manifest, atlas, k=3, n_iter=2, seed=0)
    assert str(targets[0]) in str(info.value)
    assert _spill_dirs(spill_root) == []


def test_reduced_fit_reads_each_reduced_run_2_n_iter_plus_1_times(make_dataset, monkeypatch):
    # one read to validate it and take its sum of squares, then two per iteration
    n, m, n_iter = 3, 2, 4
    manifest, _ = make_dataset(n=n, m=m, v=40, k=3, sigma=0.2, seed=45)
    atlas = balanced_partition(40, 8, seed=4)
    reads = []
    load_run = dataio.DatasetManifest.load_run

    def counting_load(self, subject, run, rows=None):
        if self.v == atlas.c:  # the reduced manifest
            reads.append((subject, run, rows))
        return load_run(self, subject, run, rows)

    monkeypatch.setattr(dataio.DatasetManifest, "load_run", counting_load)
    fastsrm_fit(manifest, atlas, k=3, n_iter=n_iter)
    assert len(reads) == n * m * (2 * n_iter + 1)
    assert all(rows is None for _, _, rows in reads)  # whole reduced runs


def test_config_validation(make_dataset):
    manifest, _ = make_dataset(v=40, k=4)
    atlas = balanced_partition(40, 8, seed=0)
    with pytest.raises(ValueError, match="k must"):
        fastsrm_fit(manifest, atlas, k=0)
    with pytest.raises(ValueError, match="n_iter must"):
        fastsrm_fit(manifest, atlas, k=2, n_iter=0)


@pytest.mark.parametrize("algorithm", ["detsrm", "probsrm", "fastsrm"])
def test_every_fit_rejects_zero_n_jobs(make_dataset, monkeypatch, algorithm):
    manifest, _ = make_dataset(n=2, m=2, v=30, k=3, sigma=0.2, seed=18)
    data = manifest.load_all()
    atlas = balanced_partition(30, 9, seed=2)
    loads = []
    real_load = dataio.load_matrix

    def counting_load(*args, **kwargs):
        loads.append(args)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(dataio, "load_matrix", counting_load)
    direct = {
        "detsrm": lambda: detsrm_fit(data, k=3, n_jobs=0),
        "probsrm": lambda: probsrm_fit(data, k=3, n_jobs=0),
        "fastsrm": lambda: fastsrm_fit(manifest, atlas, k=3, n_jobs=0),
    }[algorithm]
    for call in (lambda: fit(manifest, algorithm, k=3, atlas=atlas, n_jobs=0), direct):
        with pytest.raises(ValueError, match="n_jobs must be at least 1"):
            call()
    assert loads == []  # rejected before any run is read


def test_recover_components_validates_shared(make_dataset):
    manifest, _ = make_dataset(n=2, m=2, t_list=(20, 25), v=30, k=3, sigma=0.2, seed=19)
    good = [np.ones((20, 3)), np.ones((25, 3))]
    with pytest.raises(ValueError, match="1 shared runs"):
        recover_components(manifest, good[:1])
    with pytest.raises(ValueError, match=r"run 1: .*\(25, 2\), expected \(25, 3\)"):
        recover_components(manifest, [good[0], np.ones((25, 2))])
    with pytest.raises(ValueError, match=r"run 0: .*\(19, 3\), expected \(20, 3\)"):
        recover_components(manifest, [np.ones((19, 3)), good[1]])
    with pytest.raises(ValueError, match="run 1: .*non-finite"):
        recover_components(manifest, [good[0], np.full((25, 3), np.nan)])


def test_non_finite_run_is_named_by_subject_run_and_file(make_dataset):
    manifest, _ = make_dataset(n=3, m=2, t_list=(20, 25), v=40, k=3, sigma=0.2, seed=43)
    path = manifest.runs[1][1]
    x = dataio.load_matrix(path)
    x[3, 5] = np.inf
    with open(path, "wb") as f:  # by hand, since save_matrix refuses non-finite values
        f.write(struct.pack("<4sIBQQ", dataio.MAGIC, dataio.VERSION, 0, *x.shape))
        x.astype("<f8").tofile(f)
    atlas = balanced_partition(40, 8, seed=4)
    named = rf"subject 1, run 1: {re.escape(str(path))}: non-finite values"
    with pytest.raises(RuntimeError, match=named):
        fastsrm_fit(manifest, atlas, k=3, n_iter=2)
    with pytest.raises(RuntimeError, match="left-out run 0 failed: .*" + named):
        cosmoothing(manifest, "fastsrm", k=3, atlas=atlas, n_iter=2)


def test_n_jobs_bit_identical(make_dataset, tmp_path):
    manifest, _ = make_dataset(n=4, m=3, t_list=(20, 25, 15), v=50, k=3, sigma=0.4, seed=5)
    atlas = balanced_partition(50, 10, seed=1)
    out = {}
    for jobs in (1, 4):
        cfg = dict(
            k=3, n_iter=5, n_jobs=jobs, seed=2, component_dir=tmp_path / f"spill{jobs}"
        )
        out[jobs] = fastsrm_fit(manifest, atlas, **cfg)
    for i in range(4):
        a = out[1].spatial_component(i)
        b = out[4].spatial_component(i)
        assert np.array_equal(a, b)
    # the on-disk component files themselves are byte-identical
    for i in range(4):
        assert out[1].spatial[i].read_bytes() == out[4].spatial[i].read_bytes()
    assert out[1].trace == out[4].trace


def test_components_spill_to_disk_atomically(make_dataset, tmp_path):
    manifest, _ = make_dataset(n=2, m=2, v=30, k=3, sigma=0.2, seed=6)
    atlas = balanced_partition(30, 9, seed=2)
    cfg = dict(k=3, n_iter=3, seed=0, component_dir=tmp_path / "spill")
    model = fastsrm_fit(manifest, atlas, **cfg)
    for i in range(2):
        assert model.is_on_disk(i)
        assert model.spatial[i].exists()
    leftovers = list((tmp_path / "spill").rglob("*.tmp")) + list(tmp_path.glob("spill.*"))
    assert leftovers == []
    # the spill directory is itself a loadable model directory
    back = SrmModel.load(model.spatial[0].parent)
    for i in range(2):
        assert np.array_equal(back.spatial_component(i), model.spatial_component(i))


def test_inmemory_components(make_dataset):
    manifest, _ = make_dataset(n=2, m=2, v=30, k=3, sigma=0.2, seed=6)
    atlas = balanced_partition(30, 9, seed=2)
    cfg = dict(k=3, n_iter=3, seed=0)
    model = fastsrm_fit(manifest, atlas, **cfg)
    assert not model.is_on_disk(0)
    w = model.spatial_component(0)
    assert np.max(np.abs(w @ w.T - np.eye(3))) <= 1e-8


def test_recovery_is_scale_invariant(make_dataset, tmp_path):
    manifest, _ = make_dataset(n=3, m=2, t_list=(25, 30), v=60, k=4, sigma=0.8, seed=8)
    atlas = balanced_partition(60, 12, seed=4)
    cfg = dict(k=4, n_iter=5, seed=1)
    model = fastsrm_fit(manifest, atlas, **cfg)
    base = recover_components(manifest, model.reduced_shared)
    for f in (1e-3, 3.7, 1e3):
        scaled = recover_components(manifest, [f * s for s in model.reduced_shared])
        for w_b, w_s in zip(base, scaled):
            assert np.max(np.abs(w_b - w_s)) <= 1e-8


def test_planted_recovery_with_compression(make_dataset):
    manifest, truth = make_dataset(n=4, m=2, t_list=(60, 60), v=400, k=5, sigma=0.0, seed=9)
    atlas = balanced_partition(400, 20, seed=5)  # c = 4k
    cfg = dict(k=5, n_iter=20, seed=3)
    model = fastsrm_fit(manifest, atlas, **cfg)
    for i in range(4):
        assert subspace_error(model.spatial_component(i), truth.spatial[i]) <= 1e-3


def test_transform_identity_basis(make_dataset):
    manifest, _ = make_dataset(n=1, m=2, v=4, k=4, t_list=(10, 12), sigma=0.3, seed=10)
    model = SrmModel([np.eye(4)])
    x = manifest.load_run(0, 0)
    assert np.allclose(update_shared([x], [model.spatial_component(0)]), x, atol=1e-12)


def test_transform_symmetric_subjects():
    w = random_orthonormal_rows(3, 12, seed=11)
    x = np.random.default_rng(12).standard_normal((8, 12))
    model = SrmModel([w, w])
    out1 = update_shared([x], [model.spatial_component(0)])
    out2 = update_shared([x], [model.spatial_component(1)])
    assert np.array_equal(out1, out2)


def test_transform_validation():
    # An unknown subject is the CLI's to reject: test_transform_bad_subjects_are_argument_errors.
    w = random_orthonormal_rows(2, 10, seed=13)
    x = np.zeros((5, 10))
    for runs, spatial in (([x, x], [w]), ([x], [w, w])):
        with pytest.raises(ValueError, match="differ in count"):
            update_shared(runs, spatial)
        with pytest.raises(ValueError, match="differ in count"):
            update_shared(iter(runs), iter(spatial))
    with pytest.raises(ValueError, match="shape"):
        update_shared([np.zeros((5, 9))], [w])
    with pytest.raises(ValueError, match="at least one subject"):
        update_shared(iter([]), iter([]))


def test_transform_matches_planted_product(make_dataset):
    # On noiseless data the refit model's reconstruction S W_i must
    # reproduce the data, even though the reduced-space shared response is
    # arbitrarily scaled.
    manifest, truth = make_dataset(n=3, m=2, t_list=(40, 35), v=80, k=4, sigma=0.0, seed=14)
    atlas = balanced_partition(80, 16, seed=6)
    cfg = dict(k=4, n_iter=15, seed=4)
    model = fastsrm_fit(manifest, atlas, **cfg)
    shared = update_shared((manifest.load_run(i, 0) for i in range(3)),
                           (model.spatial_component(i) for i in range(3)))
    for i in range(3):
        pred = shared @ model.spatial_component(i)
        x = manifest.load_run(i, 0)
        assert np.linalg.norm(pred - x) / np.linalg.norm(x) <= 1e-6


def test_worker_failure_names_subject_and_run(make_dataset, tmp_path):
    manifest, _ = make_dataset(n=2, m=2, v=30, k=3, sigma=0.1, seed=15)
    # corrupt one run file
    target = manifest.runs[1][0]
    raw = bytearray(target.read_bytes())
    raw[:4] = b"XXXX"
    target.write_bytes(bytes(raw))
    atlas = balanced_partition(30, 6, seed=7)
    with pytest.raises(RuntimeError, match=r"subject 1, run 0") as info:
        fastsrm_fit(manifest, atlas, k=3, n_iter=2, seed=0)
    assert str(info.value).count("subject 1, run 0") == 1
    assert str(target) in str(info.value)


def _small_blocks(monkeypatch, rows, v):
    """Make fastsrm stream ``rows``-row blocks of v-voxel runs."""
    monkeypatch.setattr(dataio, "BLOCK_BYTES", rows * 8 * v)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["partition", "probabilistic", "sparse"])
def test_streamed_reduction_matches_whole_runs(make_dataset, monkeypatch, tmp_path, kind, dtype):
    # 7-row blocks over runs of 30 and 25 rows: neither is a multiple of the block.
    # Partition projection is row-local, so blocks give the same bytes. The
    # products of a probabilistic atlas go through BLAS, whose summation
    # order for a row can depend on how many rows it is given (edge tiles,
    # threads), so blocks agree with whole runs to rounding only. Sparse
    # weights need at least 64 parcels, so that case has 2,000 voxels.
    v = 2_000 if kind == "sparse" else 60
    manifest, _ = make_dataset(n=2, m=2, t_list=(30, 25), v=v, k=3, sigma=0.3, seed=31,
                               dtype=dtype)
    if kind == "partition":
        atlas = balanced_partition(60, 6, seed=3)
    elif kind == "probabilistic":
        atlas = Atlas.probabilistic(np.random.default_rng(32).uniform(0.0, 1.0, size=(6, 60)))
    else:  # one weight per voxel, and a second on half of them: 1.5% of 100 x 2,000
        atlas = Atlas.probabilistic(sparse_weights(100, v, seed=32, second=0.5))
        assert sparse.issparse(atlas.weights)
    _small_blocks(monkeypatch, 7, v)
    calls = []
    project = fastsrm.project_run

    def counting(x, a):
        calls.append(len(x))
        return project(x, a)

    monkeypatch.setattr(fastsrm, "project_run", counting)
    reduced = reduce_dataset(manifest, atlas, tmp_path)
    assert sorted(set(calls)) == [2, 4, 7]  # 7-row blocks; 30 and 25 rows leave 2 and 4
    for i in range(2):
        for s in range(2):
            whole = project(manifest.load_run(i, s), atlas).astype(np.float64, copy=False)
            streamed = reduced.load_run(i, s)
            assert streamed.dtype == np.float64
            if kind == "partition":
                assert streamed.tobytes() == whole.tobytes()
            else:
                assert np.max(np.abs(streamed - whole)) <= 1e-12 * np.max(np.abs(whole))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_streamed_recovery_matches_in_memory_step(make_dataset, monkeypatch, dtype):
    manifest, _ = make_dataset(n=3, m=2, t_list=(30, 25), v=60, k=3, sigma=0.3, seed=33,
                               dtype=dtype)
    rng = np.random.default_rng(34)
    shared = [rng.standard_normal((t, 3)) for t in manifest.t_per_run]
    _small_blocks(monkeypatch, 7, 60)  # 14-column tiles of the 30-row run, 16 of the 25-row one
    streamed = recover_components(manifest, shared)
    for i, runs in enumerate(manifest.load_all()):
        ((whole, _),) = _fold_steps([shared], lambda s: _col_tiles(runs[s]), 60)
        assert np.linalg.norm(streamed[i] - whole) <= 1e-12 * np.linalg.norm(whole)


def test_float32_recovery_holds_less_than_one_float64_run(make_dataset, monkeypatch):
    # Each float32 block is read and upcast on its own: neither the run nor
    # a float64 copy of it is ever whole in memory.
    import tracemalloc

    t, v = 200, 2000
    manifest, _ = make_dataset(n=1, m=1, t_list=(t,), v=v, k=3, sigma=0.3, seed=35,
                               dtype=np.float32)
    shared = [np.random.default_rng(36).standard_normal((t, 3))]
    _small_blocks(monkeypatch, 25, v)
    run_bytes = t * v * 8
    tracemalloc.start()
    try:
        recover_components(manifest, shared)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < run_bytes, f"peak {peak / run_bytes:.2f} float64 runs"


def test_streamed_subject_step_holds_one_tile(make_dataset, monkeypatch):
    # Recovery reads a run in whole-run tiles, each overwriting the last:
    # over a run of 8 tiles (256 columns of v=2,000) the peak is one tile,
    # the k x v accumulator, the stacked k x t shared response and a k x
    # tile scratch, never a row block.
    import tracemalloc

    t, v, k, tile = 200, 2000, 3, 256
    monkeypatch.setattr(dataio, "TILE_COLS", tile)
    manifest, _ = make_dataset(n=1, m=1, t_list=(t,), v=v, k=k, sigma=0.3, seed=39)
    shared = [np.random.default_rng(40).standard_normal((t, k))]
    one_tile, buffers = t * tile * 8, k * v * 8 + k * t * 8 + k * tile * 8
    tracemalloc.start()
    try:
        next(_fold_steps([shared], lambda s: manifest.run_tiles(0, s), v))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * one_tile + buffers, f"peak {(peak - buffers) / one_tile:.2f} tiles"


def test_run_truncated_during_recovery_names_it_and_leaves_nothing(make_dataset, monkeypatch,
                                                                    spill_root, tmp_path):
    # A run cut short between two of its tiles fails the fit with the
    # subject, run and file named; no model directory and no spill is left.
    manifest, _ = make_dataset(n=2, m=2, t_list=(20, 20), v=60, k=3, sigma=0.3, seed=42)
    monkeypatch.setattr(dataio, "TILE_COLS", 16)
    target = manifest.runs[1][1]
    run_tiles = dataio.DatasetManifest.run_tiles

    def truncating(self, subject, run):
        for n, tile in enumerate(run_tiles(self, subject, run)):
            if (subject, run, n) == (1, 1, 1):
                target.write_bytes(target.read_bytes()[:-8 * 60])  # the last row goes
            yield tile

    monkeypatch.setattr(dataio.DatasetManifest, "run_tiles", truncating)
    out = tmp_path / "model"
    with pytest.raises(RuntimeError, match="subject 1, run 1") as info:
        fastsrm_fit(manifest, balanced_partition(60, 10, seed=4), k=3, n_iter=2,
                    component_dir=out)
    assert str(target) in str(info.value)
    assert "short read" in str(info.value)
    assert not out.exists() and list(tmp_path.glob("model*")) == []
    assert _spill_dirs(spill_root) == []


def test_fit_spills_reduced_runs_and_removes_them(make_dataset, monkeypatch, spill_root):
    manifest, _ = make_dataset(n=3, m=2, v=40, k=3, sigma=0.2, seed=41)
    atlas = balanced_partition(40, 8, seed=4)
    seen = []
    reduced_fit = fastsrm.detsrm_fit

    def listing_fit(*args, **kwargs):
        seen.extend(f.name for d in spill_root.glob("srmkit-*") for f in d.iterdir())
        return reduced_fit(*args, **kwargs)

    monkeypatch.setattr(fastsrm, "detsrm_fit", listing_fit)
    fastsrm_fit(manifest, atlas, k=3, n_iter=2)
    assert sorted(seen) == [fastsrm.REDUCED_FILE.format(i, s) for i in range(3) for s in range(2)]
    assert _spill_dirs(spill_root) == []


def test_failed_fit_removes_its_spill(make_dataset, monkeypatch, spill_root):
    manifest, _ = make_dataset(n=3, m=2, v=40, k=3, sigma=0.2, seed=42)
    atlas = balanced_partition(40, 8, seed=4)
    # dies in the reduced fit, with every reduced run on disk
    spilled = []

    def failing_fit(*args, **kwargs):
        spilled.extend(_spill_dirs(spill_root))
        raise FloatingPointError("reduced fit failed")

    with monkeypatch.context() as patch:
        patch.setattr(fastsrm, "detsrm_fit", failing_fit)
        with pytest.raises(FloatingPointError):
            fastsrm_fit(manifest, atlas, k=3, n_iter=2)
    assert len(spilled) == 1
    assert _spill_dirs(spill_root) == []
    # dies mid-reduction: subject 0's runs are written before subject 2's is found truncated
    target = manifest.runs[2][1]
    target.write_bytes(target.read_bytes()[:-8])
    with pytest.raises(RuntimeError, match="subject 2, run 1"):
        fastsrm_fit(manifest, atlas, k=3, n_iter=2)
    assert _spill_dirs(spill_root) == []


def test_fit_peak_is_flat_in_subject_count(make_dataset, tmp_path):
    # The reduced data grows by n*T*c*8 bytes (450 KiB from n=4 to n=16);
    # spilled to disk, it adds less than a tenth of that to the peak.
    import tracemalloc

    atlas = balanced_partition(400, 40, seed=7)
    peaks = {}
    for n in (4, 16):
        manifest, _ = make_dataset(n=n, m=2, t_list=(60, 60), v=400, k=3, sigma=0.3, seed=43)
        tracemalloc.start()
        try:
            fastsrm_fit(manifest, atlas, k=3, n_iter=3, component_dir=tmp_path / f"model{n}")
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    reduced_growth = (16 - 4) * 120 * 40 * 8
    assert peaks[16] - peaks[4] < 0.1 * reduced_growth, (
        f"peak grew {(peaks[16] - peaks[4]) / 1024:.0f} KiB, reduced data "
        f"{reduced_growth / 1024:.0f} KiB")


def test_run_truncated_between_passes_names_it(make_dataset, monkeypatch, tmp_path):
    manifest, _ = make_dataset(n=2, m=2, v=30, k=3, sigma=0.2, seed=37)
    atlas = balanced_partition(30, 9, seed=2)
    target = manifest.runs[1][1]
    reduced_fit = fastsrm.detsrm_fit

    def fit_then_truncate(*args, **kwargs):
        out = reduced_fit(*args, **kwargs)
        target.write_bytes(target.read_bytes()[:-8])
        return out

    monkeypatch.setattr(fastsrm, "detsrm_fit", fit_then_truncate)
    out = tmp_path / "model"
    with pytest.raises(RuntimeError, match="subject 1, run 1") as info:
        fastsrm_fit(manifest, atlas, k=3, n_iter=2, component_dir=out)
    assert str(target) in str(info.value)
    assert isinstance(info.value.__cause__, FormatError)
    assert not out.exists()  # recovery wrote into a staging sibling, now removed
    assert list(tmp_path.glob("model*")) == []


def test_unusable_component_dir_fails_before_any_read(make_dataset, monkeypatch, tmp_path):
    manifest, _ = make_dataset(n=2, m=2, v=30, k=3, sigma=0.2, seed=38)
    atlas = balanced_partition(30, 9, seed=2)
    blocker = tmp_path / "file"
    blocker.write_text("")
    loads = []
    real_load = dataio.load_matrix

    def counting_load(*args, **kwargs):
        loads.append(args)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(dataio, "load_matrix", counting_load)
    with pytest.raises(OSError):
        fastsrm_fit(manifest, atlas, k=3, n_iter=2, component_dir=blocker / "model")
    assert loads == []
