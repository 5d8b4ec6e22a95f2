import numpy as np
import pytest

from srmkit import (
    Atlas,
    FastSrmConfig,
    balanced_partition,
    detsrm_fit,
    fastsrm_fit,
    fastsrm_transform,
    recover_components,
    subspace_error,
)
from srmkit.srm import SrmModel

from conftest import random_orthonormal_rows


def test_identity_compression_matches_full_fit(make_dataset, tmp_path):
    # Singleton parcels make projection the identity, so the compressed
    # pipeline must reproduce the plain fit bit-for-bit given the same seed.
    manifest, _ = make_dataset(n=3, m=2, t_list=(30, 25), v=40, k=4, sigma=0.5, seed=3)
    atlas = Atlas.partition(np.arange(40))
    cfg = FastSrmConfig(k=4, n_iter=6, seed=9, component_dir=tmp_path / "spill")
    fast = fastsrm_fit(manifest, atlas, cfg)
    full, _ = detsrm_fit(manifest.load_all(), k=4, n_iter=6, seed=9)
    rel = abs(fast.trace[-1] - full.trace[-1]) / full.trace[-1]
    assert rel <= 1e-8
    for i in range(3):
        assert np.max(np.abs(fast.spatial_component(i) - full.spatial_component(i))) <= 1e-8


def test_k_must_be_below_parcel_count(make_dataset):
    manifest, _ = make_dataset(v=40, k=4)
    atlas = balanced_partition(40, 4, seed=0)
    with pytest.raises(ValueError, match="parcel count"):
        fastsrm_fit(manifest, atlas, FastSrmConfig(k=4, n_iter=2))


def test_atlas_dataset_mismatch(make_dataset):
    manifest, _ = make_dataset(v=40, k=4)
    atlas = balanced_partition(39, 8, seed=0)
    with pytest.raises(ValueError, match="voxels"):
        fastsrm_fit(manifest, atlas, FastSrmConfig(k=4, n_iter=2))


def test_config_validation():
    with pytest.raises(ValueError):
        FastSrmConfig(k=0)
    with pytest.raises(ValueError):
        FastSrmConfig(k=2, n_jobs=0)


def test_n_jobs_bit_identical(make_dataset, tmp_path):
    manifest, _ = make_dataset(n=4, m=3, t_list=(20, 25, 15), v=50, k=3, sigma=0.4, seed=5)
    atlas = balanced_partition(50, 10, seed=1)
    out = {}
    for jobs in (1, 4):
        cfg = FastSrmConfig(
            k=3, n_iter=5, n_jobs=jobs, seed=2, component_dir=tmp_path / f"spill{jobs}"
        )
        out[jobs] = fastsrm_fit(manifest, atlas, cfg)
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
    cfg = FastSrmConfig(k=3, n_iter=3, seed=0, component_dir=tmp_path / "spill")
    model = fastsrm_fit(manifest, atlas, cfg)
    for i in range(2):
        assert model.is_on_disk(i)
        assert model.spatial[i].exists()
    leftovers = list((tmp_path / "spill").rglob("*.tmp"))
    assert leftovers == []
    # the spill directory is itself a loadable model directory
    back = SrmModel.load(model.spatial[0].parent, keep_on_disk=False)
    assert np.array_equal(back.spatial_component(1), model.spatial_component(1))


def test_inmemory_components(make_dataset):
    manifest, _ = make_dataset(n=2, m=2, v=30, k=3, sigma=0.2, seed=6)
    atlas = balanced_partition(30, 9, seed=2)
    cfg = FastSrmConfig(k=3, n_iter=3, seed=0)
    model = fastsrm_fit(manifest, atlas, cfg)
    assert not model.is_on_disk(0)
    w = model.spatial_component(0)
    assert np.max(np.abs(w @ w.T - np.eye(3))) <= 1e-8


def test_recovery_is_scale_invariant(make_dataset, tmp_path):
    manifest, _ = make_dataset(n=3, m=2, t_list=(25, 30), v=60, k=4, sigma=0.8, seed=8)
    atlas = balanced_partition(60, 12, seed=4)
    cfg = FastSrmConfig(k=4, n_iter=5, seed=1)
    model = fastsrm_fit(manifest, atlas, cfg)
    base = recover_components(manifest, model.reduced_shared)
    for f in (1e-3, 3.7, 1e3):
        scaled = recover_components(manifest, [f * s for s in model.reduced_shared.runs])
        for w_b, w_s in zip(base, scaled):
            assert np.max(np.abs(w_b - w_s)) <= 1e-8


def test_planted_recovery_with_compression(make_dataset):
    manifest, truth = make_dataset(n=4, m=2, t_list=(60, 60), v=400, k=5, sigma=0.0, seed=9)
    atlas = balanced_partition(400, 20, seed=5)  # c = 4k
    cfg = FastSrmConfig(k=5, n_iter=20, seed=3)
    model = fastsrm_fit(manifest, atlas, cfg)
    for i in range(4):
        assert subspace_error(model.spatial_component(i), truth.spatial[i]) <= 1e-3


def test_transform_identity_basis(make_dataset):
    manifest, _ = make_dataset(n=1, m=2, v=4, k=4, t_list=(10, 12), sigma=0.3, seed=10)
    model = SrmModel([np.eye(4)])
    x = manifest.load_run(0, 0)
    assert np.allclose(fastsrm_transform(model, [x], [0]), x, atol=1e-12)


def test_transform_symmetric_subjects():
    w = random_orthonormal_rows(3, 12, seed=11)
    x = np.random.default_rng(12).standard_normal((8, 12))
    model = SrmModel([w, w])
    out1 = fastsrm_transform(model, [x], [0])
    out2 = fastsrm_transform(model, [x], [1])
    assert np.array_equal(out1, out2)


def test_transform_validation():
    model = SrmModel([random_orthonormal_rows(2, 10, seed=13)])
    x = np.zeros((5, 10))
    with pytest.raises(ValueError, match="unknown subject"):
        fastsrm_transform(model, [x], [3])
    with pytest.raises(ValueError, match="runs"):
        fastsrm_transform(model, [x, x], [0])
    with pytest.raises(ValueError, match="shape"):
        fastsrm_transform(model, [np.zeros((5, 9))], [0])


def test_transform_matches_planted_product(make_dataset):
    # On noiseless data the refit model's reconstruction S W_i must
    # reproduce the data, even though the reduced-space shared response is
    # arbitrarily scaled.
    manifest, truth = make_dataset(n=3, m=2, t_list=(40, 35), v=80, k=4, sigma=0.0, seed=14)
    atlas = balanced_partition(80, 16, seed=6)
    cfg = FastSrmConfig(k=4, n_iter=15, seed=4)
    model = fastsrm_fit(manifest, atlas, cfg)
    runs = [manifest.load_run(i, 0) for i in range(3)]
    shared = fastsrm_transform(model, runs)
    for i in range(3):
        pred = shared @ model.spatial_component(i)
        rel = np.linalg.norm(pred - runs[i]) / np.linalg.norm(runs[i])
        assert rel <= 1e-6


def test_worker_failure_names_subject_and_run(make_dataset, tmp_path):
    manifest, _ = make_dataset(n=2, m=2, v=30, k=3, sigma=0.1, seed=15)
    # corrupt one run file
    target = manifest.runs[1][0]
    raw = bytearray(target.read_bytes())
    raw[:4] = b"XXXX"
    target.write_bytes(bytes(raw))
    atlas = balanced_partition(30, 6, seed=7)
    with pytest.raises(RuntimeError, match=r"subject 1, run 0") as info:
        fastsrm_fit(manifest, atlas, FastSrmConfig(k=3, n_iter=2, seed=0))
    assert str(info.value).count("subject 1, run 0") == 1
    assert str(target) in str(info.value)
