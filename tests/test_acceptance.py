"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with -s; the -v test names mirror the criteria).

Criteria 1-3 share a desk-scale planted dataset (10 subjects, 5 runs of 200
timeframes, 50000 voxels, 20 components, unit noise, 200-parcel atlas);
everything else runs at small scale. Oracles here depend only on numpy.
"""

import shutil
import time

import numpy as np
import pytest

from srmkit import (
    Atlas,
    balanced_partition,
    cosmoothing,
    detsrm_fit,
    fastsrm_fit,
    FastSrmConfig,
    generate,
    mean_within,
    probsrm_fit,
    procrustes_update,
    r2_score,
    recover_components,
    roi_mask,
    subspace_error,
)
from srmkit.bench import run_bench

DESK = dict(n=10, m=5, t=200, v=50_000, k=20, c=200, sigma=1.0)
DESK_SEED = 20260810


def check(num, name, ok, detail):
    print(f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    manifest, truth = generate(
        n=DESK["n"],
        m=DESK["m"],
        t_list=[DESK["t"]] * DESK["m"],
        v=DESK["v"],
        k=DESK["k"],
        sigma_list=DESK["sigma"],
        seed=DESK_SEED,
        out_dir=root / "data",
    )
    atlas = balanced_partition(DESK["v"], DESK["c"], seed=7)
    yield manifest, truth, atlas, root
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(scope="session")
def desk_bench(desk):
    manifest, _, atlas, root = desk
    fast = run_bench(
        manifest, "fastsrm", k=DESK["k"], atlas=atlas, n_iter=10, seed=0,
    )
    det = run_bench(manifest, "detsrm", k=DESK["k"], n_iter=10, seed=0)
    return fast, det


@pytest.fixture
def small_planted(tmp_path):
    def _make(name, **kw):
        args = dict(n=4, m=2, t_list=[40, 35], v=120, k=4, sigma_list=0.3, seed=5)
        args.update(kw)
        return generate(out_dir=tmp_path / name, **args)

    return _make


def _parity_gap(det, fast, threshold):
    """Mean-ROI-score difference; each algorithm's ROI comes from its own map."""
    means = {}
    for name, result in (("detsrm", det), ("fastsrm", fast)):
        mean_map = result.mean_map()
        mask = roi_mask([mean_map], threshold=threshold)
        assert mask.any(), f"{name}: empty region of interest at threshold {threshold}"
        means[name] = mean_within(mask, mean_map)
    return means, abs(means["fastsrm"] - means["detsrm"])


def test_criterion_01_reconstruction_parity(desk, tmp_path):
    manifest, _, atlas, root = desk
    start = time.perf_counter()
    det = cosmoothing(manifest, "detsrm", k=DESK["k"], n_iter=10, seed=0)
    fast = cosmoothing(
        manifest, "fastsrm", k=DESK["k"], atlas=atlas, n_iter=10, seed=0,
    )
    # With unit noise spread over 50000 voxels the planted per-voxel signal
    # fraction is ~0.4%, below what leave-one-out reconstruction can beat, so
    # no positive-score region exists at this size and the parity region is
    # the whole voxel set (own-map thresholding would empty it).
    desk_means, desk_diff = _parity_gap(det, fast, threshold=-np.inf)

    # Same protocol in a regime with an informative region: fewer voxels give
    # a per-voxel signal fraction ~30%, and the reference 0.05 cut applies.
    manifest2, _ = generate(
        n=10, m=3, t_list=[100] * 3, v=2000, k=20, sigma_list=0.5,
        seed=DESK_SEED + 1, out_dir=tmp_path / "parity-small",
    )
    atlas2 = balanced_partition(2000, 200, seed=8)
    det2 = cosmoothing(manifest2, "detsrm", k=20, n_iter=10, seed=0)
    fast2 = cosmoothing(
        manifest2, "fastsrm", k=20, atlas=atlas2, n_iter=10, seed=0,
    )
    roi_means, roi_diff = _parity_gap(det2, fast2, threshold=0.05)
    elapsed = time.perf_counter() - start
    check(
        1,
        "reconstruction parity",
        desk_diff <= 0.02 and roi_diff <= 0.02 and elapsed <= 900.0,
        f"desk scale: detsrm={desk_means['detsrm']:.4f} "
        f"fastsrm={desk_means['fastsrm']:.4f} |diff|={desk_diff:.4f}; "
        f"informative-SNR ROI(0.05): detsrm={roi_means['detsrm']:.4f} "
        f"fastsrm={roi_means['fastsrm']:.4f} |diff|={roi_diff:.4f}; "
        f"runtime {elapsed:.0f}s <= 900s",
    )


def test_criterion_02_speed_direction(desk_bench):
    fast, det = desk_bench
    ratio = fast["wall_time_s"] / det["wall_time_s"]
    check(
        2,
        "speed direction",
        ratio <= 0.5 and fast["wall_time_s"] <= 300 and det["wall_time_s"] <= 300,
        f"fastsrm {fast['wall_time_s']:.1f}s vs detsrm {det['wall_time_s']:.1f}s, "
        f"ratio {ratio:.3f} <= 0.5",
    )


def test_criterion_03_memory_direction(desk_bench):
    fast, det = desk_bench
    ratio = fast["peak_mem_bytes"] / det["peak_mem_bytes"]
    check(
        3,
        "memory direction",
        ratio <= 0.25,
        f"fastsrm {fast['peak_mem_bytes']/1e9:.2f}GB vs detsrm "
        f"{det['peak_mem_bytes']/1e9:.2f}GB, ratio {ratio:.3f} <= 0.25",
    )


def test_criterion_04_orthonormality_matrix(tmp_path):
    worst = 0.0
    cases = 0
    for dtype in (np.float64, np.float32):
        for k in (2, 10, 50):
            manifest, _ = generate(
                n=3, m=2, t_list=[40, 30], v=80, k=k, sigma_list=0.5,
                seed=100 + k, out_dir=tmp_path / f"d{np.dtype(dtype).str[1:]}k{k}",
                dtype=dtype,
            )
            data = manifest.load_all()
            atlas = balanced_partition(80, 60, seed=1)
            fits = [
                detsrm_fit(data, k, n_iter=4, seed=3)[0],
                probsrm_fit(data, k, n_iter=4, seed=3)[0],
                fastsrm_fit(
                    manifest, atlas,
                    FastSrmConfig(k=k, n_iter=4, seed=3),
                ),
            ]
            for model in fits:
                for i in range(model.n):
                    w = model.spatial_component(i)
                    dev = float(np.max(np.abs(w @ w.T - np.eye(k))))
                    worst = max(worst, dev)
                    cases += 1
    check(
        4,
        "orthonormality",
        worst <= 1e-8,
        f"max |W W^T - I| = {worst:.2e} over {cases} fitted component sets "
        "(k in {2,10,50}, f32/f64, all three algorithms)",
    )


def test_criterion_05_fit_trace_monotonicity():
    start = time.perf_counter()
    worst_det = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        data = [[rng.standard_normal((30, 40)) for _ in range(2)] for _ in range(3)]
        model, _ = detsrm_fit(data, k=5, n_iter=10, seed=seed)
        trace = np.array(model.trace)
        worst_det = max(worst_det, float(np.max(np.diff(trace) / trace[0])))
    worst_prob = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        data = [[rng.standard_normal((30, 40)) for _ in range(2)] for _ in range(3)]
        model, _ = probsrm_fit(data, k=5, n_iter=10, seed=seed)
        trace = np.array(model.trace)
        worst_prob = max(
            worst_prob, float(np.max(-np.diff(trace) / np.abs(trace[:-1])))
        )
    elapsed = time.perf_counter() - start
    check(
        5,
        "fit trace monotonicity",
        worst_det <= 1e-12 and worst_prob <= 1e-6 and elapsed <= 120,
        f"worst detsrm objective increase {worst_det:.2e} (<=1e-12 rel), worst "
        f"probsrm loglik decrease {worst_prob:.2e} (<=1e-6 rel), 20 seeds each, "
        f"{elapsed:.0f}s",
    )


def euler_rotations(a, b, g):
    """Batch of Rz(a) @ Ry(b) @ Rz(g) matrices for angle grids."""
    ca, sa = np.cos(a), np.sin(a)
    cb, sb = np.cos(b), np.sin(b)
    cg, sg = np.cos(g), np.sin(g)
    r = np.empty(a.shape + (3, 3))
    r[..., 0, 0] = ca * cb * cg - sa * sg
    r[..., 0, 1] = -ca * cb * sg - sa * cg
    r[..., 0, 2] = ca * sb
    r[..., 1, 0] = sa * cb * cg + ca * sg
    r[..., 1, 1] = -sa * cb * sg + ca * cg
    r[..., 1, 2] = sa * sb
    r[..., 2, 0] = -sb * cg
    r[..., 2, 1] = sb * sg
    r[..., 2, 2] = cb
    return r


def best_o3_on_grid(m, coarse=0.08, fine=0.002):
    """Coarse-to-fine grid maximizer of tr(W^T m) over 3x3 orthogonal W."""
    flip = np.diag([1.0, 1.0, -1.0])

    def score_grid(a, b, g, reflect):
        aa, bb, gg = np.meshgrid(a, b, g, indexing="ij")
        mats = euler_rotations(aa.ravel(), bb.ravel(), gg.ravel())
        if reflect:
            mats = mats @ flip
        scores = np.einsum("nij,ij->n", mats, m)
        idx = int(np.argmax(scores))
        return (
            float(scores[idx]),
            (aa.ravel()[idx], bb.ravel()[idx], gg.ravel()[idx]),
            mats[idx],
        )

    best = None
    for reflect in (False, True):
        a = np.arange(0, 2 * np.pi, coarse)
        b = np.arange(0, np.pi + coarse, coarse)
        g = np.arange(0, 2 * np.pi, coarse)
        score, (a0, b0, g0), _ = score_grid(a, b, g, reflect)
        af = np.arange(a0 - coarse, a0 + coarse, fine)
        bf = np.arange(b0 - coarse, b0 + coarse, fine)
        gf = np.arange(g0 - coarse, g0 + coarse, fine)
        score, _, mat = score_grid(af, bf, gf, reflect)
        if best is None or score > best[0]:
            best = (score, mat)
    return best


def test_criterion_06_procrustes_grid_oracle():
    from test_srm import best_orthogonal_on_grid, rotation_grid_2x2

    start = time.perf_counter()
    rng = np.random.default_rng(42)
    grid2 = rotation_grid_2x2(step=0.001)
    worst_gap = 0.0
    for _ in range(100):
        s = rng.standard_normal((10, 2))
        x = rng.standard_normal((10, 2))
        m = s.T @ x
        w = procrustes_update(m)
        score = float(np.sum(w * m))
        _, grid_score = best_orthogonal_on_grid(m, grid2)
        assert score >= grid_score - 1e-9
        gap = (score - grid_score) / (np.linalg.norm(m) * np.sqrt(2) * 0.001)
        worst_gap = max(worst_gap, gap)
    for _ in range(50):
        s = rng.standard_normal((12, 3))
        x = rng.standard_normal((12, 3))
        m = s.T @ x
        w = procrustes_update(m)
        score = float(np.sum(w * m))
        grid_score, _ = best_o3_on_grid(m)
        assert score >= grid_score - 1e-9
        # nearest fine-grid point is within 1.5*step per angle of the optimum
        gap = (score - grid_score) / (np.linalg.norm(m) * np.sqrt(2) * 3 * 0.002)
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - start
    check(
        6,
        "procrustes grid oracle",
        worst_gap <= 1.0 and elapsed <= 60,
        f"150 instances, worst gap {worst_gap:.3f} grid-resolution units, {elapsed:.0f}s",
    )


def test_criterion_07_scale_invariant_recovery(small_planted):
    manifest, _ = small_planted("scale", sigma_list=0.8)
    atlas = balanced_partition(120, 24, seed=2)
    model = fastsrm_fit(
        manifest, atlas, FastSrmConfig(k=4, n_iter=6, seed=1)
    )
    base = recover_components(manifest, model.reduced_shared)
    worst = 0.0
    for f in (1e-3, 3.7, 1e3):
        scaled = recover_components(manifest, [f * s for s in model.reduced_shared.runs])
        for w_b, w_s in zip(base, scaled):
            worst = max(worst, float(np.max(np.abs(w_b - w_s))))
    check(
        7,
        "scale-invariant recovery",
        worst <= 1e-8,
        f"max component change {worst:.2e} over f in {{1e-3, 3.7, 1e3}}",
    )


def test_criterion_08_partition_projection_equivalence():
    from test_atlas import indicator_average
    from srmkit import project_run

    rng = np.random.default_rng(8)
    worst = 0.0
    for trial in range(50):
        v = int(rng.integers(20, 200))
        c = int(rng.integers(2, max(3, v // 3)))
        labels = rng.integers(0, c, size=v)
        labels[rng.permutation(v)[:c]] = np.arange(c)  # no empty parcel
        part = Atlas.partition(labels)
        indicator = np.zeros((c, v))
        indicator[labels, np.arange(v)] = 1.0
        prob = Atlas.probabilistic(indicator)
        x = rng.standard_normal((15, v))
        fast_path = project_run(x, part)
        matrix_path = project_run(x, prob)
        worst = max(worst, float(np.max(np.abs(fast_path - matrix_path))))
        worst = max(worst, float(np.max(np.abs(fast_path - indicator_average(x, labels, c)))))
    check(
        8,
        "partition/matrix projection equivalence",
        worst <= 1e-10,
        f"50 random partitions, max elementwise gap {worst:.2e} <= 1e-10",
    )


def test_criterion_09_identity_compression(small_planted, tmp_path):
    manifest, _ = small_planted("ident", sigma_list=0.6)
    atlas = Atlas.partition(np.arange(120))
    fast = fastsrm_fit(
        manifest, atlas,
        FastSrmConfig(k=4, n_iter=8, seed=11, component_dir=tmp_path / "spill"),
    )
    full, _ = detsrm_fit(manifest.load_all(), k=4, n_iter=8, seed=11)
    rel = abs(fast.trace[-1] - full.trace[-1]) / abs(
        full.trace[-1]
    )
    trace_gap = float(
        np.max(
            np.abs(np.array(fast.trace) - np.array(full.trace))
            / np.array(full.trace)
        )
    )
    w_gap = max(
        float(np.max(np.abs(fast.spatial_component(i) - full.spatial_component(i))))
        for i in range(4)
    )
    check(
        9,
        "identity compression equivalence",
        rel <= 1e-8 and trace_gap <= 1e-8,
        f"objective rel diff {rel:.2e} <= 1e-8 (whole trace {trace_gap:.2e}), "
        f"component gap {w_gap:.2e}",
    )


def test_criterion_10_noiseless_exact_recovery(small_planted, tmp_path):
    manifest, truth = small_planted("exact", n=4, v=600, k=5, sigma_list=0.0, seed=9)
    data = manifest.load_all()
    det, _ = detsrm_fit(data, k=5, n_iter=50, seed=2)
    det_err = max(
        subspace_error(det.spatial_component(i), truth.spatial[i]) for i in range(4)
    )
    atlas = balanced_partition(600, 10, seed=3)  # c = 2k
    fast = fastsrm_fit(
        manifest, atlas,
        FastSrmConfig(k=5, n_iter=50, seed=2, component_dir=tmp_path / "spill"),
    )
    fast_err = max(
        subspace_error(fast.spatial_component(i), truth.spatial[i]) for i in range(4)
    )
    signal = truth.signal_voxels(0)
    worst_r2 = np.inf
    for algo, atl in (("detsrm", None), ("fastsrm", atlas)):
        result = cosmoothing(
            manifest, algo, k=5, atlas=atl, n_iter=10, seed=0
        )
        worst_r2 = min(worst_r2, float(np.mean(result.mean_map()[signal])))
    check(
        10,
        "noiseless exact recovery",
        det_err <= 1e-6 and fast_err <= 1e-3 and worst_r2 >= 0.999,
        f"subspace error detsrm {det_err:.2e} <= 1e-6, fastsrm {fast_err:.2e} <= 1e-3, "
        f"signal-voxel reconstruction R2 {worst_r2:.6f} >= 0.999",
    )


def test_criterion_11_r2_definition():
    hand = r2_score([0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 2.0, 3.0])
    anchors = (
        hand == 1.0 - 14.0 / 5.0
        and abs(hand - (-1.8)) < 1e-15
        and r2_score([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == 1.0
        and r2_score([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0
    )
    check(
        11,
        "R2 definition",
        anchors,
        f"hand example {hand!r} (= 1 - 14/5), perfect prediction = 1, mean prediction = 0",
    )


def test_criterion_12_determinism_across_n_jobs(small_planted, tmp_path):
    manifest, _ = small_planted("det12", sigma_list=0.7, seed=13)
    data = manifest.load_all()
    atlas = balanced_partition(120, 24, seed=4)
    identical = True
    detail = []

    det = [detsrm_fit(data, 4, n_iter=5, seed=6, n_jobs=j) for j in (1, 4)]
    identical &= all(
        np.array_equal(det[0][0].spatial_component(i), det[1][0].spatial_component(i))
        for i in range(4)
    ) and det[0][0].trace == det[1][0].trace
    detail.append("detsrm")

    prob = [probsrm_fit(data, 4, n_iter=5, seed=6, n_jobs=j) for j in (1, 4)]
    identical &= all(
        np.array_equal(prob[0][0].spatial_component(i), prob[1][0].spatial_component(i))
        for i in range(4)
    ) and prob[0][0].trace == prob[1][0].trace
    detail.append("probsrm")

    fast = [
        fastsrm_fit(
            manifest, atlas,
            FastSrmConfig(k=4, n_iter=5, seed=6, n_jobs=j, component_dir=tmp_path / f"sp{j}"),
        )
        for j in (1, 4)
    ]
    identical &= all(
        fast[0].spatial[i].read_bytes() == fast[1].spatial[i].read_bytes()
        for i in range(4)
    )
    detail.append("fastsrm components byte-identical")

    evals = [
        cosmoothing(manifest, "fastsrm", k=4, atlas=atlas, n_iter=4, seed=6, n_jobs=j)
        for j in (1, 4)
    ]
    identical &= all(
        np.array_equal(a.scores, b.scores)
        for a, b in zip(evals[0].folds, evals[1].folds)
    )
    detail.append("evaluation maps bit-identical")

    check(12, "determinism across n_jobs", identical, "; ".join(detail))
