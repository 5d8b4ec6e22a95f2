import time

import numpy as np
import pytest

from srmkit import balanced_partition
from srmkit.bench import PeakRssSampler, run_bench


def test_sampler_sees_large_allocation():
    with PeakRssSampler(interval=0.01) as before:
        time.sleep(0.05)
    baseline = before.peak_bytes
    with PeakRssSampler(interval=0.01) as sampler:
        blob = np.ones(40_000_000)  # ~320 MB
        blob[::4096] += 1.0  # touch pages
        time.sleep(0.05)
        del blob
    assert sampler.peak_bytes >= baseline + 250_000_000


def test_sampler_overhead_is_small():
    # The sampler must cost well under 2% of a run; measure its CPU use
    # directly against a sleeping (zero-CPU) workload.
    start_cpu = time.process_time()
    start = time.perf_counter()
    with PeakRssSampler():
        time.sleep(5.0)
    wall = time.perf_counter() - start
    cpu = time.process_time() - start_cpu
    assert cpu / wall < 0.02


def test_run_bench_fields(make_dataset):
    manifest, _ = make_dataset(n=2, m=2, t_list=(15, 20), v=30, k=3, sigma=0.4, seed=1)
    report = run_bench(manifest, "detsrm", k=3, n_iter=3, seed=0)
    assert report["algorithm"] == "detsrm"
    assert report["wall_time_s"] > 0
    assert report["peak_mem_bytes"] > 0
    assert report["n"] == 2 and report["m"] == 2 and report["v"] == 30
    assert len(report["trace"]) == 3


def test_run_bench_fastsrm_needs_atlas(make_dataset):
    manifest, _ = make_dataset(v=30, k=3)
    with pytest.raises(ValueError, match="atlas"):
        run_bench(manifest, "fastsrm", k=3)


def test_run_bench_deterministic_trace(make_dataset, tmp_path):
    manifest, _ = make_dataset(n=2, m=2, v=30, k=3, sigma=0.4, seed=2)
    atlas = balanced_partition(30, 10, seed=0)
    r1 = run_bench(manifest, "fastsrm", k=3, atlas=atlas, n_iter=4, seed=5)
    r2 = run_bench(manifest, "fastsrm", k=3, atlas=atlas, n_iter=4, seed=5)
    assert r1["trace"] == r2["trace"]


def test_run_bench_reports_baseline(make_dataset):
    manifest, _ = make_dataset(n=2, m=2, v=30, k=3, sigma=0.4, seed=3)
    report = run_bench(manifest, "detsrm", k=3, n_iter=2, seed=0)
    assert 0 < report["baseline_mem_bytes"] <= report["peak_mem_bytes"]
