"""Wall-time and peak-memory instrumentation for comparing the fits.

Memory is self-measured: a background thread polls the process resident set
at 10 Hz while the workload runs and keeps the maximum. Numbers from this
harness are therefore comparable to each other, but not to figures from
external profilers.

``peak_mem_bytes`` is the absolute resident set of the whole process, so it
includes everything allocated before the workload started (the interpreter,
imported libraries, earlier work). ``baseline_mem_bytes`` is the resident
set when sampling started; the workload's own increase is
``peak_mem_bytes - baseline_mem_bytes``.
"""

from __future__ import annotations

import gc
import os
import tempfile
import threading
import time
import warnings

from .dataio import DatasetManifest
from .evaluation import fit

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _open_rss_reader():
    """Cheapest available RSS probe: a persistent /proc handle, else psutil."""
    try:
        handle = open("/proc/self/statm", "rb")

        def read():
            handle.seek(0)
            return int(handle.read().split()[1]) * _PAGE_SIZE

        return read, handle.close
    except OSError:
        pass
    try:
        import psutil

        proc = psutil.Process()
        return (lambda: proc.memory_info().rss), (lambda: None)
    except Exception:
        return None, None


class PeakRssSampler:
    """Context manager recording the peak resident set size while active.

    Polls at ``interval`` seconds (default 0.1 s, i.e. 10 Hz); each poll is
    one /proc read, and sleep syscalls themselves are not free on every
    kernel, so the default rate keeps total overhead well under 2% of the
    measured workload. ``start_bytes`` is the resident set read on entry and
    ``peak_bytes`` the largest one seen until exit, never below it.
    """

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.start_bytes: int | None = None
        self.peak_bytes: int | None = None
        self._stop = False
        self._thread = None
        self._read = None
        self._close = None

    def _run(self):
        peak = self.start_bytes
        while not self._stop:
            time.sleep(self.interval)
            rss = self._read()
            if rss > peak:
                peak = rss
        self.peak_bytes = max(peak, self._read())

    def __enter__(self):
        self._read, self._close = _open_rss_reader()
        if self._read is None:
            warnings.warn("memory sampling unsupported on this platform", RuntimeWarning)
            return self
        self.start_bytes = self._read()
        self._stop = False
        self._thread = threading.Thread(target=self._run, name="srmkit-rss-sampler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        if self._thread is not None:
            self._stop = True
            self._thread.join()
            self._thread = None
        if self._close is not None:
            self._close()
            self._read = self._close = None
        return False


def run_bench(
    manifest: DatasetManifest,
    algorithm: str,
    k: int,
    atlas=None,
    atlas_id: str | None = None,
    n_iter: int = 10,
    seed: int = 0,
) -> dict:
    """Time one fit end to end (including its data loading) and report it.

    Fits run single-threaded (n_jobs=1) so that timings compare algorithms,
    not scheduling. fastsrm writes its components to a temporary directory
    that is removed afterwards. Returns a JSON-ready report;
    ``peak_mem_bytes`` and ``baseline_mem_bytes`` are omitted (with a
    warning) where sampling is unsupported.
    """
    gc.collect()
    sampler = PeakRssSampler()
    with tempfile.TemporaryDirectory(prefix="srmkit-") as spill:
        start = time.perf_counter()
        with sampler:
            model = fit(manifest, algorithm, k, atlas=atlas, n_iter=n_iter, seed=seed,
                        component_dir=spill)
        wall = time.perf_counter() - start
        trace = model.trace
        del model
    gc.collect()
    report = {
        "algorithm": algorithm,
        "k": int(k),
        "atlas": atlas_id,
        "wall_time_s": float(wall),
        "n": manifest.n_subjects,
        "m": manifest.n_runs,
        "t": list(manifest.t_per_run),
        "v": manifest.v,
        "n_iter": int(n_iter),
        "seed": int(seed),
        "trace": [float(x) for x in trace],
    }
    if sampler.peak_bytes is not None:
        report["peak_mem_bytes"] = int(sampler.peak_bytes)
        report["baseline_mem_bytes"] = int(sampler.start_bytes)
    return report
