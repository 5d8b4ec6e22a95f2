"""Fresh-process benchmark of ``srmkit fit`` and ``srmkit evaluate``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a srmkit checkout. Closed loop, one client: the parent
spawns one fresh child (child.py) per operation and never runs two at once.
Each child reports its wall time and its peak RSS above its post-import
baseline; the parent then checks the files the CLI wrote against the planted
truth (checks.py). With ``--trace 1`` the children wrap srmkit's public
functions (tracer.py) and the per-layer numbers are printed instead of the
end-to-end ones. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMAS = SRC / "srmkit" / "schemas"
WORK = ROOT / ".perfbench"

# The paper's shape at v=20k, which the command line always runs. sigma=0.1
# keeps reconstruction checkable: the oracle co-smoothing R^2 is about 0.49 (at
# sigma=1.0 it is 0.01). The benchmark's own tests call benchmark() at "tiny".
SHAPES = {
    "paper": dict(n=10, m=5, t=200, v=20_000, k=20, c=200, sigma=0.1, n_iter=10),
    "tiny": dict(n=3, m=3, t=40, v=400, k=3, c=20, sigma=0.1, n_iter=10),
}
SETUP_REPEATS = 2
OP_TIMEOUT_S = 120.0  # a child still running after this is killed and counted failed
RUN_LIMIT_S = 150.0  # no round starts that would end this long after the process started
STARTED = time.perf_counter()
MICRO_REPS = 15


@dataclass(frozen=True)
class Workload:
    command: str  # srmkit CLI subcommand
    algo: str
    dtype: str  # "f64" | "f32" for the generated runs
    atlas: str | None  # "partition" | "prob" | None


# detsrm and probsrm are separate workloads on the same dataset (same seed),
# so that each of their fits has its own end-to-end numbers.
WORKLOADS = {
    "fastsrm-fit": Workload("fit", "fastsrm", "f64", "partition"),
    "detsrm-fit": Workload("fit", "detsrm", "f64", None),
    "probsrm-fit": Workload("fit", "probsrm", "f64", None),
    "fastsrm-evaluate": Workload("evaluate", "fastsrm", "f32", "prob"),
}


def overlapping_atlas(v: int, c: int, rng):
    """c x v probabilistic atlas: every voxel has weight 1 in its own parcel
    (balanced sizes) and a weight in [0.1, 0.5) in one other parcel."""
    import numpy as np

    labels = np.repeat(np.arange(c), -(-v // c))[:v]
    rng.shuffle(labels)
    other = (labels + rng.integers(1, c, size=v)) % c
    weights = np.zeros((c, v))
    cols = np.arange(v)
    weights[labels, cols] = 1.0
    weights[other, cols] = rng.uniform(0.1, 0.5, size=v)
    return weights


def setup(work: Path, wl: Workload, shape: dict, seed: int):
    """Generate the planted dataset, its atlas file and manifest in ``work``.

    Returns (manifest path, atlas path or None, planted truth, generate s, total s).
    """
    import numpy as np
    import srmkit

    if work.exists():
        shutil.rmtree(work)
    start = time.perf_counter()
    _, truth = srmkit.generate(
        shape["n"], shape["m"], [shape["t"]] * shape["m"], shape["v"], shape["k"],
        shape["sigma"], seed=seed, out_dir=work,
        dtype=np.float64 if wl.dtype == "f64" else np.float32,
    )
    generated = time.perf_counter()
    atlas_path = None
    if wl.atlas is not None:
        atlas_path = work / "atlas.srmb"
        rng = np.random.default_rng([seed, 1])
        if wl.atlas == "partition":
            srmkit.save_atlas(srmkit.balanced_partition(shape["v"], shape["c"], rng), atlas_path)
        else:
            srmkit.save_matrix(overlapping_atlas(shape["v"], shape["c"], rng), atlas_path)
    end = time.perf_counter()
    # Flush the new files so that writeback does not overlap the timed operations.
    for path in work.iterdir():
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return work / "manifest.json", atlas_path, truth, generated - start, end - start


def run_op(work: Path, tag: str, wl: Workload, shape: dict, seed: int, trace: bool,
           manifest: Path, atlas: Path | None) -> dict:
    """One CLI call in a fresh child; returns its report plus output dir."""
    out, spill, result = work / tag, work / f"{tag}-spill", work / f"{tag}.json"
    spill.mkdir(parents=True)
    cli = [wl.command, "--algo", wl.algo, "--manifest", str(manifest),
           "--k", str(shape["k"]), "--n-iter", str(shape["n_iter"]), "--seed", str(seed),
           "--out", str(out)]
    if atlas is not None:
        cli += ["--atlas", str(atlas)]
    argv = [sys.executable, str(HERE / "child.py"), str(result)]
    argv += ["--trace"] if trace else []
    env = dict(os.environ, SRMKIT_TMPDIR=str(spill), TMPDIR=str(spill),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    log = work / f"{tag}.log"
    timed_out = False
    with open(log, "wb") as log_f:
        try:
            # run() kills the child on a timeout and on any exception here.
            subprocess.run(argv + ["--"] + cli, env=env, cwd=ROOT, stdout=log_f,
                           stderr=subprocess.STDOUT, timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            timed_out = True
    report = {"out": out, "problems": []}
    if timed_out or not result.is_file():
        tail = log.read_text(errors="replace")[-2000:]
        report["problems"].append(f"child failed{' (timeout)' if timed_out else ''}: {tail}")
    else:
        report.update(json.loads(result.read_text()))
        if report["code"] != 0:
            report["problems"].append(f"srmkit exited {report['code']}: "
                                      f"{log.read_text(errors='replace')[-2000:]}")
    left = [p for p in spill.iterdir() if p.name.startswith("srmkit-")]
    report["spill_dirs_left"] = len(left)
    report["spill_left_mib"] = sum(
        f.stat().st_size for d in left for f in d.rglob("*") if f.is_file()) / 2**20
    shutil.rmtree(spill)
    return report


def check_op(report: dict, wl: Workload, shape: dict, manifest: Path, truth) -> list[str]:
    """Problems with the output of one operation; empty when it passes."""
    import checks

    out = report["out"]
    problems = list(report["problems"])
    if problems:
        return problems
    if wl.command == "evaluate":
        problems += checks.schema(out / "summary.json", SCHEMAS / "evaluate_summary.schema.json")
        oracle = checks.oracle_r2(truth.spatial, truth.shared, shape["sigma"])
        found, report["mean_r2"] = checks.fold_maps(out, shape["n"], shape["m"], shape["v"], oracle)
        return problems + found
    problems += checks.schema(out / "fit_log.json", SCHEMAS / "fit_log.schema.json")
    trace = json.loads((out / "fit_log.json").read_text())["trace"]
    problems += checks.monotone(trace, rising=wl.algo == "probsrm")
    comps = checks.load_components(out / "model")
    problems += checks.orthonormality(comps)
    bound = checks.angle_bound(truth.shared, shape["sigma"], shape["v"])
    found, report["angle"] = checks.recovery(comps, truth.spatial, bound)
    problems += found
    if wl.algo == "detsrm":
        doc = json.loads(manifest.read_text())
        paths = [[manifest.parent / p for p in sub["runs"]] for sub in doc["subjects"]]
        found, _ = checks.objective_at_end(paths, comps, trace)
        problems += found
    return problems


def micro(manifest: Path, shape: dict, seed: int) -> dict:
    """Single-call timings of the primitives on one t x v run (traced run only)."""
    import numpy as np
    import srmkit

    def median_s(fn) -> float:
        fn()
        times = []
        for _ in range(MICRO_REPS):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    x = srmkit.load_manifest(manifest).load_run(0, 0)
    rng = np.random.default_rng([seed, 2])
    partition = srmkit.balanced_partition(shape["v"], shape["c"], rng)
    prob = srmkit.Atlas.probabilistic(overlapping_atlas(shape["v"], shape["c"], rng))
    m = rng.standard_normal((shape["k"], shape["v"]))
    dst = np.empty_like(x)
    copy_s = median_s(lambda: np.copyto(dst, x))
    return {
        "atlas.project_partition_ms": 1e3 * median_s(lambda: srmkit.project_run(x, partition)),
        "atlas.project_prob_ms": 1e3 * median_s(lambda: srmkit.project_run(x, prob)),
        "srm.procrustes_ms": 1e3 * median_s(lambda: srmkit.procrustes_update(m)),
        "host.copy_mib_per_s": x.nbytes / 2**20 / copy_s,
    }


def layer_report(reports: list[dict]) -> dict[str, float]:
    """Median over the traced operations of each per-layer number."""
    import tracer

    rows = []
    for r in reports:
        row = tracer.layer_metrics(r["spans"])
        row["dataio.load_mib_per_s"] = row["dataio.load_mib"] / row["dataio.load_s"]
        row["fastsrm.spill_dirs_left"] = r["spill_dirs_left"]
        row["fastsrm.spill_left_mib"] = r["spill_left_mib"]
        row["traced.op_wall_s"] = r["wall_s"]
        rows.append(row)
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def environment() -> str:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return (f"env: nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} thread settings={threads or 'none'}")


def benchmark(workload: str, seed: int, seconds: float, trace: bool, shape: dict) -> dict:
    wl = WORKLOADS[workload]
    units = metric_units()
    print(environment())
    work = WORK / f"run-{os.getpid()}"
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            setups.append(setup(work / f"data-{rep}", wl, shape, seed))
            if rep:
                shutil.rmtree(work / f"data-{rep - 1}")
        manifest, atlas, truth = setups[-1][:3]
        generate_s = [s[3] for s in setups]
        setup_s = [s[4] for s in setups]

        reports, failed = [], 0
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            tag = f"op-{len(reports) + failed + 1:03d}"
            report = run_op(work, tag, wl, shape, seed, trace, manifest, atlas)
            try:
                problems = check_op(report, wl, shape, manifest, truth)
            except Exception as exc:  # an unreadable output fails the operation, not the run
                problems = [f"check raised {exc!r}"]
            shutil.rmtree(report["out"], ignore_errors=True)
            if problems:
                failed += 1
                print(f"FAILED {workload} op {len(reports) + failed}: " + "; ".join(problems),
                      file=sys.stderr)
            else:
                reports.append(report)
            # Whole rounds only: stop before a round that would end past the deadline.
            now = time.perf_counter()
            next_end = now + (now - round_start)
            if next_end - start > seconds or next_end - STARTED > RUN_LIMIT_S:
                break
        attempted = len(reports) + failed

        if not reports:
            metrics = {}
        elif trace:
            metrics = layer_report(reports)
            metrics["synthetic.generate_s"] = statistics.median(generate_s)
            metrics.update(micro(manifest, shape, seed))
        else:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "op_wall_s": statistics.median(r["wall_s"] for r in reports),
                "op_peak_mib": statistics.median(r["peak_mib"] for r in reports),
            }
        if not trace:
            for key, samples in (("setup_s", setup_s), ("op_wall_s", [r["wall_s"] for r in reports]),
                                 ("op_peak_mib", [r["peak_mib"] for r in reports])):
                print(f"{key}: median of {len(samples)} samples, " +
                      " ".join(f"{x:.4f}" for x in samples) + f" {units[key]}")
        for key in ("angle", "mean_r2"):
            vals = [r[key] for r in reports if key in r]
            if vals:
                print(f"check {key}: {min(vals):.4f} .. {max(vals):.4f}")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "srmkit" / "__init__.py").is_file():
        print(f"error: no srmkit sources under {SRC}; run from a srmkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def on_term(signum, frame):
        raise SystemExit(128 + signum)  # so that the work directory is removed

    signal.signal(signal.SIGTERM, on_term)
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), SHAPES["paper"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
