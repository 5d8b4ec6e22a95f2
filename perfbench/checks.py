"""Checks of the files the srmkit CLI wrote, computed apart from srmkit.

Everything here uses numpy (and jsonschema for the shipped schemas) on the
planted truth the benchmark generated; nothing calls into srmkit. Each check
returns a list of problems, empty when the output passes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

ORTHONORMAL_TOL = 1e-8
# Slack for a trace step in the wrong direction: rounding only, relative to
# the size of the trace value.
TRACE_RTOL = 1e-12
# The recomputed objective is an exact minimum over the shared response at
# the final components; it may exceed the last trace entry by rounding only.
OBJECTIVE_RTOL = 1e-9
# Largest principal angle: tan(angle) may be at most this multiple of the
# noise-to-signal figure of ``angle_bound``.
ANGLE_FACTOR = 1.25
# Mean co-smoothing R^2 must lie in [oracle - R2_MARGIN, oracle + R2_SLACK].
R2_MARGIN = 0.1
R2_SLACK = 0.005

_SRMB_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_SRMB_HEADER = struct.Struct("<4sIBQQ")


def read_srmb(path) -> np.ndarray:
    """Read an SRMB matrix: magic, version, dtype code, rows, cols, data."""
    with open(path, "rb") as f:
        magic, version, code, rows, cols = _SRMB_HEADER.unpack(f.read(_SRMB_HEADER.size))
        if magic != b"SRMB" or version != 1 or code not in _SRMB_DTYPES:
            raise ValueError(f"{path}: not an SRMB v1 file")
        data = np.fromfile(f, dtype=_SRMB_DTYPES[code])
    if data.size != rows * cols:
        raise ValueError(f"{path}: {data.size} values for a {rows}x{cols} matrix")
    return data.reshape(rows, cols)


def load_components(model_dir) -> list[np.ndarray]:
    model_dir = Path(model_dir)
    desc = json.loads((model_dir / "model.json").read_text())
    return [read_srmb(model_dir / name) for name in desc["components"]]


def orthonormality(components) -> list[str]:
    problems = []
    for i, w in enumerate(components):
        dev = float(np.max(np.abs(w @ w.T - np.eye(w.shape[0]))))
        if not dev <= ORTHONORMAL_TOL:
            problems.append(f"subject {i}: W W^T deviates from I by {dev:.3g}")
    return problems


def largest_angle(w_est: np.ndarray, w_true: np.ndarray) -> float:
    """Largest principal angle (radians) between two orthonormal row spaces."""
    qe, _ = np.linalg.qr(w_est.T)
    qt, _ = np.linalg.qr(w_true.T)
    cosines = np.linalg.svd(qe.T @ qt, compute_uv=False)
    sine = np.linalg.norm(qt - qe @ (qe.T @ qt), ord=2)
    return float(np.arctan2(sine, cosines.min()))


def angle_bound(shared: list[np.ndarray], sigma: float, v: int) -> float:
    """Noise-derived bound on the largest principal angle of a recovered W_i.

    Regressing X_i = S W_i + sigma E on S perturbs W_i by
    (S^T S)^-1 S^T sigma E, whose spectral norm is about
    sigma (sqrt(v) + sqrt(k)) / sqrt(lambda_min(S^T S)).
    """
    s = np.concatenate(shared, axis=0)
    k = s.shape[1]
    lam_min = float(np.linalg.eigvalsh(s.T @ s)[0])
    noise_to_signal = sigma * (np.sqrt(v) + np.sqrt(k)) / np.sqrt(lam_min)
    return float(np.arctan(ANGLE_FACTOR * noise_to_signal))


def recovery(components, truth_spatial, bound: float) -> tuple[list[str], float]:
    angles = [largest_angle(w, t) for w, t in zip(components, truth_spatial)]
    worst = max(angles)
    problems = [] if worst <= bound else [
        f"largest principal angle {worst:.4f} rad exceeds the bound {bound:.4f} rad"
    ]
    if len(components) != len(truth_spatial):
        problems.append(f"{len(components)} components for {len(truth_spatial)} subjects")
    return problems, worst


def monotone(trace, rising: bool) -> list[str]:
    """A trace that may only fall (``rising=False``) or only rise."""
    trace = [float(x) for x in trace]
    if len(trace) < 1 or not all(np.isfinite(trace)):
        return [f"trace is empty or not finite: {trace}"]
    problems = []
    for j in range(1, len(trace)):
        step = trace[j] - trace[j - 1]
        slack = TRACE_RTOL * max(abs(trace[j]), abs(trace[j - 1]))
        if (step < -slack) if rising else (step > slack):
            word = "fell" if rising else "rose"
            problems.append(f"trace {word} at step {j}: {trace[j - 1]!r} -> {trace[j]!r}")
    return problems


def detsrm_objective(run_paths, components) -> float:
    """sum_i ||X_i - S W_i||^2 with the exact shared update S = mean_i X_i W_i^T.

    With orthonormal W_i this equals sum_i ||X_i||^2 - n ||S||^2, which
    needs one pass over the runs and one run in memory at a time.
    ``run_paths[i][s]`` is the file of subject i, run s.
    """
    n, m = len(run_paths), len(run_paths[0])
    total = 0.0
    for s in range(m):
        shared = None
        for i in range(n):
            x = read_srmb(run_paths[i][s]).astype(np.float64, copy=False)
            total += float(np.vdot(x, x))
            p = x @ components[i].T
            shared = p if shared is None else shared + p
        shared /= n
        total -= n * float(np.vdot(shared, shared))
    return total


def objective_at_end(run_paths, components, trace) -> tuple[list[str], float]:
    recomputed = detsrm_objective(run_paths, components)
    last = float(trace[-1])
    if recomputed > last * (1.0 + OBJECTIVE_RTOL):
        return [f"recomputed objective {recomputed!r} exceeds the last trace entry {last!r}"], recomputed
    return [], recomputed


def oracle_r2(truth_spatial, truth_shared, sigma: float) -> float:
    """Mean over folds and voxels of signal / (signal + sigma^2), where the
    signal is the variance of S_s W_i in the held-out run s."""
    values = []
    for s_run in truth_shared:
        sc = s_run - s_run.mean(axis=0)
        cov = sc.T @ sc / sc.shape[0]
        for w in truth_spatial:
            signal = np.sum(w * (cov @ w), axis=0)
            values.append(np.mean(signal / (signal + sigma * sigma)))
    return float(np.mean(values))


def fold_maps(out_dir, n: int, m: int, v: int, oracle: float) -> tuple[list[str], float]:
    """Every (run, subject) R^2 map exists, no score exceeds 1, and the mean
    lies within the stated margin of the oracle."""
    out_dir = Path(out_dir)
    problems, means = [], []
    for s in range(m):
        for i in range(n):
            path = out_dir / f"r2_run-{s:02d}_sub-{i:02d}.srmb"
            if not path.is_file():
                problems.append(f"missing fold map {path.name}")
                continue
            scores = read_srmb(path)
            if scores.shape != (1, v) or not np.all(np.isfinite(scores)):
                problems.append(f"{path.name}: shape {scores.shape} or non-finite scores")
                continue
            if np.max(scores) > 1.0:
                problems.append(f"{path.name}: R^2 {np.max(scores)!r} above 1")
            means.append(float(np.mean(scores)))
    mean = float(np.mean(means)) if means else float("nan")
    if not oracle - R2_MARGIN <= mean <= oracle + R2_SLACK:
        problems.append(
            f"mean R^2 {mean:.4f} outside [{oracle - R2_MARGIN:.4f}, {oracle + R2_SLACK:.4f}] "
            f"around the oracle {oracle:.4f}"
        )
    return problems, mean


def schema(doc_path, schema_path) -> list[str]:
    import jsonschema

    doc = json.loads(Path(doc_path).read_text())
    sch = json.loads(Path(schema_path).read_text())
    errors = sorted(jsonschema.Draft202012Validator(sch).iter_errors(doc), key=str)
    return [f"{Path(doc_path).name}: {e.message}" for e in errors]
