"""Command-line surface: fit models, transform runs, run the cross-validated
reconstruction benchmark and generate synthetic datasets.

Exit codes: 0 on success, 1 on runtime failure, 2 on argument errors.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .atlas import load_atlas
from .bench import PeakRssSampler
from .dataio import load_manifest, load_matrix, read_header, save_json, save_matrix
from .evaluation import ROI_THRESHOLD, cosmoothing, fit, mean_within, roi_mask
from .srm import (ALGORITHMS, SrmModel, _check_fit_inputs, _check_replaceable, _staged_dir,
                  update_shared)
from .synthetic import generate


def _count(text: str) -> int:
    """argparse type of the counts that must be positive."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _list_of(convert):
    """argparse type of a comma-separated list; argparse reports the
    ValueError of a bad entry as an argument error, naming the type."""
    def parse(text: str) -> list:
        return [convert(x) for x in text.split(",")]
    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


def _add_common_fit_args(p):
    p.add_argument("--manifest", required=True, help="dataset manifest JSON")
    p.add_argument("--k", type=_count, required=True, help="number of components")
    p.add_argument("--atlas", help="atlas SRMB file (required for fastsrm)")
    p.add_argument("--n-iter", type=_count, default=10)
    p.add_argument("--n-jobs", type=_count, default=1)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srmkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"srmkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a model and write it to a directory")
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    _add_common_fit_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="shared response of one run through a fitted model")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--manifest", required=True)
    p.add_argument("--run", type=int, required=True)
    p.add_argument("--subjects", type=_list_of(int),
                   help="comma-separated subject indices (default: all)")
    p.add_argument("--out", required=True, help="output SRMB file")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("evaluate", help="cross-validated reconstruction scores")
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    _add_common_fit_args(p)
    p.add_argument("--roi-threshold", type=float, default=ROI_THRESHOLD)
    p.add_argument(
        "--roi-from",
        action="append",
        default=None,
        metavar="MAP",
        help="select the ROI from these mean-map SRMB files (e.g. a previous "
        "probsrm evaluation, possibly at several component counts) instead of "
        "the evaluated algorithm's own map; repeatable",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--n", type=_count, required=True, help="subjects")
    p.add_argument("--m", type=_count, required=True, help="runs")
    p.add_argument("--t", type=_list_of(int), required=True,
                   help="timeframes per run (single value or comma list)")
    p.add_argument("--v", type=_count, required=True, help="voxels")
    p.add_argument("--k", type=_count, required=True, help="components")
    p.add_argument("--sigma", type=_list_of(float), default="0",
                   help="noise level (single value or per-subject list)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--isotropic", action="store_true", help="equal component variances")
    p.add_argument("--dtype", choices=("f64", "f32"), default="f64")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def _load_manifest(args, parser):
    if not Path(args.manifest).is_file():
        parser.error(f"manifest not found: {args.manifest}")
    try:
        return load_manifest(args.manifest)
    except Exception as exc:
        parser.error(f"invalid manifest: {exc}")


def _load_inputs(args, parser, held_out: bool):
    """Manifest and atlas of ``fit`` (``evaluate`` with ``held_out``), with
    every argument the fit cannot use reported as an argument error."""
    if args.atlas and args.algo != "fastsrm":  # before the manifest or the atlas is read
        parser.error("--atlas is used only by fastsrm")
    manifest = _load_manifest(args, parser)
    atlas = None
    if args.atlas:
        if not Path(args.atlas).is_file():
            parser.error(f"atlas not found: {args.atlas}")
        try:
            atlas = load_atlas(args.atlas)
        except (OSError, ValueError) as exc:
            parser.error(f"invalid atlas: {exc}")
    try:
        _check_fit_inputs(manifest, args.algo, args.k, atlas, args.n_iter, args.n_jobs, held_out)
    except ValueError as exc:
        parser.error(str(exc))
    return manifest, atlas


def _out_dir(path: str, parser) -> Path:
    """``--out`` of ``fit`` or ``evaluate``: a file or a symbolic link there
    is an argument error, reported before any input is read."""
    out = Path(path)
    try:
        _check_replaceable(out)
    except NotADirectoryError as exc:
        parser.error(f"--out: {exc}")
    return out


def cmd_fit(args, parser) -> int:
    out = _out_dir(args.out, parser)
    manifest, atlas = _load_inputs(args, parser, held_out=False)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    model = fit(manifest, args.algo, args.k, atlas=atlas, n_iter=args.n_iter, seed=args.seed,
                n_jobs=args.n_jobs, component_dir=out / "model")
    wall = time.perf_counter() - start
    log = {
        "algorithm": args.algo,
        "k": args.k,
        "n_iter": args.n_iter,
        "n_jobs": args.n_jobs,
        "seed": args.seed,
        "trace": [float(x) for x in model.trace],
        "wall_time_s": wall,
    }
    save_json(log, out / "fit_log.json")
    print(f"model written to {out / 'model'}")
    return 0


def cmd_transform(args, parser) -> int:
    out = Path(args.out)
    if out.is_dir():
        parser.error(f"--out: {out} is a directory, not an SRMB file")
    if not out.parent.is_dir():
        parser.error(f"--out: directory {out.parent} does not exist")
    if not Path(args.model).is_dir():
        parser.error(f"model directory not found: {args.model}")
    manifest = _load_manifest(args, parser)
    if not 0 <= args.run < manifest.n_runs:
        parser.error(f"run {args.run} out of range (dataset has {manifest.n_runs})")
    try:
        model = SrmModel.load(args.model)
    except (OSError, ValueError) as exc:
        parser.error(f"invalid model: {exc}")
    if model.v != manifest.v:
        parser.error(f"model has {model.v} voxels, dataset has {manifest.v}")
    subjects = args.subjects or range(model.n)
    n = min(model.n, manifest.n_subjects)
    for j, i in enumerate(subjects):
        if not 0 <= i < n:
            parser.error(f"subject {i} out of range (model has {model.n}, "
                         f"dataset has {manifest.n_subjects})")
        if i in subjects[:j]:
            parser.error(f"subject {i} is listed twice in --subjects")
    # one subject's run and components in memory at a time
    shared = update_shared((manifest.load_run(i, args.run) for i in subjects),
                           (model.spatial_component(i) for i in subjects))
    save_matrix(shared, args.out)
    print(f"shared response written to {args.out}")
    return 0


# the files `evaluate` writes; its --out may hold nothing else, as it is replaced whole
_EVALUATION_FILE = re.compile(r"r2_run-\d+_sub-\d+\.srmb|mean_map\.srmb|summary\.json")


def _evaluation_out(path: str, parser) -> Path:
    """``--out`` of ``evaluate``, resolved. The evaluation replaces it whole,
    so before any run is read it must be new, or a directory holding only
    an earlier evaluation's files, and not the working directory."""
    out = _out_dir(path, parser).resolve()
    if out == Path.cwd().resolve():
        parser.error(f"--out: {path} is the working directory, which evaluate would replace")
    if out.is_dir():
        for entry in sorted(out.iterdir()):
            if entry.is_symlink() or not entry.is_file() or not _EVALUATION_FILE.fullmatch(
                    entry.name):
                parser.error(f"--out: {path} holds {entry.name!r}, which evaluate did not "
                             "write; it replaces --out whole, so give a new directory or "
                             "an earlier evaluation's")
    return out


def cmd_evaluate(args, parser) -> int:
    manifest, atlas = _load_inputs(args, parser, held_out=True)
    for path in args.roi_from or []:
        try:
            if (shape := read_header(path)[:2]) != (1, manifest.v):
                raise ValueError(f"{path} is {shape[0]}x{shape[1]}, not 1x{manifest.v}")
        except (OSError, ValueError) as exc:
            parser.error(f"--roi-from: {exc}")
    out = _evaluation_out(args.out, parser)
    # staged like a model directory, so that no map of an earlier evaluation
    # outlives it and a failed run leaves the earlier one whole; the staging
    # directory is made first, so an --out that cannot be written fails now
    with _staged_dir(out) as staging:
        start = time.perf_counter()
        sampler = PeakRssSampler()
        with sampler:
            result = cosmoothing(
                manifest,
                args.algo,
                args.k,
                atlas=atlas,
                n_iter=args.n_iter,
                seed=args.seed,
                n_jobs=args.n_jobs,
            )
        runtime = time.perf_counter() - start

        per_fold = []
        for fold in result.folds:
            name = f"r2_run-{fold.left_out_run:02d}_sub-{fold.left_out_subject:02d}.srmb"
            save_matrix(fold.scores[None, :], staging / name)
            per_fold.append(
                {
                    "run": fold.left_out_run,
                    "subject": fold.left_out_subject,
                    "mean_r2": float(fold.scores.mean()),
                    "map_file": name,
                }
            )
        mean_map = result.mean_map()
        save_matrix(mean_map[None, :], staging / "mean_map.srmb")
        # read before --out is replaced: a map may be the one in it
        roi_maps = [load_matrix(p)[0] for p in args.roi_from] if args.roi_from else [mean_map]
        mask = roi_mask(roi_maps, threshold=args.roi_threshold)
        roi_voxels = int(mask.sum())
        mean_roi = mean_within(mask, mean_map)
        summary = {
            "algorithm": args.algo,
            "k": args.k,
            "n_iter": args.n_iter,
            "seed": args.seed,
            "roi_threshold": args.roi_threshold,
            "roi_voxel_count": roi_voxels,
            "mean_roi_r2": None if np.isnan(mean_roi) else mean_roi,
            "per_fold": per_fold,
            "runtime_s": runtime,
            "peak_mem_bytes": sampler.peak_bytes,
            "baseline_mem_bytes": sampler.start_bytes,
        }
        save_json(summary, staging / "summary.json")
    if roi_voxels == 0:
        print("warning: ROI is empty at this threshold", file=sys.stderr)
    print(f"summary written to {Path(args.out) / 'summary.json'}")
    return 0


def cmd_synth(args, parser) -> int:
    t_list = args.t * args.m if len(args.t) == 1 else args.t
    sigma = args.sigma * args.n if len(args.sigma) == 1 else args.sigma
    dtype = np.float64 if args.dtype == "f64" else np.float32
    try:
        manifest, _ = generate(
            args.n, args.m, t_list, args.v, args.k, sigma,
            seed=args.seed, out_dir=args.out, isotropic=args.isotropic, dtype=dtype,
        )
    except ValueError as exc:
        parser.error(str(exc))
    print(f"dataset written to {args.out} ({manifest.n_subjects} subjects, "
          f"{manifest.n_runs} runs, v={manifest.v})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except SystemExit:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
