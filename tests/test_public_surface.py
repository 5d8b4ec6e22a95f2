import argparse

import srmkit
from srmkit.cli import build_parser

PUBLIC = [
    "Atlas",
    "CosmoothingResult",
    "DatasetManifest",
    "FormatError",
    "PlantedModel",
    "R2Map",
    "SrmModel",
    "balanced_partition",
    "cosmoothing",
    "cosmoothing_fold",
    "detsrm_fit",
    "fastsrm_fit",
    "fit",
    "generate",
    "load_atlas",
    "load_manifest",
    "load_matrix",
    "mean_within",
    "probsrm_fit",
    "procrustes_update",
    "project_run",
    "r2_map",
    "r2_score",
    "read_header",
    "recover_components",
    "reduce_dataset",
    "roi_mask",
    "save_atlas",
    "save_json",
    "save_manifest",
    "save_matrix",
    "subspace_error",
    "update_shared",
]


FIT_OPTIONS = ["--algo", "--atlas", "--k", "--manifest", "--n-iter", "--n-jobs", "--out", "--seed"]
CLI_OPTIONS = {
    "evaluate": sorted(FIT_OPTIONS + ["--roi-from", "--roi-threshold"]),
    "fit": FIT_OPTIONS,
    "synth": ["--dtype", "--isotropic", "--k", "--m", "--n", "--out", "--seed", "--sigma", "--t",
              "--v"],
    "transform": ["--manifest", "--model", "--out", "--run", "--subjects"],
}


def _subcommands():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_exported_names_are_pinned():
    assert sorted(srmkit.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in PUBLIC:
        assert getattr(srmkit, name) is not None, name


def test_cli_subcommands_are_pinned():
    assert sorted(_subcommands()) == ["evaluate", "fit", "synth", "transform"]


def test_cli_options_are_pinned():
    got = {
        name: sorted(o for a in p._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, p in _subcommands().items()
    }
    assert got == CLI_OPTIONS
