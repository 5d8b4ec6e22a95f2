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
    "fastsrm_transform",
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
    "shared_posterior",
    "subspace_error",
    "update_shared",
]


def test_exported_names_are_pinned():
    assert sorted(srmkit.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in PUBLIC:
        assert getattr(srmkit, name) is not None, name


def test_cli_subcommands_are_pinned():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == ["evaluate", "fit", "synth", "transform"]
