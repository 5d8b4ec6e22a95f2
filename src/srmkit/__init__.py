"""srmkit: memory-efficient shared response modeling for multi-subject data.

Fits a latent factor model X_i = S W_i + E across subjects exposed to the
same stimulus: a shared time course S per run, orthonormal per-subject
spatial components W_i. Three fits are provided (alternating least squares,
EM on the Gaussian formulation, and an atlas-compressed out-of-core
pipeline), plus a cross-validated reconstruction benchmark, synthetic
ground-truth generation, and a time/memory harness.
"""

__version__ = "0.1.0"

from .atlas import Atlas, load_atlas, project_run, save_atlas
from .dataio import (
    DatasetManifest,
    FormatError,
    load_manifest,
    load_matrix,
    read_header,
    save_json,
    save_manifest,
    save_matrix,
)
from .evaluation import (
    CosmoothingResult,
    R2Map,
    cosmoothing,
    cosmoothing_fold,
    fit,
    mean_within,
    r2_map,
    r2_score,
    roi_mask,
)
from .fastsrm import fastsrm_fit, recover_components, reduce_dataset
from .srm import (
    SrmModel,
    detsrm_fit,
    probsrm_fit,
    procrustes_update,
    update_shared,
)
from .synthetic import PlantedModel, balanced_partition, generate, subspace_error

__all__ = [
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
