"""Emulation of 3D cloud radiative effects with small neural networks and
energy-consistent flux reconstruction."""

from .column import (
    AtmosphericProfile,
    FluxSet,
    PhysConsts,
    ProfileBatch,
    VerticalGrid,
    apply_correction,
    compute_cloud_optical_depth,
    compute_heating_rates,
    extend_to_full,
    truncate_to_window,
)
from .features import FeatureSchema, Normalization, fit_normalization, schema_for_grid
from .net import GridSearchSpec, MlpModel, TrainConfig, forward, grid_search, train
from .postproc import EffectTargets, postprocess

__version__ = "0.1.0"

__all__ = [
    "AtmosphericProfile",
    "EffectTargets",
    "FeatureSchema",
    "FluxSet",
    "GridSearchSpec",
    "MlpModel",
    "Normalization",
    "PhysConsts",
    "ProfileBatch",
    "TrainConfig",
    "VerticalGrid",
    "apply_correction",
    "compute_cloud_optical_depth",
    "compute_heating_rates",
    "extend_to_full",
    "fit_normalization",
    "forward",
    "grid_search",
    "postprocess",
    "schema_for_grid",
    "train",
    "truncate_to_window",
]
