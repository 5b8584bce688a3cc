"""Emulation of 3D cloud radiative effects with small neural networks and
energy-consistent flux reconstruction.

The names below are imported from their modules on first use (PEP 562),
so `import cre3d.cli` sets the BLAS thread variables before it loads
numpy: the BLAS reads them once, as numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "column": ("AtmosphericProfile", "FluxSet", "PhysConsts", "ProfileBatch",
               "VerticalGrid", "apply_correction", "compute_cloud_optical_depth",
               "compute_heating_rates", "extend_to_full"),
    "features": ("FeatureSchema", "Normalization", "fit_normalization", "schema_for_grid"),
    "net": ("GridSearchSpec", "MlpModel", "TrainConfig", "forward", "grid_search", "train"),
    "postproc": ("EffectTargets",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
