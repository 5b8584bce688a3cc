"""Emulator input/output rows and their normalization.

`build_input_matrix` is the one path from profiles to network input rows:
one window truncation and one cloud optical depth, then one matrix per
schema. Rows are flat concatenations of named blocks in a fixed order.
Longwave inputs: [f_c | tau_c | T | (q) | (dz) | T_s]; shortwave inputs:
[f_c | tau_c | (q) | (dz) | alpha | mu0]. Outputs: [scalar flux |
(SW: direct down) | heating rate]. All level blocks cover the
tropospheric window only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np

from .column import (
    DEFAULT_P_TRUNC,
    DRY_AIR_GAS_CONSTANT,
    GRAVITY,
    AtmosphericProfile,
    PhysConsts,
    ProfileBatch,
    VerticalGrid,
    _as_float_array,
    _level_rows,
    compute_cloud_optical_depth,
    compute_heating_rates,
    truncate_profile,
)
from .postproc import LW, SW, EffectTargets
from .rowblocks import run_blocks

SCALE_FLOOR = 1e-8  # std-dev floor for near-constant features


class ModelMismatch(ValueError):
    """A model that does not fit where it is used. `component` names the
    model; `profiles` is true where it does not fit the profiles' window."""

    def __init__(self, component: str, message: str, profiles: bool = False):
        super().__init__(message)
        self.component = component
        self.profiles = profiles


@dataclass(frozen=True)
class FeatureSchema:
    """Block layout of one emulator's input/output vectors on the window it
    was trained on. `p_hl_window` holds that window's half-level pressures
    (Pa, checked by `VerticalGrid`'s rules, kept as the grid `window_grid`);
    `n_fl_window` and `n_hl_window` are its level counts. Equality compares
    the layout (component, level counts, optional blocks), not the pressures.
    """

    component: str  # "lw" | "sw"
    p_hl_window: np.ndarray = field(compare=False)
    include_humidity: bool = False
    include_thickness: bool = False
    n_fl_window: int = field(init=False)
    n_hl_window: int = field(init=False)
    window_grid: VerticalGrid = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.component not in (LW, SW):
            raise ValueError(f"component must be 'lw' or 'sw', got {self.component!r}")
        try:
            grid = VerticalGrid(self.p_hl_window)
        except ValueError as exc:
            raise ValueError(f"p_hl_window is no window grid: {exc}") from None
        for name, value in (("p_hl_window", grid.p_hl), ("n_fl_window", grid.n_fl),
                            ("n_hl_window", grid.n_hl), ("window_grid", grid)):
            object.__setattr__(self, name, value)

    @property
    def input_blocks(self) -> List[Tuple[str, int]]:
        n = self.n_fl_window
        blocks = [("f_c", n), ("tau_c", n)]
        if self.component == LW:
            blocks.append(("T", n))
        if self.include_humidity:
            blocks.append(("q", n))
        if self.include_thickness:
            blocks.append(("dz", n))
        if self.component == LW:
            blocks.append(("T_s", 1))
        else:
            blocks.extend([("alpha", 1), ("mu0", 1)])
        return blocks

    @property
    def output_blocks(self) -> List[Tuple[str, int]]:
        blocks = [("scalar", self.n_hl_window)]
        if self.component == SW:
            blocks.append(("direct_down", self.n_hl_window))
        blocks.append(("heat", self.n_fl_window))
        return blocks

    @property
    def input_len(self) -> int:
        return sum(size for _, size in self.input_blocks)

    @property
    def output_len(self) -> int:
        return sum(size for _, size in self.output_blocks)

    def output_slices(self) -> dict:
        slices = {}
        start = 0
        for name, size in self.output_blocks:
            slices[name] = slice(start, start + size)
            start += size
        return slices


def schema_for_grid(component: str, grid, p_trunc: float = DEFAULT_P_TRUNC,
                    include_humidity: bool = False,
                    include_thickness: bool = False) -> FeatureSchema:
    """The schema of `component` on the window of `grid` at `p_trunc`."""
    return FeatureSchema(component, grid.window(p_trunc).p_hl, include_humidity, include_thickness)


def layer_thickness(grid, T) -> np.ndarray:
    """Approximate geometric layer thickness from the hypsometric relation.

    T is one profile's (n_fl,) temperatures or a batch's (n, n_fl) matrix.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim > 2 or T.shape[-1:] != (grid.n_fl,):
        raise ValueError(f"T must have length n_fl={grid.n_fl}")
    if not np.all(np.isfinite(T)):
        raise ValueError("T contains a non-finite value")
    return (DRY_AIR_GAS_CONSTANT * T / GRAVITY) * np.log(grid.p_hl[1:] / grid.p_hl[:-1])


def _assemble(window, tau: np.ndarray, schema: FeatureSchema) -> np.ndarray:
    """Input rows of a window batch, one per profile: the schema's input
    blocks concatenated along the last axis."""
    parts = []
    for name, _ in schema.input_blocks:
        if name == "tau_c":
            parts.append(tau)
        elif name == "dz":
            parts.append(layer_thickness(window.grid, window.T))
        elif name in ("T_s", "alpha", "mu0"):
            parts.append(np.asarray(getattr(window, name), dtype=float)[..., None])
        else:
            parts.append(getattr(window, name))
    return np.concatenate(parts, axis=-1)


def build_input_matrix(profiles: Union[ProfileBatch, Sequence[AtmosphericProfile]],
                       schema: Union[FeatureSchema, Sequence[FeatureSchema]],
                       consts: PhysConsts) -> Union[np.ndarray, List[np.ndarray]]:
    """Input rows of full-grid profiles on one grid: a matrix for one schema,
    a list of matrices for a sequence of schemas. Before any is assembled,
    the profiles' window must be every schema's `window_grid`, and they must
    carry `q` where a schema has the humidity block: a ModelMismatch names
    the component of the first schema they do not fit."""
    schemas = [schema] if isinstance(schema, FeatureSchema) else list(schema)
    window = truncate_profile(ProfileBatch.from_profiles(profiles), consts.p_trunc)
    for s in schemas:
        if not window.grid.same_as(s.window_grid):
            raise ModelMismatch(s.component, f"the profiles' window ({window.grid.n_fl} full levels) is not "
                                             f"the one the {s.component} model was trained on ({s.n_fl_window} "
                                             "full levels): their half-level pressures differ", profiles=True)
        if s.include_humidity and window.q is None:
            raise ModelMismatch(s.component, f"the {s.component} model needs specific humidity (q), "
                                             "but the profiles have none", profiles=True)
    tau = compute_cloud_optical_depth(window, consts)
    matrices = [_assemble(window, tau, s) for s in schemas]
    return matrices[0] if isinstance(schema, FeatureSchema) else matrices


def build_target_vector(targets: EffectTargets, schema: FeatureSchema) -> np.ndarray:
    """Output vector of one column's targets, or output rows of row targets."""
    if targets.component != schema.component:
        raise ValueError(f"targets are {targets.component!r}, schema is {schema.component!r}")
    if targets.scalar.shape[-1] != schema.n_hl_window or targets.heat.shape[-1] != schema.n_fl_window:
        raise ValueError("target lengths do not match the schema window")
    parts = [getattr(targets, name) for name, _ in schema.output_blocks]
    if any(part is None for part in parts):
        raise ValueError("shortwave targets need a direct_down profile")
    return np.concatenate(parts, axis=-1)


@dataclass(frozen=True, eq=False)
class Normalization:
    """Per-feature z-score statistics (population std, floored)."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        mean = _as_float_array(self.mean, "mean")
        scale = _as_float_array(self.scale, "scale")
        if scale.size != mean.size:
            raise ValueError("mean and scale must have equal length")
        if np.any(scale <= 0):
            raise ValueError("scale must be strictly positive")
        mean.setflags(write=False)
        scale.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    def apply(self, x) -> np.ndarray:
        """(x - mean) / scale on (n, width) rows, in row blocks on `run_blocks`'s workers."""
        return _affine(x, np.subtract, self.mean, np.divide, self.scale)

    def invert(self, x) -> np.ndarray:
        """x * scale + mean on (n, width) rows, in row blocks on `run_blocks`'s workers."""
        return _affine(x, np.multiply, self.scale, np.add, self.mean)


def _affine_rows(x: np.ndarray, first, a: np.ndarray, second, b: np.ndarray, out: np.ndarray,
                 rows: slice) -> None:
    """`_affine`'s block: second(first(x, a), b) on `rows`, into `out`."""
    o = out[rows]
    first(x[rows], a, out=o, dtype=float)
    second(o, b, out=o)


def _affine(x, first, a: np.ndarray, second, b: np.ndarray) -> np.ndarray:
    """second(first(x, a), b) in float over (n, width) rows, width that of
    `a`, as one array in the layout of x, in row blocks on `run_blocks`."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != a.size:
        raise ValueError(f"expected (n, {a.size}) rows, got shape {x.shape}")
    out = np.empty_like(x, dtype=float)
    run_blocks(len(x), functools.partial(_affine_rows, x, first, a, second, b, out))
    return out


def fit_normalization(samples) -> Normalization:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a (n >= 2, features) sample matrix to fit normalization")
    mean = x.mean(axis=0)
    scale = np.maximum(x.std(axis=0), SCALE_FLOOR)
    return Normalization(mean=mean, scale=scale)


def targets_from_flux_effects(component: str, up, down, grid, consts: PhysConsts,
                              alpha: float | np.ndarray | None = None,
                              direct_down=None) -> EffectTargets:
    """Derive training targets (scalar flux + heating effect) on the window of
    `consts.p_trunc` from full-grid up/down flux-effect profiles: one
    column's vectors with a float `alpha`, or (n, n_hl) rows with an (n,)
    `alpha`. The window fields are copies: the targets never alias the
    caller's rows."""
    fields = _level_rows({"up": up, "down": down, "direct_down": direct_down}, {})
    if fields["up"].shape[-1] != grid.n_hl:
        raise ValueError(f"flux effects must have length n_hl={grid.n_hl}")
    heat = compute_heating_rates(fields["down"] - fields["up"], grid, consts)
    i0 = grid.window_start(consts.p_trunc)
    direct = fields.get("direct_down")
    return EffectTargets(component=component, scalar=fields["up"][..., i0:] + fields["down"][..., i0:],
                         heat=heat[..., i0:].copy(),
                         direct_down=None if direct is None else direct[..., i0:].copy(),
                         alpha=alpha if component == SW else None)
