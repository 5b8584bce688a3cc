"""Vertical grid bookkeeping, atmospheric profiles, and column physics.

Arrays run top-of-atmosphere (index 0) to surface. Fluxes live on half
levels (layer interfaces), heating rates and cloud properties on full
levels (layer centres). All quantities are SI; heating rates are K s^-1.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

GRAVITY = 9.81  # m s^-2
SPECIFIC_HEAT_DRY_AIR = 1004.0  # J kg^-1 K^-1
DRY_AIR_GAS_CONSTANT = 287.0  # J kg^-1 K^-1, for layer-thickness estimates
SECONDS_PER_DAY = 86400.0

DEFAULT_P_TRUNC = 5000.0  # Pa; tropospheric window boundary (50 hPa)


@dataclass(frozen=True)
class PhysConsts:
    """Physical constants used by the column formulas.

    Liquid/ice densities are standard textbook values; the truncation
    pressure marks the top of the corrected tropospheric window.
    """

    g: float = GRAVITY
    c_p: float = SPECIFIC_HEAT_DRY_AIR
    rho_l: float = 1000.0  # kg m^-3
    rho_i: float = 917.0  # kg m^-3
    p_trunc: float = DEFAULT_P_TRUNC  # Pa

    def __post_init__(self) -> None:
        for name in ("g", "c_p", "rho_l", "rho_i", "p_trunc"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"PhysConsts.{name} must be finite and > 0, got {value!r}")


class RowError(ValueError):
    """A rule broken by one row of a batch; `row` counts from 0."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row
        self.message = message


def _unchecked(cls, **fields):
    """An instance of a validated dataclass built, without running its
    checks, from fields known to satisfy them: rows, slices or copies of
    data that was validated once already."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array")
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"{name} contains a non-finite value at level {bad}")
    return arr


def _level_rows(half: dict, full: dict) -> dict:
    """Float arrays for the half-level fields `half` (None values left out)
    and the full-level fields `full`: one column's vectors or n columns'
    (n, levels) rows. Every half-level field has the first one's shape,
    every full-level field one level less, and all values are finite; a
    RowError names the first row with a non-finite value."""
    arrays = {name: np.asarray(value, dtype=float)
              for name, value in {**half, **full}.items() if value is not None}
    ref = next(iter(half))
    shape = arrays[ref].shape
    if len(shape) not in (1, 2):
        raise ValueError(f"{ref} must be a 1-D array or (n, levels) rows")
    for name, arr in arrays.items():
        want = shape if name in half else shape[:-1] + (shape[-1] - 1,)
        if arr.shape != want:
            raise ValueError(f"{name} must have shape {want}, got {arr.shape}: half levels "
                             f"share {ref}'s length and rows, full levels have one less")
    bad = [(tuple(np.argwhere(~np.isfinite(arr))[0].tolist()), name)
           for name, arr in arrays.items() if not np.all(np.isfinite(arr))]
    if bad:
        (*row, level), name = min(bad)
        message = f"{name} contains a non-finite value at level {level}"
        raise RowError(row[0], message) if row else ValueError(message)
    return arrays


def _as_level_array(x, name: str, n_fl: int) -> np.ndarray:
    """One profile's full-level field as a float vector of length n_fl."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array")
    if arr.size != n_fl:
        raise ValueError(f"{name} must have length n_fl={n_fl}, got {arr.size}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class VerticalGrid:
    """Half-level pressure coordinate, strictly increasing TOA to surface.

    The grid holds its own read-only copy of `p_hl`, so the values derived
    from it (`p_fl`, `dp`, and the window start and window grid of each
    truncation pressure) are computed once per grid and kept."""

    p_hl: np.ndarray

    def __post_init__(self) -> None:
        p = _as_float_array(self.p_hl, "p_hl")
        if p.size < 2:
            raise ValueError("p_hl needs at least two half levels")
        if p[0] < 0:
            raise ValueError("top-of-atmosphere pressure must be >= 0")
        if not np.all(np.diff(p) > 0):
            bad = int(np.flatnonzero(np.diff(p) <= 0)[0])
            raise ValueError(f"half-level pressures must increase strictly; violated at index {bad}")
        object.__setattr__(self, "p_hl", _frozen(p.copy()))
        object.__setattr__(self, "_windows", {})  # p_trunc -> (window start, window grid)

    @property
    def n_hl(self) -> int:
        return self.p_hl.size

    @property
    def n_fl(self) -> int:
        return self.p_hl.size - 1

    @functools.cached_property
    def p_fl(self) -> np.ndarray:
        return _frozen(0.5 * (self.p_hl[:-1] + self.p_hl[1:]))

    @functools.cached_property
    def dp(self) -> np.ndarray:
        return _frozen(np.diff(self.p_hl))

    def _window(self, p_trunc: float) -> tuple:
        known = self._windows.get(p_trunc)
        if known is None:
            inside = np.flatnonzero(self.p_fl >= p_trunc)
            if inside.size == 0:
                raise ValueError(f"no full level has p_fl >= {p_trunc} Pa; window is empty")
            i0 = int(inside[0])
            known = self._windows.setdefault(p_trunc, (i0, VerticalGrid(self.p_hl[i0:])))
        return known

    def window_start(self, p_trunc: float = DEFAULT_P_TRUNC) -> int:
        """First full-level index inside the tropospheric window (p_fl >= p_trunc).
        The window is contiguous and ends at the surface, so a full- or
        half-level array's window is `x[..., window_start(p_trunc):]`."""
        return self._window(p_trunc)[0]

    def window(self, p_trunc: float = DEFAULT_P_TRUNC) -> "VerticalGrid":
        """Grid restricted to the half levels bounding the window full levels."""
        return self._window(p_trunc)[1]

    def same_as(self, other: "VerticalGrid") -> bool:
        return self.p_hl.size == other.p_hl.size and bool(np.array_equal(self.p_hl, other.p_hl))


_LEVEL_FIELDS = ("T", "f_c", "q_l", "q_i", "r_l", "r_i")
_SCALAR_FIELDS = ("T_s", "alpha", "mu0")


def _check_profile_values(f: dict) -> None:
    """Raise RowError for the first row that breaks a profile rule, naming
    the first rule it breaks in this order. Full-level fields are (n, n_fl)
    arrays (`q` may be absent), T_s/alpha/mu0 are (n,) arrays."""
    at_level = "; violated at level {}"
    rules = [(~np.isfinite(f[name]), f"{name} contains a non-finite value at level {{}}", None)
             for name in _LEVEL_FIELDS + ("q",) if name in f]
    rules += [((f["f_c"] < 0) | (f["f_c"] > 1), "f_c must lie in [0, 1]" + at_level, None),
              (f["q_l"] < 0, "q_l must be >= 0" + at_level, None),
              (f["q_i"] < 0, "q_i must be >= 0" + at_level, None),
              (~((f["alpha"] >= 0) & (f["alpha"] <= 1)), "alpha must lie in [0.0, 1.0], got {}", f["alpha"]),
              (~((f["mu0"] >= -1) & (f["mu0"] <= 1)), "mu0 must lie in [-1.0, 1.0], got {}", f["mu0"]),
              (~np.isfinite(f["T_s"]), "T_s must be finite", None),
              ((f["q_l"] > 0) & (f["r_l"] <= 0), "r_l must be > 0 where condensate is present" + at_level, None),
              ((f["q_i"] > 0) & (f["r_i"] <= 0), "r_i must be > 0 where condensate is present" + at_level, None)]
    bad = {1: np.zeros(f["T_s"].shape, bool), 2: np.zeros(f["T"].shape, bool)}
    for mask, _, _ in rules:
        bad[mask.ndim] |= mask
    bad_rows = np.flatnonzero(bad[2].any(axis=1) | bad[1])
    if bad_rows.size:
        row = int(bad_rows[0])
        mask, text, value = next(rule for rule in rules if rule[0][row].any())
        detail = int(np.flatnonzero(mask[row])[0]) if value is None else repr(float(value[row]))
        raise RowError(row, text.format(detail))


@dataclass(frozen=True, eq=False)
class AtmosphericProfile:
    """Per-column physical state on a vertical grid.

    `q` (specific humidity) is optional: it only feeds the optional
    humidity input block of the emulators and plays no role elsewhere.
    Rows of a ProfileBatch are AtmosphericProfile views that share the
    batch's arrays and are not validated again.
    """

    grid: VerticalGrid
    T: np.ndarray  # K, full levels
    f_c: np.ndarray  # cloud fraction, full levels
    q_l: np.ndarray  # liquid mixing ratio, kg kg^-1
    q_i: np.ndarray  # ice mixing ratio, kg kg^-1
    r_l: np.ndarray  # liquid effective radius, m
    r_i: np.ndarray  # ice effective radius, m
    T_s: float  # surface temperature, K
    alpha: float  # surface shortwave albedo
    mu0: float  # cosine of solar zenith angle
    q: Optional[np.ndarray] = None  # specific humidity, kg kg^-1
    pid: Optional[str] = None

    def __post_init__(self) -> None:
        levels = {name: _frozen(_as_level_array(getattr(self, name), name, self.grid.n_fl))
                  for name in _LEVEL_FIELDS + (() if self.q is None else ("q",))}
        self.__dict__.update(levels)
        try:
            _check_profile_values({**{name: arr[None] for name, arr in levels.items()},
                                   **{name: np.array([getattr(self, name)], dtype=float)
                                      for name in _SCALAR_FIELDS}})
        except RowError as exc:
            raise ValueError(exc.message) from None


@dataclass(frozen=True, eq=False)
class ProfileBatch(Sequence):
    """Profiles on one shared grid, stored column-wise and validated once.

    Full-level fields are (n, n_fl) arrays, T_s/alpha/mu0 are (n,) arrays
    and `ids` holds one id (or None) per row. The rules are those of
    AtmosphericProfile; a RowError names the first bad row, counted from 0.
    Indexing and iterating give AtmosphericProfile one-row views, slicing
    gives batches; none of them is validated again.
    """

    grid: VerticalGrid
    T: np.ndarray
    f_c: np.ndarray
    q_l: np.ndarray
    q_i: np.ndarray
    r_l: np.ndarray
    r_i: np.ndarray
    T_s: np.ndarray
    alpha: np.ndarray
    mu0: np.ndarray
    ids: Sequence[Optional[str]]
    q: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        fields = {}
        for name in _LEVEL_FIELDS + _SCALAR_FIELDS + (() if self.q is None else ("q",)):
            shape = (len(self.ids),) if name in _SCALAR_FIELDS else (len(self.ids), self.grid.n_fl)
            fields[name] = _frozen(np.asarray(getattr(self, name), dtype=float))
            if fields[name].shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {fields[name].shape}")
        self.__dict__.update(fields)
        _check_profile_values(fields)

    @classmethod
    def from_profiles(cls, profiles: Sequence[AtmosphericProfile]) -> "ProfileBatch":
        """Stack validated profiles (a batch is returned as it is). They must
        share one grid, and carry specific humidity all or none."""
        if isinstance(profiles, ProfileBatch):
            return profiles
        profiles = list(profiles)
        if not profiles:
            raise ValueError("no profiles given")
        first = profiles[0]
        for i, p in enumerate(profiles):
            if p.grid is not first.grid and not first.grid.same_as(p.grid):
                raise ValueError(f"profiles must share one vertical grid; profile {i} differs from profile 0")
            if (p.q is None) != (first.q is None):
                raise ValueError(f"profiles must all carry q or none; profile {i} differs from profile 0")
        fields = {name: _frozen(np.array([getattr(p, name) for p in profiles], dtype=float))
                  for name in _LEVEL_FIELDS + _SCALAR_FIELDS + (() if first.q is None else ("q",))}
        return _unchecked(cls, **{"q": None, **fields}, grid=first.grid, ids=tuple(p.pid for p in profiles))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return _unchecked(ProfileBatch, **{name: value if name == "grid" or value is None else value[index]
                                               for name, value in vars(self).items()})
        i = range(len(self.ids))[index]
        return _unchecked(AtmosphericProfile, grid=self.grid, pid=self.ids[i],
                          q=None if self.q is None else self.q[i],
                          **{name: getattr(self, name)[i] for name in _LEVEL_FIELDS},
                          **{name: float(getattr(self, name)[i]) for name in _SCALAR_FIELDS})


@dataclass(frozen=True, eq=False)
class FluxSet:
    """Up/down (and optionally direct-down) fluxes on half levels, with
    the heating-rate profile they imply on full levels: one column's
    vectors or (n, levels) rows, checked by the same rules."""

    up: np.ndarray
    down: np.ndarray
    heat: np.ndarray
    direct_down: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        fields = _level_rows({"up": self.up, "down": self.down, "direct_down": self.direct_down},
                             {"heat": self.heat})
        self.__dict__.update((name, _frozen(arr)) for name, arr in fields.items())


def compute_cloud_optical_depth(profile, consts: PhysConsts) -> np.ndarray:
    """Cloud optical depth per layer in the geometric-optics limit.

    tau = (3/2) (dp/g) (q_l / (rho_l r_l) + q_i / (rho_i r_i)), exactly
    zero where both condensate mixing ratios are zero. Takes one profile
    (returns (n_fl,)) or a batch or sequence of profiles (returns (n, n_fl)).
    Validated profiles have r > 0 wherever condensate is present.
    """
    if not isinstance(profile, AtmosphericProfile):
        profile = ProfileBatch.from_profiles(profile)
    q_l, q_i = profile.q_l, profile.q_i
    term_l = np.divide(q_l, consts.rho_l * profile.r_l, out=np.zeros(q_l.shape), where=q_l > 0)
    term_i = np.divide(q_i, consts.rho_i * profile.r_i, out=np.zeros(q_i.shape), where=q_i > 0)
    term_l += term_i
    return np.multiply(1.5 * (profile.grid.dp / consts.g), term_l, out=term_l)


def compute_heating_rates(net_flux, grid: VerticalGrid, consts: PhysConsts) -> np.ndarray:
    """Heating rate per layer from a net-flux (down minus up) profile, or
    from (n, n_hl) rows of them.

    H_i = -(g/c_p) * dF_i / dp_i with d taken base-minus-top, so a layer
    that absorbs (net flux decreasing downwards) warms.
    """
    f = _level_rows({"net_flux": net_flux}, {})["net_flux"]
    if f.shape[-1] != grid.n_hl:
        raise ValueError(f"net_flux must have length n_hl={grid.n_hl}, got {f.shape[-1]}")
    return -(consts.g / consts.c_p) * np.diff(f, axis=-1) / grid.dp


def _extend(window: dict, i0: int) -> dict:
    """Window flux fields (vectors or rows) with `i0` levels added on top:
    zero there, except `up`, held at its window-top value."""
    full = {}
    for name, w in window.items():
        # every level of `up` is written below, so it is not zero-filled first
        full[name] = (np.empty if name == "up" else np.zeros)(w.shape[:-1] + (i0 + w.shape[-1],))
        full[name][..., i0:] = w
    full["up"][..., :i0] = window["up"][..., :1]
    return full


def extend_to_full(up_trunc, down_trunc, direct_trunc, heat_trunc,
                   grid: VerticalGrid, p_trunc: float = DEFAULT_P_TRUNC) -> FluxSet:
    """Recover full-grid flux profiles from window ones (one column's
    vectors or (n, levels) rows).

    Downwelling (total and direct) and heating are zero above the window;
    upwelling is held constant at its topmost in-window value.
    """
    i0 = grid.window_start(p_trunc)
    window = _level_rows({"up": up_trunc, "down": down_trunc, "direct_down": direct_trunc},
                         {"heat": heat_trunc})
    if window["up"].shape[-1] != grid.n_hl - i0:
        raise ValueError(f"window flux arrays must have length {grid.n_hl - i0}")
    return FluxSet(**_extend(window, i0))


def apply_correction(baseline: FluxSet, effect: FluxSet,
                     grid: VerticalGrid, consts: PhysConsts) -> FluxSet:
    """Add an effect FluxSet to a baseline one of the same shape (one column
    or rows); heating rates are recomputed from the corrected net flux."""
    if baseline.up.shape != effect.up.shape:
        raise ValueError(f"baseline and effect differ in grid or rows: {baseline.up.shape}, {effect.up.shape}")
    if baseline.up.shape[-1] != grid.n_hl:
        raise ValueError(f"flux sets do not match grid with n_hl={grid.n_hl}")
    direct = None
    if baseline.direct_down is not None or effect.direct_down is not None:
        b = baseline.direct_down if baseline.direct_down is not None else 0.0
        e = effect.direct_down if effect.direct_down is not None else 0.0
        direct = b + e
    up, down = baseline.up + effect.up, baseline.down + effect.down
    return FluxSet(up=up, down=down, heat=compute_heating_rates(down - up, grid, consts), direct_down=direct)


def truncate_profile(profile, p_trunc: float = DEFAULT_P_TRUNC):
    """Profile (or ProfileBatch) restricted to the tropospheric window grid.

    Slices of validated data are valid, so they are not checked again.
    """
    i0 = profile.grid.window_start(p_trunc)
    fields = dict(vars(profile), grid=profile.grid.window(p_trunc))
    for name in _LEVEL_FIELDS + ("q",):
        if fields[name] is not None:
            fields[name] = fields[name][..., i0:]
    return _unchecked(type(profile), **fields)
