"""Energy-consistent reconstruction of up/down flux effects.

The emulators predict, per column, the 3D effect on the scalar flux
(down plus up, half levels) and on heating rates (full levels). These
carry the same information as the net-flux effect but are easier to
predict; this module turns them back into consistent upwelling and
downwelling flux effects:

  i.   total divergence from the heating-rate profile,
  ii.  total divergence from the scalar-flux endpoints (band-specific),
  iii. rescale heating rates so both divergences agree, capping the
       factor to [0.5, 2] and rescaling the scalar fluxes if capped,
  iv.  integrate the net flux down from TOA and split into up/down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .column import (
    FluxSet,
    PhysConsts,
    VerticalGrid,
    _as_float_array,
    net_flux_increments,
)

LW = "lw"
SW = "sw"

CAP_LO = 0.5
CAP_HI = 2.0
DEGENERATE_DIVERGENCE = 1e-9  # W m^-2; below this the multiplicative rescale is ill-posed


@dataclass(frozen=True, eq=False)
class EffectTargets:
    """3D effect on scalar flux, heating rate and (shortwave) direct flux."""

    component: str  # "lw" | "sw"
    scalar: np.ndarray  # W m^-2, half levels
    heat: np.ndarray  # K s^-1, full levels
    direct_down: Optional[np.ndarray] = None  # W m^-2, half levels (SW)
    alpha: Optional[float] = None  # surface albedo (SW)

    def __post_init__(self) -> None:
        if self.component not in (LW, SW):
            raise ValueError(f"component must be 'lw' or 'sw', got {self.component!r}")
        scalar = _as_float_array(self.scalar, "scalar")
        heat = _as_float_array(self.heat, "heat")
        if scalar.size != heat.size + 1:
            raise ValueError("scalar must live on half levels: len(scalar) == len(heat) + 1")
        scalar.setflags(write=False)
        heat.setflags(write=False)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "heat", heat)
        if self.component == SW:
            if self.alpha is None or not (0.0 <= self.alpha <= 1.0):
                raise ValueError(f"shortwave targets need alpha in [0, 1], got {self.alpha!r}")
            if self.direct_down is not None:
                direct = _as_float_array(self.direct_down, "direct_down")
                if direct.size != scalar.size:
                    raise ValueError("direct_down must have the same length as scalar")
                direct.setflags(write=False)
                object.__setattr__(self, "direct_down", direct)

    @property
    def n_hl(self) -> int:
        return self.scalar.size


def divergence_from_heating(heat, grid: VerticalGrid, consts: PhysConsts) -> Tuple[float, np.ndarray]:
    """Step i: total atmospheric divergence and per-layer net-flux increments
    implied by a heating-rate profile (window or full)."""
    delta_net = net_flux_increments(heat, grid, consts)
    return math.fsum(delta_net.tolist()), delta_net


def divergence_from_scalar_lw(scalar) -> float:
    """Step ii, longwave: D = scalar(BOA) + scalar(TOA).

    Assumes zero 3D effect on downwelling at TOA and on surface emission."""
    s = _as_float_array(scalar, "scalar")
    if s.size == 0:
        raise ValueError("scalar profile is empty")
    return float(s[-1] + s[0])


def divergence_from_scalar_sw(scalar, alpha: float) -> float:
    """Step ii, shortwave: D = scalar(BOA) (1 - alpha) / (1 + alpha) + scalar(TOA),
    using S_up(BOA) = alpha * S_down(BOA)."""
    s = _as_float_array(scalar, "scalar")
    if s.size == 0:
        raise ValueError("scalar profile is empty")
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    return float(s[-1] * (1.0 - alpha) / (1.0 + alpha) + s[0])


def rescale(heat, delta_net, scalar, d_heat: float, d_scalar: float,
            grid: VerticalGrid, consts: PhysConsts):
    """Step iii: reconcile the two divergence estimates.

    Multiplies heating rates (and net increments) by c = clamp(d_scalar /
    d_heat, 0.5, 2); if clamping changed c, scalar fluxes are rescaled so
    both divergences equal c * d_heat. Near-zero d_heat switches to a
    uniform additive increment so the function stays total and degree-1
    homogeneous.
    """
    heat = _as_float_array(heat, "heat")
    delta_net = _as_float_array(delta_net, "delta_net")
    scalar = _as_float_array(scalar, "scalar")
    if delta_net.size != heat.size or scalar.size != heat.size + 1:
        raise ValueError("rescale inputs have inconsistent lengths")

    if abs(d_heat) < DEGENERATE_DIVERGENCE:
        # Multiplicative rescale undefined; distribute the divergence gap evenly.
        dp = grid.dp[grid.n_fl - heat.size:]
        increment = (d_scalar - d_heat) / heat.size
        delta_new = delta_net + increment
        heat_new = -(consts.g / consts.c_p) * delta_new / dp
        return heat_new, delta_new, scalar.copy(), 1.0

    c_raw = d_scalar / d_heat
    c = min(max(c_raw, CAP_LO), CAP_HI)
    heat_new = c * heat
    delta_new = c * delta_net
    if c == c_raw:
        return heat_new, delta_new, scalar.copy(), c
    target = c * d_heat
    if d_scalar == 0.0:
        # Scalar divergence has unit weight on the TOA value in both bands.
        scalar_new = scalar.copy()
        scalar_new[0] += target
    else:
        scalar_new = scalar * (target / d_scalar)
    return heat_new, delta_new, scalar_new, c


def split_fluxes(scalar, delta_net) -> Tuple[np.ndarray, np.ndarray]:
    """Step iv: integrate the net flux down from TOA (start value
    -scalar[TOA]) and split into up = (scalar - net)/2, down = (scalar + net)/2."""
    scalar = _as_float_array(scalar, "scalar")
    delta_net = _as_float_array(delta_net, "delta_net")
    if scalar.size != delta_net.size + 1:
        raise ValueError("scalar must have one more entry than delta_net")
    net = np.empty_like(scalar)
    net[0] = -scalar[0]
    net[1:] = net[0] + np.cumsum(delta_net)
    up = 0.5 * (scalar - net)
    down = 0.5 * (scalar + net)
    return up, down


def postprocess(targets: EffectTargets, grid: VerticalGrid, consts: PhysConsts) -> FluxSet:
    """Run steps i-iv on one column of predicted effects (window arrays)."""
    d_heat, delta_net = divergence_from_heating(targets.heat, grid, consts)
    if targets.component == LW:
        d_scalar = divergence_from_scalar_lw(targets.scalar)
    else:
        d_scalar = divergence_from_scalar_sw(targets.scalar, targets.alpha)
    heat_r, delta_r, scalar_r, _ = rescale(
        targets.heat, delta_net, targets.scalar, d_heat, d_scalar, grid, consts)
    up, down = split_fluxes(scalar_r, delta_r)
    direct = None if targets.direct_down is None else targets.direct_down.copy()
    return FluxSet(up=up, down=down, heat=heat_r, direct_down=direct)


def postprocess_batch(component: str, scalar: np.ndarray, heat: np.ndarray,
                      grid: VerticalGrid, consts: PhysConsts,
                      alpha: Optional[np.ndarray] = None):
    """Vectorized steps i-iv over a batch of columns.

    `scalar` is (n, n_hl_window), `heat` is (n, n_fl_window); for the
    shortwave `alpha` is (n,). Returns (up, down, heat) matrices.
    Matches `postprocess` column-by-column.
    """
    scalar = np.asarray(scalar, dtype=float)
    heat = np.asarray(heat, dtype=float)
    if scalar.ndim != 2 or heat.ndim != 2 or scalar.shape[1] != heat.shape[1] + 1:
        raise ValueError("batch shapes inconsistent: scalar (n, m+1) and heat (n, m) expected")
    n, m = heat.shape
    dp = grid.dp[grid.n_fl - m:]

    delta_net = np.multiply(heat, -(consts.c_p / consts.g))
    delta_net *= dp
    d_heat = delta_net.sum(axis=1)
    if component == LW:
        d_scalar = scalar[:, -1] + scalar[:, 0]
    elif component == SW:
        if alpha is None:
            raise ValueError("shortwave batch needs per-column alpha")
        a = np.asarray(alpha, dtype=float)
        d_scalar = scalar[:, -1] * (1.0 - a) / (1.0 + a) + scalar[:, 0]
    else:
        raise ValueError(f"component must be 'lw' or 'sw', got {component!r}")

    degenerate = np.abs(d_heat) < DEGENERATE_DIVERGENCE
    safe_dh = np.where(degenerate, 1.0, d_heat)
    c_raw = d_scalar / safe_dh
    c = np.clip(c_raw, CAP_LO, CAP_HI)
    c = np.where(degenerate, 1.0, c)

    heat_r = c[:, None] * heat
    delta_net *= c[:, None]  # rescaled in place; c is 1 on degenerate rows
    scalar_r = scalar.copy()

    capped = (c != c_raw) & ~degenerate
    if np.any(capped):
        target = c * d_heat
        zero_ds = capped & (d_scalar == 0.0)
        mult = capped & ~zero_ds
        if np.any(mult):
            factor = np.ones(n)
            factor[mult] = target[mult] / d_scalar[mult]
            scalar_r[mult] *= factor[mult, None]
        if np.any(zero_ds):
            scalar_r[zero_ds, 0] += target[zero_ds]
    if np.any(degenerate):
        inc = (d_scalar - d_heat) / m
        delta_net[degenerate] += inc[degenerate, None]
        heat_r[degenerate] = -(consts.g / consts.c_p) * delta_net[degenerate] / dp

    net = np.empty_like(scalar_r)
    net[:, 0] = -scalar_r[:, 0]
    np.cumsum(delta_net, axis=1, out=net[:, 1:])
    net[:, 1:] += net[:, :1]
    up = 0.5 * (scalar_r - net)
    net += scalar_r  # net's storage becomes down
    net *= 0.5
    return up, net, heat_r
