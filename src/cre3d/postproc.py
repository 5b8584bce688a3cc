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

`postprocess_batch` is the one implementation, over (n, m) batches of
window columns; one column is a one-row batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .column import PhysConsts, VerticalGrid, _frozen, _level_rows
from .rowblocks import run_blocks

LW = "lw"
SW = "sw"

CAP_LO = 0.5
CAP_HI = 2.0
DEGENERATE_DIVERGENCE = 1e-9  # W m^-2; below this the multiplicative rescale is ill-posed


@dataclass(frozen=True, eq=False)
class EffectTargets:
    """3D effect on scalar flux, heating rate and (shortwave) direct flux:
    one column's vectors with a float `alpha`, or (n, levels) rows with an
    (n,) `alpha`, checked by the rules of FluxSet."""

    component: str  # "lw" | "sw"
    scalar: np.ndarray  # W m^-2, half levels
    heat: np.ndarray  # K s^-1, full levels
    direct_down: Optional[np.ndarray] = None  # W m^-2, half levels (SW)
    alpha: float | np.ndarray | None = None  # surface albedo (SW)

    def __post_init__(self) -> None:
        if self.component not in (LW, SW):
            raise ValueError(f"component must be 'lw' or 'sw', got {self.component!r}")
        fields = _level_rows({"scalar": self.scalar, "direct_down": self.direct_down},
                             {"heat": self.heat})
        self.__dict__.update((name, _frozen(arr)) for name, arr in fields.items())
        if self.component == SW:
            shape = self.scalar.shape[:-1]
            alpha = np.asarray(np.nan if self.alpha is None else self.alpha, dtype=float)
            if alpha.shape != shape or not np.all((alpha >= 0.0) & (alpha <= 1.0)):
                raise ValueError(f"shortwave targets need alpha in [0, 1] of shape {shape}, "
                                 f"got {self.alpha!r}")
            self.__dict__["alpha"] = float(alpha) if not shape else _frozen(alpha)


def postprocess_batch(component: str, scalar: np.ndarray, heat: np.ndarray,
                      grid: VerticalGrid, consts: PhysConsts,
                      alpha: Optional[np.ndarray] = None):
    """Vectorized steps i-iv over a batch of columns.

    `scalar` is (n, n_hl_window), `heat` is (n, n_fl_window); for the
    shortwave `alpha` is (n,). The window is the trailing m layers of
    `grid`. Returns (up, down, heat) matrices; each row depends on its
    own column only, so the rows run in blocks on `run_blocks`'s workers
    with the bits of one whole-batch pass.
    """
    scalar = np.asarray(scalar, dtype=float)
    heat = np.asarray(heat, dtype=float)
    if scalar.ndim != 2 or heat.ndim != 2 or scalar.shape != (heat.shape[0], heat.shape[1] + 1):
        raise ValueError(f"batch shapes inconsistent: scalar (n, m+1) and heat (n, m) expected, "
                         f"got {scalar.shape} and {heat.shape}")
    n, m = heat.shape
    if not 0 < m <= grid.n_fl:
        raise ValueError(f"window of {m} layers does not fit grid with n_fl={grid.n_fl}")
    if component == LW:
        a = None
    elif component == SW:
        a = None if alpha is None else np.asarray(alpha, dtype=float)
        if a is None or a.shape != (n,) or not np.all((a >= 0.0) & (a <= 1.0)):
            raise ValueError(f"shortwave batch needs per-column alpha, shape ({n},) in [0, 1]")
    else:
        raise ValueError(f"component must be 'lw' or 'sw', got {component!r}")
    dp = grid.dp[grid.n_fl - m:]
    up, down, heat_r = np.empty((n, m + 1)), np.empty((n, m + 1)), np.empty((n, m))
    run_blocks(n, functools.partial(_postprocess_rows, scalar, heat, a, dp, consts, up, down, heat_r))
    return up, down, heat_r


def _postprocess_rows(scalar: np.ndarray, heat: np.ndarray, a: Optional[np.ndarray], dp: np.ndarray,
                      consts: PhysConsts, up: np.ndarray, down: np.ndarray, heat_r: np.ndarray,
                      rows: slice) -> None:
    """`postprocess_batch`'s block: steps i-iv on `rows` of the checked
    batch (`a` is the shortwave albedo, None for the longwave), into their
    rows of up, down and heat_r."""
    scalar, heat, up, net, heat_r = scalar[rows], heat[rows], up[rows], down[rows], heat_r[rows]
    n, m = heat.shape
    delta_net = np.multiply(heat, -(consts.c_p / consts.g))
    delta_net *= dp
    d_heat = delta_net.sum(axis=1)
    # D_s from the scalar endpoints: no 3D effect on downwelling at TOA, nor on
    # LW surface emission; SW surface upwelling is alpha times downwelling.
    if a is None:
        d_scalar = scalar[:, -1] + scalar[:, 0]
    else:
        a = a[rows]
        d_scalar = scalar[:, -1] * (1.0 - a) / (1.0 + a) + scalar[:, 0]

    # Every fix-up below is a masked ufunc into a preset output: a row outside
    # its mask is not evaluated, so it raises no floating-point error.
    degenerate = np.abs(d_heat) < DEGENERATE_DIVERGENCE
    c_raw = np.divide(d_scalar, d_heat, out=np.ones(n), where=~degenerate)
    # c_raw, and so c, is 1 on degenerate rows: none of them counts as capped
    c = np.minimum(np.maximum(c_raw, CAP_LO), CAP_HI)

    np.multiply(c[:, None], heat, out=heat_r)
    delta_net *= c[:, None]  # rescaled in place; c is 1 on degenerate rows
    scalar_r = scalar.copy()

    capped = c != c_raw
    if capped.any():
        target = c * d_heat
        zero_ds = capped & (np.abs(d_scalar) < DEGENERATE_DIVERGENCE)
        mult = capped & ~zero_ds
        factor = np.divide(target, d_scalar, out=np.ones(n), where=mult)
        np.multiply(scalar_r, factor[:, None], out=scalar_r, where=mult[:, None])
        # A D_s this small is a rounding residue of zero, not a scale: shift the
        # TOA value instead (D_s has unit weight on it in both bands).
        np.add(scalar_r[:, 0], target, out=scalar_r[:, 0], where=zero_ds)
    if degenerate.any():  # c is ill-posed: spread the divergence gap evenly
        mask = degenerate[:, None]
        inc = (d_scalar - d_heat) / m
        np.add(delta_net, inc[:, None], out=delta_net, where=mask)
        np.multiply(delta_net, -(consts.g / consts.c_p), out=heat_r, where=mask)
        np.divide(heat_r, dp, out=heat_r, where=mask)

    net[:, 0] = -scalar_r[:, 0]
    np.cumsum(delta_net, axis=1, out=net[:, 1:])
    net[:, 1:] += net[:, :1]
    np.subtract(scalar_r, net, out=up)
    up *= 0.5
    net += scalar_r  # net's storage becomes down
    net *= 0.5
