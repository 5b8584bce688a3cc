"""Dataset augmentation and the desk-scale synthetic truth generator.

Augmentation reproduces the simple scheme used for the emulators: plain
copies of the profile set with surface albedo and solar zenith cosine
re-assigned by independent draws from the originals' empirical marginals.

The toy truth replaces the expensive reference solver pair: a smooth,
deterministic recipe that maps cloud structure to 3D flux effects while
satisfying the boundary assumptions the postprocessing relies on (zero
downwelling effect at TOA; zero LW upwelling effect at the surface;
SW upwelling at the surface tied to the albedo). Its round trips are
therefore exact, which makes it a usable end-to-end learning target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .column import (
    AtmosphericProfile,
    PhysConsts,
    ProfileBatch,
    VerticalGrid,
    _LEVEL_FIELDS,
    _SCALAR_FIELDS,
    _frozen,
    _unchecked,
    compute_cloud_optical_depth,
    truncate_profile,
)
from .features import targets_from_flux_effects
from .postproc import LW, SW, EffectTargets


def augment_scalars(profiles: Sequence[AtmosphericProfile], k: int, seed: int) -> ProfileBatch:
    """Originals followed by k copies with re-assigned alpha and mu0.

    Replacements are drawn independently, with replacement, from the
    original value sets; every other field is repeated verbatim. A copy
    therefore satisfies the rules its original was validated against,
    and is not validated again. For k = 0 the input batch is returned.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if len(profiles) == 0:
        raise ValueError("need at least one profile")
    batch = ProfileBatch.from_profiles(profiles)
    if k == 0:
        return batch
    rng = np.random.default_rng(seed)
    drawn = {"alpha": [batch.alpha], "mu0": [batch.mu0]}
    for _ in range(k):
        for name, parts in drawn.items():
            parts.append(rng.choice(getattr(batch, name), size=len(batch), replace=True))
    fields = {name: _frozen(np.concatenate(drawn.get(name, [value] * (k + 1))))
              for name, value in vars(batch).items() if isinstance(value, np.ndarray)}
    ids = batch.ids + tuple(None if pid is None else f"{pid}_c{copy_idx}"
                            for copy_idx in range(1, k + 1) for pid in batch.ids)
    return _unchecked(ProfileBatch, **dict(vars(batch), ids=ids, **fields))


@dataclass(frozen=True)
class ToyTruthParams:
    amp_lw: float = 2.0  # W m^-2
    amp_sw: float = 3.0  # W m^-2
    decay: float = 5.0  # layers; vertical smearing scale


class ToyTruth(NamedTuple):
    """Window-sized truth: targets plus the up/down decomposition they came from."""

    lw: EffectTargets
    sw: EffectTargets
    up_lw: np.ndarray
    down_lw: np.ndarray
    up_sw: np.ndarray
    down_sw: np.ndarray
    direct_sw: np.ndarray


def _smear_kernels(n: int, decay: float):
    j = np.arange(n + 1)[:, None]  # half levels
    i = np.arange(n)[None, :]  # full levels
    down = np.where(i < j, np.exp(-(j - 1 - i) / decay), 0.0)
    up = np.where(i >= j, np.exp(-(i - j) / decay), 0.0)
    return down, up


def toy_truth(profiles, consts: PhysConsts,
              params: ToyTruthParams = ToyTruthParams()) -> ToyTruth:
    """Deterministic synthetic 3D-effect truth on the window: (n, levels) rows
    for a batch or a sequence of profiles, one column's vectors for one
    profile (the one-row case). Every row has the bits of a one-row call."""
    one = isinstance(profiles, AtmosphericProfile)
    batch = truncate_profile(ProfileBatch.from_profiles([profiles] if one else profiles), consts.p_trunc)
    wgrid = batch.grid
    tau = compute_cloud_optical_depth(batch, consts)
    w = batch.f_c * -np.expm1(-tau)
    n = wgrid.n_fl
    down_k, up_k = _smear_kernels(n, params.decay)
    taper = 1.0 - np.arange(n + 1) / (n + 1)
    # numpy runs a stacked matmul as one matrix-vector product per row, whose
    # bits a one-row call shares; one GEMM over all rows would round otherwise.
    smear_down = np.matmul(down_k, w[..., None])[..., 0]
    smear_up = np.matmul(up_k, w[..., None])[..., 0]

    scale = (params.amp_sw * batch.mu0)[:, None]
    # `scale * taper` first, as in the one-column form `scale * taper * (up_k @ w)`.
    rows = {"up_lw": params.amp_lw * taper * smear_up, "down_lw": params.amp_lw * smear_down,
            "up_sw": scale * taper * smear_up, "down_sw": scale * smear_down,
            "direct_sw": -scale * np.pad(np.cumsum(w, axis=-1), ((0, 0), (1, 0)))}
    rows["up_sw"][:, -1] = batch.alpha * rows["down_sw"][:, -1]
    for name in ("up_sw", "down_sw", "direct_sw"):
        rows[name][batch.mu0 <= 0] = 0.0  # assigned, so night rows are +0.0
    alpha = batch.alpha
    if one:
        rows = {name: row[0] for name, row in rows.items()}
        alpha = profiles.alpha

    # the rows are on the window grid, whose truncation keeps every level
    return ToyTruth(lw=targets_from_flux_effects(LW, rows["up_lw"], rows["down_lw"], wgrid, consts),
                    sw=targets_from_flux_effects(SW, rows["up_sw"], rows["down_sw"], wgrid, consts,
                                                 alpha, rows["direct_sw"]), **rows)


def make_reference_grid() -> VerticalGrid:
    """A 137-full-level grid whose tropospheric window (p_fl >= 50 hPa)
    holds exactly 90 full levels, mirroring the operational layout."""
    stratosphere = np.geomspace(1.0, 4500.0, 48)
    troposphere = np.geomspace(5600.0, 101325.0, 90)
    return VerticalGrid(np.concatenate([stratosphere, troposphere]))


def generate_profiles(n: int, grid: VerticalGrid, seed: int,
                      with_humidity: bool = True) -> ProfileBatch:
    """Random but physically plausible cloudy columns for desk-scale runs,
    as one batch validated once."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    p_fl = grid.p_fl
    p_sfc = grid.p_hl[-1]
    levels = {name: np.zeros((n, grid.n_fl)) for name in _LEVEL_FIELDS}
    scalars = {name: np.zeros(n) for name in _SCALAR_FIELDS}
    for idx in range(n):
        temp, f_c, q_l, q_i, r_l, r_i = (levels[name][idx] for name in levels)
        t_s = scalars["T_s"][idx] = rng.uniform(255.0, 305.0)
        temp[:] = np.maximum(200.0, t_s * (p_fl / p_sfc) ** 0.19)
        for _ in range(rng.integers(1, 4)):
            centre = rng.uniform(25000.0, 95000.0)
            half_width = rng.uniform(2000.0, 15000.0)
            layer = np.abs(p_fl - centre) < half_width
            if not layer.any():
                continue
            amount = rng.uniform(0.1, 1.0)
            f_c[layer] = np.clip(f_c[layer] + amount * rng.uniform(0.5, 1.0, layer.sum()), 0, 1)
            condensate = rng.uniform(1e-5, 5e-4)
            cold = temp < 258.0
            q_i[layer & cold] += condensate
            q_l[layer & ~cold] += condensate
        r_l[:] = rng.uniform(5e-6, 15e-6)
        r_i[:] = rng.uniform(2e-5, 6e-5)
        scalars["alpha"][idx] = rng.uniform(0.05, 0.8)
        scalars["mu0"][idx] = rng.uniform(-0.3, 1.0)
    q = np.tile(0.01 * (p_fl / p_sfc) ** 3, (n, 1)) if with_humidity else None
    return ProfileBatch(grid=grid, ids=[f"p{idx:06d}" for idx in range(n)], q=q, **levels, **scalars)
