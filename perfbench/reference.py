"""The benchmark's own numpy: model-file forward pass, physics checks, errors.

Nothing here calls the program. The checks use properties the method must
have (energy consistency, boundary values, night zeroing, the rescale cap)
and a forward pass computed from the model file, never stored outputs.
"""

from __future__ import annotations

import json

import numpy as np

SECONDS_PER_DAY = 86400.0
CAP_LO, CAP_HI = 0.5, 2.0
DEGENERATE = 1e-9        # W m^-2; the method's threshold for the additive branch
FLOAT64_RTOL = 1e-11     # rounding tolerance for float64 sums over ~100 levels
# Postprocessed heat must be a scalar multiple of the raw network heat. The
# tolerance admits a float32 network (relative error ~1e-7 per layer).
MULTIPLE_RTOL = 1e-5
CHUNK_RTOL = 1e-9        # chunked vs one-call results, float64 network


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Model files


class ModelFile:
    """A model file read with the benchmark's own parser."""

    def __init__(self, path):
        with open(path) as fh:
            obj = json.load(fh)
        s = obj["schema"]
        self.component = obj["component"]
        self.n_hl = int(s["n_hl_window"])
        self.n_fl = int(s["n_fl_window"])
        self.layers = [(np.array(l["w_rowmajor"], dtype=float).reshape(l["rows"], l["cols"]),
                        np.array(l["b"], dtype=float)) for l in obj["layers"]]
        norm = obj["normalization"]
        self.in_mean = np.array(norm["in"]["mean"])
        self.in_scale = np.array(norm["in"]["scale"])
        self.out_mean = np.array(norm["out"]["mean"])
        self.out_scale = np.array(norm["out"]["scale"])
        self.g = float(obj["constants"]["g"])
        self.c_p = float(obj["constants"]["c_p"])
        self.p_trunc = float(obj["constants"]["p_trunc"])
        self.training = obj.get("training", {})
        # Features with no spread in the training set: the program floors
        # their scale, so any other value is blown up by ~1e8 at inference.
        self.unspread = self.in_scale <= 1e-8

    def raw_outputs(self, x):
        """Denormalized network outputs (scalar | [direct] | heat) for raw inputs x."""
        h = (x - self.in_mean) / self.in_scale
        for k, (w, b) in enumerate(self.layers):
            h = h @ w.T + b
            if k < len(self.layers) - 1:
                h = np.where(h > 0, h, np.expm1(np.minimum(h, 0.0)))
        return h * self.out_scale + self.out_mean

    def split(self, raw):
        scalar = raw[:, :self.n_hl]
        heat = raw[:, -self.n_fl:]
        direct = raw[:, self.n_hl:2 * self.n_hl] if self.component == "sw" else None
        return scalar, direct, heat

    def unseen_columns(self, x):
        """Columns with a value the training set never had in a no-spread feature."""
        return np.any(x[:, self.unspread] != self.in_mean[self.unspread], axis=1)


def window_start(p_hl, p_trunc):
    p_fl = 0.5 * (p_hl[:-1] + p_hl[1:])
    return int(np.flatnonzero(p_fl >= p_trunc)[0])


# ---------------------------------------------------------------------------
# Checks on postprocessed outputs


def check_energy(up, down, heat, dp, g, c_p, label):
    """-(g/c_p) d(down - up)/dp equals the written heat, compared in flux units."""
    dnet = np.diff(down - up, axis=1)
    implied = -(c_p / g) * heat * dp
    scale = np.maximum(1.0, np.max(np.abs(np.hstack([up, down])), axis=1))
    residual = np.max(np.abs(dnet - implied), axis=1)
    worst = int(np.argmax(residual / scale))
    require(np.all(residual <= FLOAT64_RTOL * scale),
            f"{label}: heat disagrees with fluxes by {residual[worst]:.3g} W m-2 in column {worst}")
    return float(np.max(residual))


def check_full_grid(out, i0, label):
    """Boundary values of full-grid effect arrays (TOA first)."""
    up, down, heat = out["up"], out["down"], out["heat"]
    require(np.all(down[:, :i0 + 1] == 0.0), f"{label}: downwelling nonzero at or above the window top")
    require(np.all(heat[:, :i0] == 0.0), f"{label}: heating nonzero above the window")
    require(np.all(up[:, :i0] == up[:, i0:i0 + 1]), f"{label}: upwelling not constant above the window")
    if "direct_down" in out:
        require(np.all(out["direct_down"][:, :i0] == 0.0), f"{label}: direct flux nonzero above the window")


def check_window_top(down, label):
    require(np.all(down[:, 0] == 0.0), f"{label}: downwelling effect nonzero at the window top")


def check_night(out_sw, mu0, label):
    night = mu0 <= 0
    for key, arr in out_sw.items():
        require(np.all(arr[night] == 0.0), f"{label}: SW {key} nonzero in a night column")


def rescale_factors(model, raw, alpha, mu0, dp_window):
    """The method's rescale factor per column from raw outputs, with its branch."""
    scalar, _, heat = model.split(raw)
    if model.component == "sw":
        scalar = np.where((mu0 > 0)[:, None], scalar, 0.0)
        heat = np.where((mu0 > 0)[:, None], heat, 0.0)
        d_scalar = scalar[:, -1] * (1.0 - alpha) / (1.0 + alpha) + scalar[:, 0]
    else:
        d_scalar = scalar[:, -1] + scalar[:, 0]
    d_heat = np.sum(-(model.c_p / model.g) * heat * dp_window, axis=1)
    degenerate = np.abs(d_heat) < DEGENERATE
    c_raw = d_scalar / np.where(degenerate, 1.0, d_heat)
    return heat, c_raw, degenerate


def check_rescale(model, raw, heat_post, alpha, mu0, dp_window, label):
    """Postprocessed heat is c x raw heat with c in [0.5, 2] (non-degenerate
    columns). Returns the branch shares of the columns."""
    heat_raw, c_raw, degenerate = rescale_factors(model, raw, alpha, mu0, dp_window)
    # Columns within a rounding margin of the degenerate threshold may take
    # either branch; they are left out of the multiple check.
    sure = np.abs(np.sum(-(model.c_p / model.g) * heat_raw * dp_window, axis=1)) > 10 * DEGENERATE
    hr, hp = heat_raw[sure], heat_post[sure]
    c = np.sum(hp * hr, axis=1) / np.sum(hr * hr, axis=1)
    require(np.all((c >= CAP_LO * (1 - MULTIPLE_RTOL)) & (c <= CAP_HI * (1 + MULTIPLE_RTOL))),
            f"{label}: rescale factor outside [0.5, 2]: {c.min():.6g}..{c.max():.6g}")
    off = np.max(np.abs(hp - c[:, None] * hr), axis=1)
    require(np.all(off <= MULTIPLE_RTOL * np.max(np.abs(hr), axis=1)),
            f"{label}: postprocessed heat is not a multiple of the raw network heat")
    n = len(c_raw)
    live = ~degenerate
    return {"lo_cap": float(np.sum(live & (c_raw < CAP_LO)) / n),
            "hi_cap": float(np.sum(live & (c_raw > CAP_HI)) / n),
            "degenerate": float(np.sum(degenerate) / n)}


def check_close(a, b, label, rtol=CHUNK_RTOL):
    """Same columns through different call sizes agree to float64 rounding,
    relative to each column's largest value."""
    diff = np.max(np.abs(a - b), axis=1)
    scale = np.max(np.abs(b), axis=1)
    require(np.all(diff <= rtol * scale),
            f"{label}: differs by up to {np.max(diff / np.where(scale > 0, scale, 1.0)):.3g} "
            f"(relative) between call sizes")


def check_toy_truth(up, down, alpha, component, label):
    require(np.all(down[:, 0] == 0.0), f"{label}: toy truth downwelling nonzero at TOA")
    if component == "lw":
        require(np.all(up[:, -1] == 0.0), f"{label}: toy truth LW upwelling nonzero at the surface")
    else:
        gap = np.abs(up[:, -1] - alpha * down[:, -1])
        require(np.all(gap <= FLOAT64_RTOL * np.maximum(1.0, np.abs(down[:, -1]))),
                f"{label}: toy truth SW up(BOA) != alpha * down(BOA)")


# ---------------------------------------------------------------------------
# Accuracy


def errors(up, down, heat, up_t, down_t, heat_t):
    """Window-level errors of one component against the truth.

    Returns (flux MAE, median over columns of the column flux MAE, heating
    MAE in K/day)."""
    col = np.mean(np.abs(np.hstack([up - up_t, down - down_t])), axis=1)
    return (float(np.mean(col)), float(np.median(col)),
            float(np.mean(np.abs(heat - heat_t)) * SECONDS_PER_DAY))


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def flux_arrays(records):
    out = {key: np.array([r[key] for r in records], dtype=float) for key in ("up", "down", "heat")}
    if records and "direct_down" in records[0]:
        out["direct_down"] = np.array([r["direct_down"] for r in records], dtype=float)
    return out
