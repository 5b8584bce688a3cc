"""Evaluation statistics, as `cre3d eval` reports them.

Bulk statistics pool every element of a (profiles x levels) matrix; the
error convention is prediction minus signal, and percentage errors are
100 * error statistic / signal statistic, computed separately for the
mean and mean-absolute columns. Heating-rate statistics are converted to
K per day only at this reporting boundary.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np


def _check_pair(signal, prediction):
    s = np.asarray(signal, dtype=float)
    p = np.asarray(prediction, dtype=float)
    if s.shape != p.shape:
        raise ValueError(f"signal shape {s.shape} != prediction shape {p.shape}")
    if s.size == 0:
        raise ValueError("need at least one element")
    return s, p


def _pct(numerator: float, denominator: float) -> float:
    # Zero-signal denominators are undefined, flagged as NaN rather than
    # silently producing a number.
    if denominator == 0.0:
        return math.nan
    return 100.0 * numerator / denominator


def bulk_stats(signal, prediction) -> Dict[str, float]:
    """Pooled mean / mean-absolute statistics of signal and error."""
    s, p = _check_pair(signal, prediction)
    with np.errstate(over="ignore", invalid="ignore"):  # huge values give inf, then nan
        err = p - s
        mean_signal = float(s.mean())
        mean_error = float(err.mean())
        mabs_signal = float(np.abs(s).mean())
        mabs_error = float(np.abs(err).mean())
    return {
        "mean_signal": mean_signal,
        "mean_error": mean_error,
        "pct_error": _pct(mean_error, mean_signal),
        "mabs_signal": mabs_signal,
        "mabs_error": mabs_error,
        "mabs_pct_error": _pct(mabs_error, mabs_signal),
    }


def _band(values: np.ndarray, coverage: float) -> np.ndarray:
    lo = (1.0 - coverage) / 2.0
    hi = (1.0 + coverage) / 2.0
    return np.quantile(values, [lo, hi], axis=0, method="linear")


def per_level_stats(signal, prediction) -> Dict[str, Dict[str, np.ndarray]]:
    """Per-level mean, mean-absolute and 50/90 % central quantile bands
    for signal, prediction and error (matrices are profiles x levels)."""
    s, p = _check_pair(signal, prediction)
    if s.ndim != 2:
        raise ValueError("per-level statistics need a (profiles, levels) matrix")
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):  # huge values give inf, then nan
        for name, values in (("signal", s), ("prediction", p), ("error", p - s)):
            out[name] = {
                "mean": values.mean(axis=0),
                "mabs": np.abs(values).mean(axis=0),
                "q50": _band(values, 0.50),
                "q90": _band(values, 0.90),
            }
    return out
