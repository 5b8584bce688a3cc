"""Evaluation statistics and the normalized-runtime benchmark.

Bulk statistics pool every element of a (profiles x levels) matrix; the
error convention is prediction minus signal, and percentage errors are
100 * error statistic / signal statistic, computed separately for the
mean and mean-absolute columns. Heating-rate statistics are converted to
K per day only at this reporting boundary.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

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
    for name, values in (("signal", s), ("prediction", p), ("error", p - s)):
        out[name] = {
            "mean": values.mean(axis=0),
            "mabs": np.abs(values).mean(axis=0),
            "q50": _band(values, 0.50),
            "q90": _band(values, 0.90),
        }
    return out


@dataclass
class BenchResult:
    """Normalized runtime over several repeats of a replicated batch."""

    n_profiles: int
    replication: int
    repeats: int
    total_s: List[float] = field(default_factory=list)
    stage_s: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def ms_per_profile(self) -> List[float]:
        return [1000.0 * t / self.n_profiles for t in self.total_s]

    @property
    def mean_ms(self) -> float:
        return statistics.fmean(self.ms_per_profile)

    @property
    def std_ms(self) -> float:
        values = self.ms_per_profile
        return statistics.pstdev(values) if len(values) > 1 else 0.0

    def stage_ms_per_profile(self) -> Dict[str, float]:
        return {name: 1000.0 * statistics.fmean(ts) / self.n_profiles
                for name, ts in self.stage_s.items()}

    def format(self) -> str:
        return f"{self.mean_ms:.6g} ± {self.std_ms:.3g} ms per profile"


def bench(runner: Callable, batch: Tuple[np.ndarray, ...], replication: int = 10,
          repeats: int = 3) -> BenchResult:
    """Time `runner` on a tuple of equal-length arrays (one row per
    profile), each concatenated `replication` times.

    The runner receives the replicated tuple and may return a dict of
    per-stage wall-clock seconds, which is recorded alongside the total.
    """
    if replication < 1:
        raise ValueError("replication must be >= 1")
    if repeats < 3:
        raise ValueError("need at least 3 repeats for a mean and spread")
    if len({len(a) for a in batch}) != 1:
        raise ValueError("batch must be a tuple of equal-length arrays")
    replicated = tuple(np.concatenate([a] * replication) for a in batch)

    result = BenchResult(n_profiles=len(replicated[0]), replication=replication, repeats=repeats)
    for _ in range(repeats):
        t0 = time.perf_counter()
        stages = runner(replicated)
        result.total_s.append(time.perf_counter() - t0)
        if isinstance(stages, dict):
            for name, dt in stages.items():
                result.stage_s.setdefault(name, []).append(float(dt))
    return result
