import math

import numpy as np
import pytest

from cre3d.evalbench import bulk_stats, per_level_stats


def naive_bulk(signal, prediction):
    """Independent scalar-loop reference implementation."""
    s = [float(v) for v in np.asarray(signal).ravel()]
    p = [float(v) for v in np.asarray(prediction).ravel()]
    n = len(s)
    err = [b - a for a, b in zip(s, p)]
    mean_s = sum(s) / n
    mean_e = sum(err) / n
    mabs_s = sum(abs(v) for v in s) / n
    mabs_e = sum(abs(v) for v in err) / n
    return mean_s, mean_e, mabs_s, mabs_e


class TestBulkStats:
    def test_perfect_prediction(self):
        x = np.arange(1.0, 10.0)
        stats = bulk_stats(x, x)
        assert stats["mean_error"] == 0.0
        assert stats["mabs_error"] == 0.0
        assert stats["pct_error"] == 0.0
        assert stats["mabs_pct_error"] == 0.0

    def test_hand_values(self):
        stats = bulk_stats(np.array([1.0, -1.0]), np.array([2.0, 0.0]))
        assert stats["mean_signal"] == 0.0
        assert stats["mean_error"] == 1.0
        assert math.isnan(stats["pct_error"])  # zero mean signal
        assert stats["mabs_signal"] == 1.0
        assert stats["mabs_error"] == 1.0
        assert stats["mabs_pct_error"] == 100.0

    def test_published_style_ratio(self):
        # a mean-absolute signal of 0.55 with error 0.00048 reports 0.087 %
        pct = 100.0 * 0.00048 / 0.55
        stats = bulk_stats(np.array([0.55, -0.55]), np.array([0.55048, -0.55048]))
        assert stats["mabs_pct_error"] == pytest.approx(pct, rel=1e-12)
        assert f"{stats['mabs_pct_error']:.3f}" == "0.087"

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        s = rng.normal(size=(13, 7))
        p = s + rng.normal(scale=0.1, size=s.shape)
        mean_s, mean_e, mabs_s, mabs_e = naive_bulk(s, p)
        stats = bulk_stats(s, p)
        assert stats["mean_signal"] == pytest.approx(mean_s, rel=1e-12)
        assert stats["mean_error"] == pytest.approx(mean_e, rel=1e-12)
        assert stats["mabs_signal"] == pytest.approx(mabs_s, rel=1e-12)
        assert stats["mabs_error"] == pytest.approx(mabs_e, rel=1e-12)
        assert stats["pct_error"] == pytest.approx(100.0 * mean_e / mean_s, rel=1e-12)

    def test_percentage_is_scale_invariant(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(0.5, 2.0, size=50)
        p = s * 1.03
        a = bulk_stats(s, p)
        b = bulk_stats(7.0 * s, 7.0 * p)
        assert a["mabs_pct_error"] == pytest.approx(b["mabs_pct_error"], rel=1e-12)

    def test_mabs_bounds_mean(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=100)
        p = rng.normal(size=100)
        stats = bulk_stats(s, p)
        assert stats["mabs_error"] >= abs(stats["mean_error"])
        assert stats["mabs_signal"] >= abs(stats["mean_signal"])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            bulk_stats(np.zeros(3), np.zeros(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            bulk_stats(np.zeros(0), np.zeros(0))


class TestPerLevelStats:
    def test_constant_columns_collapse(self):
        s = np.tile(np.array([1.0, 2.0, 3.0]), (6, 1))
        out = per_level_stats(s, s)
        np.testing.assert_array_equal(out["signal"]["mean"], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(out["signal"]["q50"][0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(out["signal"]["q90"][1], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(out["error"]["mabs"], 0.0)

    def test_quantile_hand_values(self):
        # 1..100 in one column: the central 50 % band is [25.75, 75.25]
        col = np.arange(1.0, 101.0)[:, None]
        out = per_level_stats(col, col)
        band = out["signal"]["q50"]
        assert band[0, 0] == pytest.approx(25.75)
        assert band[1, 0] == pytest.approx(75.25)

    def test_bands_are_nested(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(200, 5))
        out = per_level_stats(s, s)
        q50, q90 = out["signal"]["q50"], out["signal"]["q90"]
        assert np.all(q90[0] <= q50[0])
        assert np.all(q50[1] <= q90[1])

    def test_error_is_prediction_minus_signal(self):
        s = np.zeros((4, 3))
        p = np.full((4, 3), 2.5)
        out = per_level_stats(s, p)
        np.testing.assert_array_equal(out["error"]["mean"], 2.5)

    def test_one_dim_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            per_level_stats(np.zeros(5), np.zeros(5))
