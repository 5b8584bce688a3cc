import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cre3d.column import PhysConsts, VerticalGrid, compute_heating_rates
from cre3d.postproc import (
    CAP_HI,
    CAP_LO,
    DEGENERATE_DIVERGENCE,
    EffectTargets,
    postprocess_batch,
)


@pytest.fixture
def wgrid(small_grid):
    return small_grid.window()


def consistent_truth(wgrid, consts, seed, component="lw", alpha=0.3):
    """Random up/down flux effects satisfying the reconstruction assumptions:
    zero downwelling effect at TOA, and at BOA zero upwelling effect (LW) or
    up = alpha * down (SW)."""
    rng = np.random.default_rng(seed)
    m = wgrid.n_hl
    up = rng.uniform(-5.0, 5.0, m)
    down = rng.uniform(-5.0, 5.0, m)
    down[0] = 0.0
    if component == "lw":
        up[-1] = 0.0
    else:
        up[-1] = alpha * down[-1]
    net = down - up
    heat = compute_heating_rates(net, wgrid, consts)
    direct = rng.uniform(-5.0, 0.0, m) if component == "sw" else None
    targets = EffectTargets(component=component, scalar=up + down, heat=heat,
                            direct_down=direct,
                            alpha=alpha if component == "sw" else None)
    return targets, up, down


def batch_row(component, scalar, heat, grid, consts, alpha=None):
    """One column through `postprocess_batch`: (up, down, heat) of its row."""
    up, down, heat_r = postprocess_batch(
        component, np.asarray(scalar, dtype=float)[None], np.asarray(heat, dtype=float)[None],
        grid, consts, alpha=None if alpha is None else np.array([alpha]))
    return up[0], down[0], heat_r[0]


def rescale_factor(heat_r, heat):
    """The step iii factor c, read as heat_r / heat on the level of largest |heat|."""
    k = int(np.argmax(np.abs(heat)))
    return heat_r[..., k] / heat[..., k]


def net_divergence(up, down):
    """Total divergence of the reconstructed net flux, net(BOA) - net(TOA)."""
    net = down - up
    return net[-1] - net[0]


def scalar_divergence_lw(up, down):
    """Step ii (LW) on the reconstructed scalar flux: its endpoints' sum."""
    return (up + down)[-1] + (up + down)[0]


def scalar_divergence(component, scalar, grid, consts, alpha=None):
    """Step ii as the batch path computes it. With zero heating (the
    degenerate branch) the whole scalar divergence goes into the net flux."""
    up, down, _ = batch_row(component, scalar, np.zeros(len(scalar) - 1), grid, consts, alpha)
    return net_divergence(up, down)


class TestDivergenceFromHeating:
    def test_zero_heat(self, wgrid, consts):
        up, down, heat_r = batch_row("lw", np.zeros(wgrid.n_hl), np.zeros(wgrid.n_fl),
                                     wgrid, consts)
        assert net_divergence(up, down) == 0.0
        np.testing.assert_array_equal(np.diff(down - up), 0.0)
        np.testing.assert_array_equal(heat_r, 0.0)

    def test_single_layer_hand_value(self, consts):
        # net = [100, 90]: down(TOA) = 0 and up(BOA) = 0 give scalar = [-100, 90],
        # whose divergence -10 matches the heating one, so c = 1.
        grid = VerticalGrid(np.array([80000.0, 90000.0]))
        heat = compute_heating_rates(np.array([100.0, 90.0]), grid, consts)
        up, down, heat_r = batch_row("lw", np.array([-100.0, 90.0]), heat, grid, consts)
        assert rescale_factor(heat_r, heat) == pytest.approx(1.0, rel=1e-12)
        assert np.diff(down - up)[0] == pytest.approx(-10.0, rel=1e-12)
        assert net_divergence(up, down) == pytest.approx(-10.0, rel=1e-12)

    def test_matches_net_flux_difference(self, wgrid, consts):
        rng = np.random.default_rng(1)
        net = rng.uniform(-100.0, 100.0, wgrid.n_hl)
        heat = compute_heating_rates(net, wgrid, consts)
        # c = D_s / D_H, so D_H = D_s / c; D_s is 1.3 times the expected D_H
        d_s = 1.3 * (net[-1] - net[0])
        scalar = np.zeros(wgrid.n_hl)
        scalar[0] = d_s
        _, _, heat_r = batch_row("lw", scalar, heat, wgrid, consts)
        d_h = d_s / rescale_factor(heat_r, heat)
        assert d_h == pytest.approx(net[-1] - net[0], rel=1e-12)


class TestDivergenceFromScalar:
    def test_lw_zero(self, wgrid, consts):
        assert scalar_divergence("lw", np.zeros(5), wgrid, consts) == 0.0

    def test_lw_endpoints(self, wgrid, consts):
        s = np.array([2.0, 9.0, -4.0, 3.0])
        assert scalar_divergence("lw", s, wgrid, consts) == pytest.approx(5.0, rel=1e-12)

    def test_lw_consistent_profile(self, wgrid, consts):
        targets, up, down = consistent_truth(wgrid, consts, seed=2)
        net = down - up
        assert scalar_divergence("lw", targets.scalar, wgrid, consts) == pytest.approx(
            net[-1] - net[0], rel=1e-12)

    def test_sw_alpha_zero_reduces_to_lw(self, wgrid, consts):
        s = np.array([1.0, 5.0, 3.0])
        sw = batch_row("sw", s, np.zeros(2), wgrid, consts, alpha=0.0)
        lw = batch_row("lw", s, np.zeros(2), wgrid, consts)
        for a, b in zip(sw, lw):
            np.testing.assert_array_equal(a, b)

    def test_sw_alpha_one_zeroes_boa_term(self, wgrid, consts):
        s = np.array([4.0, 5.0, 123.0])
        assert scalar_divergence("sw", s, wgrid, consts, alpha=1.0) == pytest.approx(
            4.0, rel=1e-12)

    def test_sw_hand_value(self, wgrid, consts):
        s = np.array([1.0, 0.0, 3.0])
        assert scalar_divergence("sw", s, wgrid, consts, alpha=0.5) == pytest.approx(2.0)

    def test_sw_bad_alpha_rejected(self, wgrid, consts):
        for alpha in (1.5, -0.1, np.nan):
            with pytest.raises(ValueError, match="alpha"):
                batch_row("sw", np.zeros(3), np.zeros(2), wgrid, consts, alpha=alpha)

    def test_empty_rejected(self, wgrid, consts):
        with pytest.raises(ValueError, match="window"):
            scalar_divergence("lw", np.array([1.0]), wgrid, consts)


class TestRescale:
    @staticmethod
    def _case(wgrid, consts, seed, factor):
        """Heating/scalar pair whose divergence ratio D_s / D_H is `factor`."""
        targets, _, _ = consistent_truth(wgrid, consts, seed=seed)
        d_h = (-(consts.c_p / consts.g) * targets.heat * wgrid.dp).sum()
        s = targets.scalar
        scalar = s * (factor * d_h / (s[-1] + s[0]))
        return targets.heat, scalar, d_h

    @staticmethod
    def _assert_scalar_untouched(up, down, scalar):
        assert up[0] == scalar[0]  # up(TOA) is the rescaled scalar(TOA), bit for bit
        np.testing.assert_allclose(up + down, scalar, rtol=1e-13, atol=1e-13)

    def test_matching_divergences_unchanged(self, wgrid, consts):
        heat, scalar, _ = self._case(wgrid, consts, 3, 1.0)
        up, down, h2 = batch_row("lw", scalar, heat, wgrid, consts)
        assert rescale_factor(h2, heat) == 1.0
        np.testing.assert_allclose(h2, heat, rtol=1e-12)
        self._assert_scalar_untouched(up, down, scalar)

    def test_ratio_four_caps_to_two_and_rescales_scalar(self, wgrid, consts):
        heat, scalar, d_h = self._case(wgrid, consts, 4, 4.0)
        up, down, h2 = batch_row("lw", scalar, heat, wgrid, consts)
        assert rescale_factor(h2, heat) == 2.0
        np.testing.assert_allclose(up + down, 0.5 * scalar, rtol=1e-12)
        # both divergence estimators now agree at 2 * D_H
        assert net_divergence(up, down) == pytest.approx(2.0 * d_h, rel=1e-12)
        assert scalar_divergence_lw(up, down) == pytest.approx(2.0 * d_h, rel=1e-12)

    def test_ratio_quarter_caps_to_half(self, wgrid, consts):
        heat, scalar, d_h = self._case(wgrid, consts, 5, 0.25)
        up, down, h2 = batch_row("lw", scalar, heat, wgrid, consts)
        assert rescale_factor(h2, heat) == 0.5
        assert scalar_divergence_lw(up, down) == pytest.approx(0.5 * d_h, rel=1e-12)

    def test_inside_cap_leaves_scalar_untouched(self, wgrid, consts):
        heat, scalar, _ = self._case(wgrid, consts, 6, 0.8)
        up, down, h2 = batch_row("lw", scalar, heat, wgrid, consts)
        c = rescale_factor(h2, heat)
        assert c == pytest.approx(0.8, rel=1e-12)
        self._assert_scalar_untouched(up, down, scalar)
        np.testing.assert_allclose(h2, c * heat, rtol=1e-12)

    def test_opposite_signs_fall_to_lower_cap(self, wgrid, consts):
        heat, scalar, _ = self._case(wgrid, consts, 7, -1.0)
        _, _, h2 = batch_row("lw", scalar, heat, wgrid, consts)
        assert rescale_factor(h2, heat) == 0.5

    def test_degenerate_heating_divergence(self, wgrid, consts):
        m = wgrid.n_fl
        scalar = np.linspace(1.0, 3.0, m + 1)
        d_s = scalar[-1] + scalar[0]
        up, down, h2 = batch_row("lw", scalar, np.zeros(m), wgrid, consts)
        self._assert_scalar_untouched(up, down, scalar)
        # c = 1; the divergence gap is spread evenly over the layers
        np.testing.assert_allclose(np.diff(down - up), d_s / m, rtol=1e-12)
        assert net_divergence(up, down) == pytest.approx(d_s, rel=1e-12)
        np.testing.assert_allclose(h2, -(consts.g / consts.c_p) * (d_s / m) / wgrid.dp,
                                   rtol=1e-12)

    def test_scale_equivariance(self, wgrid, consts):
        heat, scalar, _ = self._case(wgrid, consts, 8, 3.0)
        lam = 7.5
        up1, down1, h1 = batch_row("lw", scalar, heat, wgrid, consts)
        up2, down2, h2 = batch_row("lw", lam * scalar, lam * heat, wgrid, consts)
        assert rescale_factor(h1, heat) == rescale_factor(h2, lam * heat)
        np.testing.assert_allclose(up2 + down2, lam * (up1 + down1), rtol=1e-12)
        np.testing.assert_allclose(h2, lam * h1, rtol=1e-12)

    def test_degenerate_branch_scale_equivariance(self, wgrid, consts):
        m = wgrid.n_fl
        scalar = np.linspace(0.5, 2.0, m + 1)
        lam = 0.25  # keeps |D_H| = 0 in both calls
        up1, down1, _ = batch_row("lw", scalar, np.zeros(m), wgrid, consts)
        up2, down2, _ = batch_row("lw", lam * scalar, np.zeros(m), wgrid, consts)
        np.testing.assert_allclose(np.diff(down2 - up2), lam * np.diff(down1 - up1),
                                   rtol=1e-12)
        np.testing.assert_allclose(up2 + down2, lam * (up1 + down1), rtol=1e-12)

    def test_cap_monotone_in_scalar_divergence(self, wgrid, consts):
        heat, scalar, d_h = self._case(wgrid, consts, 9, 1.0)
        if d_h < 0:
            heat, d_h = -heat, -d_h
        ratios = np.linspace(-3.0, 5.0, 17)
        rows = np.array([scalar * (r * d_h / (scalar[-1] + scalar[0])) for r in ratios])
        _, _, h2 = postprocess_batch("lw", rows, np.tile(heat, (len(ratios), 1)),
                                     wgrid, consts)
        cs = rescale_factor(h2, heat)
        assert np.all((cs >= 0.5) & (cs <= 2.0))
        assert np.all(np.diff(cs) >= 0.0)


class TestSplitFluxes:
    def test_all_zero(self, wgrid, consts):
        up, down, _ = batch_row("lw", np.zeros(5), np.zeros(4), wgrid, consts)
        np.testing.assert_array_equal(up, 0.0)
        np.testing.assert_array_equal(down, 0.0)

    def test_constant_scalar_no_divergence(self, wgrid, consts):
        # Scalar 4 down to the surface level, where -4 cancels the TOA value
        # (D_s = 0), and no heating: the net flux stays at its TOA value -4.
        s = np.full(6, 4.0)
        s[-1] = -4.0
        up, down, _ = batch_row("lw", s, np.zeros(5), wgrid, consts)
        np.testing.assert_array_equal(down - up, -4.0)
        np.testing.assert_array_equal(up[:-1], 4.0)
        np.testing.assert_array_equal(down[:-1], 0.0)
        assert (up[-1], down[-1]) == (0.0, -4.0)

    def test_reconstruction_identities(self, wgrid, consts):
        rng = np.random.default_rng(10)
        scalar = rng.uniform(-5, 5, wgrid.n_hl)
        delta = rng.uniform(-1, 1, wgrid.n_fl)
        heat = -(consts.g / consts.c_p) * delta / wgrid.dp
        scalar[-1] = delta.sum() - scalar[0]  # D_s = D_H: c stays 1
        up, down, heat_r = batch_row("lw", scalar, heat, wgrid, consts)
        c = rescale_factor(heat_r, heat)
        assert c == pytest.approx(1.0, rel=1e-13)
        np.testing.assert_allclose(up + down, scalar, rtol=1e-13, atol=1e-13)
        net = down - up
        assert net[0] == -scalar[0]
        np.testing.assert_allclose(np.diff(net), c * delta, rtol=1e-12, atol=1e-12)

    def test_length_mismatch_rejected(self, wgrid, consts):
        with pytest.raises(ValueError, match="shapes inconsistent"):
            postprocess_batch("lw", np.zeros((1, 5)), np.zeros((1, 5)), wgrid, consts)


def targets_row(targets, grid, consts):
    """One column's EffectTargets through `postprocess_batch` as a one-row
    batch: (up, down, heat) of its row."""
    return batch_row(targets.component, targets.scalar, targets.heat, grid, consts, alpha=targets.alpha)


class TestPostprocess:
    def test_zero_targets_zero_fluxes(self, wgrid, consts):
        t = EffectTargets(component="lw", scalar=np.zeros(wgrid.n_hl),
                          heat=np.zeros(wgrid.n_fl))
        up, down, _ = targets_row(t, wgrid, consts)
        assert np.all(up == 0) and np.all(down == 0)

    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_round_trip_many_profiles(self, wgrid, consts, component):
        for seed in range(200):
            alpha = (seed % 10) / 10.0
            targets, up, down = consistent_truth(wgrid, consts, seed,
                                                 component=component, alpha=alpha)
            up_r, down_r, _ = targets_row(targets, wgrid, consts)
            np.testing.assert_allclose(up_r, up, atol=1e-10)
            np.testing.assert_allclose(down_r, down, atol=1e-10)

    def test_reconstructed_heating_matches_rescaled(self, wgrid, consts):
        targets, _, _ = consistent_truth(wgrid, consts, 11)
        # force the capping path
        capped = EffectTargets(component="lw", scalar=4.0 * targets.scalar,
                               heat=targets.heat)
        up, down, heat = targets_row(capped, wgrid, consts)
        recomputed = compute_heating_rates(down - up, wgrid, consts)
        np.testing.assert_allclose(recomputed, heat, rtol=1e-12, atol=1e-20)

    def test_energy_consistency_after_capping(self, wgrid, consts):
        targets, _, _ = consistent_truth(wgrid, consts, 12)
        capped = EffectTargets(component="lw", scalar=4.0 * targets.scalar,
                               heat=targets.heat)
        up, down, heat = targets_row(capped, wgrid, consts)
        d_net = net_divergence(up, down)
        d_scalar = scalar_divergence_lw(up, down)
        d_heat = math.fsum((-(consts.c_p / consts.g) * heat * wgrid.dp).tolist())
        assert d_scalar == pytest.approx(d_net, rel=1e-10)
        assert d_heat == pytest.approx(d_net, rel=1e-10)

    def test_scale_equivariance(self, wgrid, consts):
        targets, _, _ = consistent_truth(wgrid, consts, 14)
        lam = 3.0
        scaled = EffectTargets(component="lw", scalar=lam * targets.scalar,
                               heat=lam * targets.heat)
        up1, down1, _ = targets_row(targets, wgrid, consts)
        up2, down2, _ = targets_row(scaled, wgrid, consts)
        np.testing.assert_allclose(up2, lam * up1, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(down2, lam * down1, rtol=1e-11, atol=1e-12)


def chained_postprocess_batch(component, scalar, heat, grid, consts, alpha=None):
    """Steps i-iv over a batch, one fresh array per expression: the bits
    the in-place `postprocess_batch` must reproduce."""
    n, m = heat.shape
    dp = grid.dp[grid.n_fl - m:]
    delta_net = -(consts.c_p / consts.g) * heat * dp
    d_heat = delta_net.sum(axis=1)
    if component == "lw":
        d_scalar = scalar[:, -1] + scalar[:, 0]
    else:
        d_scalar = scalar[:, -1] * (1.0 - alpha) / (1.0 + alpha) + scalar[:, 0]
    degenerate = np.abs(d_heat) < DEGENERATE_DIVERGENCE
    c_raw = d_scalar / np.where(degenerate, 1.0, d_heat)
    c = np.where(degenerate, 1.0, np.clip(c_raw, CAP_LO, CAP_HI))
    heat_r = c[:, None] * heat
    delta_r = c[:, None] * delta_net
    scalar_r = scalar.copy()
    capped = (c != c_raw) & ~degenerate
    target = c * d_heat
    zero_ds = capped & (d_scalar == 0.0)
    mult = capped & ~zero_ds
    scalar_r[mult] *= (target[mult] / d_scalar[mult])[:, None]
    scalar_r[zero_ds, 0] += target[zero_ds]
    inc = (d_scalar - d_heat) / m
    delta_r[degenerate] = delta_net[degenerate] + inc[degenerate, None]
    heat_r[degenerate] = -(consts.g / consts.c_p) * delta_r[degenerate] / dp
    net = np.empty_like(scalar_r)
    net[:, 0] = -scalar_r[:, 0]
    net[:, 1:] = net[:, :1] + np.cumsum(delta_r, axis=1)
    return 0.5 * (scalar_r - net), 0.5 * (scalar_r + net), heat_r


def mixed_columns(wgrid, consts, component, n=40):
    """Window (scalar, heat, alpha) rows: consistent, capped high and low,
    capped with zero scalar divergence, and degenerate."""
    alphas = np.array([(i % 7) / 7.0 for i in range(n)])
    rows = [consistent_truth(wgrid, consts, 200 + i, component=component,
                             alpha=alphas[i])[0] for i in range(n)]
    scalar = np.array([t.scalar for t in rows])
    heat = np.array([t.heat for t in rows])
    scalar[0::5] *= 5.0
    scalar[1::5] *= 0.1
    scalar[2::5, [0, -1]] = 0.0
    heat[3::5] = 0.0
    heat[4::10] *= 1e-14
    return scalar, heat, alphas


class TestPostprocessBatch:
    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_bits_match_expression_chain(self, wgrid, consts, component):
        scalar, heat, alphas = mixed_columns(wgrid, consts, component)
        alpha = alphas if component == "sw" else None
        got = postprocess_batch(component, scalar, heat, wgrid, consts, alpha=alpha)
        expected = chained_postprocess_batch(component, scalar, heat, wgrid, consts,
                                             alpha=alpha)
        for g, e in zip(got, expected):
            assert np.array_equal(g.view(np.int64), e.view(np.int64))
        # degenerate rows and both caps are exercised
        d_heat = (-(consts.c_p / consts.g) * heat * wgrid.dp).sum(axis=1)
        live = np.abs(d_heat) >= DEGENERATE_DIVERGENCE
        c = expected[2][live, 0] / heat[live, 0]
        assert not live.all() and np.any(heat[~live] != 0.0)
        assert np.isclose(c, CAP_HI).any() and np.isclose(c, CAP_LO).any()

    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_rows_outside_a_branch_raise_no_floating_point_error(self, wgrid, consts, component):
        # Capped, zero-D_s, degenerate and night (all-zero) rows: a divide or
        # fix-up evaluated on a row outside its branch divides by zero there.
        scalar, heat, alphas = mixed_columns(wgrid, consts, component)
        scalar[-3:] = 0.0
        heat[-3:] = 0.0
        alpha = alphas if component == "sw" else None
        expected = chained_postprocess_batch(component, scalar, heat, wgrid, consts, alpha=alpha)
        with np.errstate(all="raise"):
            got = postprocess_batch(component, scalar, heat, wgrid, consts, alpha=alpha)
        for g, e in zip(got, expected):
            assert np.array_equal(g.view(np.int64), e.view(np.int64))

    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_inputs_not_mutated(self, wgrid, consts, component):
        # The rows arrive as column slices of one network output matrix.
        scalar, heat, alphas = mixed_columns(wgrid, consts, component)
        m = heat.shape[1]
        y = np.hstack([scalar, heat])
        before, alphas_before = y.copy(), alphas.copy()
        y.setflags(write=False)
        alphas.setflags(write=False)
        out = postprocess_batch(component, y[:, :m + 1], y[:, m + 1:], wgrid, consts,
                                alpha=alphas if component == "sw" else None)
        assert np.array_equal(y.view(np.int64), before.view(np.int64))
        assert np.array_equal(alphas, alphas_before)
        assert not any(np.shares_memory(a, y) for a in out)

    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_matches_scalar_path(self, wgrid, consts, component):
        targets = []
        for seed in range(30):
            t, _, _ = consistent_truth(wgrid, consts, seed + 100,
                                       component=component, alpha=(seed % 7) / 7.0)
            # mix in capped and degenerate columns
            if seed % 3 == 0:
                t = EffectTargets(component=component, scalar=5.0 * t.scalar,
                                  heat=t.heat, direct_down=t.direct_down, alpha=t.alpha)
            if seed % 5 == 0:
                t = EffectTargets(component=component, scalar=t.scalar,
                                  heat=np.zeros_like(t.heat),
                                  direct_down=t.direct_down, alpha=t.alpha)
            targets.append(t)
        scalar = np.array([t.scalar for t in targets])
        heat = np.array([t.heat for t in targets])
        alphas = np.array([t.alpha if t.alpha is not None else 0.0 for t in targets])
        up, down, heat_r = postprocess_batch(
            component, scalar, heat, wgrid, consts,
            alpha=alphas if component == "sw" else None)
        for i, t in enumerate(targets):
            for got, row in zip(targets_row(t, wgrid, consts), (up[i], down[i], heat_r[i])):
                assert np.array_equal(got.view(np.int64), row.view(np.int64))

    def test_sw_requires_alpha(self, wgrid, consts):
        with pytest.raises(ValueError, match="alpha"):
            postprocess_batch("sw", np.zeros((2, wgrid.n_hl)),
                              np.zeros((2, wgrid.n_fl)), wgrid, consts)

    @pytest.mark.parametrize("alpha", [[0.3], [0.3, 0.3, 0.3], [[0.3, 0.3]], 0.3])
    def test_sw_alpha_needs_one_value_per_row(self, wgrid, consts, alpha):
        with pytest.raises(ValueError, match="alpha"):
            postprocess_batch("sw", np.zeros((2, wgrid.n_hl)),
                              np.zeros((2, wgrid.n_fl)), wgrid, consts, alpha=alpha)

    def test_row_counts_must_match(self, wgrid, consts):
        with pytest.raises(ValueError, match="shapes inconsistent"):
            postprocess_batch("lw", np.zeros((1, wgrid.n_hl)),
                              np.zeros((3, wgrid.n_fl)), wgrid, consts)

    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_window_must_fit_grid(self, small_grid, consts, extra):
        # An empty window (m = 0) or one wider than the grid (m > n_fl).
        m = 0 if extra == 0 else small_grid.n_fl + extra
        with pytest.raises(ValueError, match="does not fit grid"):
            postprocess_batch("lw", np.ones((2, m + 1)), np.ones((2, m)), small_grid, consts)


class TestEffectTargets:
    def test_sw_requires_valid_alpha(self, wgrid):
        with pytest.raises(ValueError, match="alpha"):
            EffectTargets(component="sw", scalar=np.zeros(wgrid.n_hl),
                          heat=np.zeros(wgrid.n_fl))

    def test_length_consistency(self):
        with pytest.raises(ValueError, match="half levels"):
            EffectTargets(component="lw", scalar=np.zeros(5), heat=np.zeros(5))

    def test_sw_rows_take_one_alpha_per_row(self):
        t = EffectTargets(component="sw", scalar=np.zeros((3, 5)), heat=np.zeros((3, 4)),
                          direct_down=np.zeros((3, 5)), alpha=[0.0, 0.5, 1.0])
        np.testing.assert_array_equal(t.alpha, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("alpha", [0.3, [0.3, 0.3], [[0.3, 0.3, 0.3]], [0.3, 1.5, 0.3],
                                       [0.3, -0.1, 0.3], [0.3, np.nan, 0.3], None])
    def test_sw_rows_reject_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            EffectTargets(component="sw", scalar=np.zeros((3, 5)), heat=np.zeros((3, 4)),
                          alpha=alpha)

    def test_rows_checked_like_a_column(self):
        with pytest.raises(ValueError, match="half levels"):
            EffectTargets(component="lw", scalar=np.zeros((3, 5)), heat=np.zeros((2, 4)))
        with pytest.raises(ValueError, match="direct_down must have shape"):
            EffectTargets(component="sw", scalar=np.zeros((3, 5)), heat=np.zeros((3, 4)),
                          direct_down=np.zeros(5), alpha=[0.3] * 3)


class TestNearZeroScalarDivergence:
    def test_rounding_residue_of_zero_is_no_scale(self):
        # D_s is exactly 0 in every row; scaled by 3.0 it becomes a rounding
        # residue of order 1e-16, which must take the zero-D_s branch, not
        # divide by the residue. Degree-1 equivariance then holds to rounding.
        rng = np.random.default_rng(50)
        n = 200
        alpha = rng.uniform(0.0, 1.0, n)
        scalar = rng.uniform(-10.0, 10.0, (n, PGRID.n_hl))
        scalar[:, 0] = -(scalar[:, -1] * (1.0 - alpha) / (1.0 + alpha))
        heat = -(CONSTS.g / CONSTS.c_p) * rng.uniform(-10.0, 10.0, (n, PGRID.n_fl)) / PGRID.dp
        one = postprocess_batch("sw", scalar, heat, PGRID, CONSTS, alpha=alpha)
        three = postprocess_batch("sw", 3.0 * scalar, 3.0 * heat, PGRID, CONSTS, alpha=alpha)
        flux_scale = max(np.abs(one[0]).max(), np.abs(one[1]).max())
        for a, b in zip(one[:2], three[:2]):
            np.testing.assert_allclose(b, 3.0 * a, rtol=0.0, atol=1e-12 * flux_scale)
        np.testing.assert_allclose(three[2], 3.0 * one[2], rtol=1e-13)


# ---------------------------------------------------------------------------
# Invariants of the one reconstruction path, on random batches.

CONSTS = PhysConsts()
# 20 layers, each ~1.4x thicker than the one above; the rows cover the
# trailing M_WINDOW of them, as window rows do on a full grid.
PGRID = VerticalGrid(np.geomspace(100.0, 101325.0, 21))
M_WINDOW = 14
DP = PGRID.dp[-M_WINDOW:]
WINDOW = VerticalGrid(PGRID.p_hl[-(M_WINDOW + 1):])  # the same layers as a grid of their own
# Values on a 1e-5 grid in [-10, 10]: no subnormals, many exact zeros and ties.
GRID_VALUES = st.integers(-10**6, 10**6).map(lambda k: k / 1e5)


@st.composite
def batches(draw, component):
    """(scalar, heat, alpha) window rows. Each row is free, or has zero
    heating, near-zero heating (both degenerate), or D_s exactly 0."""
    n = draw(st.integers(1, 6))
    scalar = draw(arrays(float, (n, M_WINDOW + 1), elements=GRID_VALUES))
    delta = draw(arrays(float, (n, M_WINDOW), elements=GRID_VALUES))
    alpha = draw(arrays(float, n, elements=st.integers(0, 100).map(lambda k: k / 100)))
    heat = -(CONSTS.g / CONSTS.c_p) * delta / DP
    for i, kind in enumerate(draw(st.lists(
            st.sampled_from(["free", "zero_heat", "tiny_heat", "zero_ds"]),
            min_size=n, max_size=n))):
        if kind == "zero_heat":
            heat[i] = 0.0
        elif kind == "tiny_heat":
            heat[i] *= 1e-14
        elif kind == "zero_ds":
            boa = scalar[i, -1]
            if component == "sw":
                boa = boa * (1.0 - alpha[i]) / (1.0 + alpha[i])
            scalar[i, 0] = -boa
    return scalar, heat, alpha if component == "sw" else None


def degenerate_rows(heat):
    return np.abs((-(CONSTS.c_p / CONSTS.g) * heat * DP).sum(axis=1)) \
        < DEGENERATE_DIVERGENCE


PROPERTY = settings(derandomize=True, max_examples=30, deadline=None)


@pytest.mark.parametrize("component", ["lw", "sw"])
class TestInvariants:
    @PROPERTY
    @given(data=st.data())
    def test_heating_matches_fluxes(self, component, data):
        scalar, heat, alpha = data.draw(batches(component))
        up, down, heat_r = postprocess_batch(component, scalar, heat, PGRID, CONSTS,
                                             alpha=alpha)
        g_cp_dp = (CONSTS.g / CONSTS.c_p) / DP
        for i in range(len(heat)):
            recomputed = compute_heating_rates(down[i] - up[i], WINDOW, CONSTS)
            # rounding of the fluxes themselves, seen through one layer
            flux_scale = max(np.abs(up[i]).max(), np.abs(down[i]).max())
            tol = 1e-12 * np.abs(heat_r[i]) + 1e-12 * flux_scale * g_cp_dp
            assert np.all(np.abs(recomputed - heat_r[i]) <= tol)

    @PROPERTY
    @given(data=st.data())
    def test_no_downwelling_effect_at_toa(self, component, data):
        scalar, heat, alpha = data.draw(batches(component))
        up, down, _ = postprocess_batch(component, scalar, heat, PGRID, CONSTS,
                                        alpha=alpha)
        np.testing.assert_array_equal(down[:, 0], 0.0)

    @PROPERTY
    @given(data=st.data())
    def test_factor_within_cap(self, component, data):
        scalar, heat, alpha = data.draw(batches(component))
        _, _, heat_r = postprocess_batch(component, scalar, heat, PGRID, CONSTS,
                                         alpha=alpha)
        live = ~degenerate_rows(heat)
        for hr, h in zip(heat_r[live], heat[live]):
            assert CAP_LO <= rescale_factor(hr, h) <= CAP_HI

    @PROPERTY
    @given(data=st.data(), lam=st.sampled_from([0.25, 0.5, 2.0, 8.0]))
    def test_degree_one_scale_equivariance(self, component, data, lam):
        # Powers of two scale without rounding, so every branch (cap,
        # degenerate, D_s = 0) is taken alike and the outputs scale exactly.
        scalar, heat, alpha = data.draw(batches(component))
        base = postprocess_batch(component, scalar, heat, PGRID, CONSTS, alpha=alpha)
        scaled = postprocess_batch(component, lam * scalar, lam * heat, PGRID, CONSTS,
                                   alpha=alpha)
        for b, s in zip(base, scaled):
            assert np.array_equal(s, lam * b)

    @PROPERTY
    @given(data=st.data())
    def test_batch_equals_row_by_row(self, component, data):
        scalar, heat, alpha = data.draw(batches(component))
        whole = postprocess_batch(component, scalar, heat, PGRID, CONSTS, alpha=alpha)
        for i in range(len(heat)):
            row = postprocess_batch(component, scalar[i:i + 1], heat[i:i + 1], PGRID,
                                    CONSTS, alpha=None if alpha is None else alpha[i:i + 1])
            for w, r in zip(whole, row):
                assert np.array_equal(w[i].view(np.int64), r[0].view(np.int64))
