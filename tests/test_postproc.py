import math

import numpy as np
import pytest

from cre3d.column import PhysConsts, VerticalGrid, compute_heating_rates
from cre3d.postproc import (
    CAP_HI,
    CAP_LO,
    DEGENERATE_DIVERGENCE,
    EffectTargets,
    divergence_from_heating,
    divergence_from_scalar_lw,
    divergence_from_scalar_sw,
    postprocess,
    postprocess_batch,
    rescale,
    split_fluxes,
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


class TestDivergenceFromHeating:
    def test_zero_heat(self, wgrid, consts):
        d, delta = divergence_from_heating(np.zeros(wgrid.n_fl), wgrid, consts)
        assert d == 0.0
        np.testing.assert_array_equal(delta, 0.0)

    def test_single_layer_hand_value(self, consts):
        grid = VerticalGrid(np.array([80000.0, 90000.0]))
        heat = compute_heating_rates(np.array([100.0, 90.0]), grid, consts)
        d, delta = divergence_from_heating(heat, grid, consts)
        assert delta[0] == pytest.approx(-10.0, rel=1e-12)
        assert d == pytest.approx(-10.0, rel=1e-12)

    def test_matches_net_flux_difference(self, wgrid, consts):
        rng = np.random.default_rng(1)
        net = rng.uniform(-100.0, 100.0, wgrid.n_hl)
        heat = compute_heating_rates(net, wgrid, consts)
        d, _ = divergence_from_heating(heat, wgrid, consts)
        assert d == pytest.approx(net[-1] - net[0], rel=1e-12)


class TestDivergenceFromScalar:
    def test_lw_zero(self):
        assert divergence_from_scalar_lw(np.zeros(5)) == 0.0

    def test_lw_endpoints(self):
        s = np.array([2.0, 9.0, -4.0, 3.0])
        assert divergence_from_scalar_lw(s) == 5.0

    def test_lw_consistent_profile(self, wgrid, consts):
        targets, up, down = consistent_truth(wgrid, consts, seed=2)
        net = down - up
        assert divergence_from_scalar_lw(targets.scalar) == pytest.approx(
            net[-1] - net[0], rel=1e-12)

    def test_sw_alpha_zero_reduces_to_lw(self):
        s = np.array([1.0, 5.0, 3.0])
        assert divergence_from_scalar_sw(s, 0.0) == divergence_from_scalar_lw(s)

    def test_sw_alpha_one_zeroes_boa_term(self):
        s = np.array([4.0, 5.0, 123.0])
        assert divergence_from_scalar_sw(s, 1.0) == 4.0

    def test_sw_hand_value(self):
        s = np.array([1.0, 0.0, 3.0])
        assert divergence_from_scalar_sw(s, 0.5) == pytest.approx(2.0)

    def test_sw_bad_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            divergence_from_scalar_sw(np.zeros(3), 1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            divergence_from_scalar_lw(np.array([]))


class TestRescale:
    @staticmethod
    def _case(wgrid, consts, seed, factor):
        """Heating/scalar pair whose divergence ratio D_s / D_H is `factor`."""
        targets, _, _ = consistent_truth(wgrid, consts, seed=seed)
        d_h, delta = divergence_from_heating(targets.heat, wgrid, consts)
        scalar = targets.scalar * (factor * d_h / divergence_from_scalar_lw(targets.scalar))
        d_s = divergence_from_scalar_lw(scalar)
        return targets.heat, delta, scalar, d_h, d_s

    def test_matching_divergences_unchanged(self, wgrid, consts):
        heat, delta, scalar, d_h, d_s = self._case(wgrid, consts, 3, 1.0)
        h2, d2, s2, c = rescale(heat, delta, scalar, d_h, d_s, wgrid, consts)
        assert c == 1.0
        np.testing.assert_allclose(h2, heat, rtol=1e-12)
        np.testing.assert_array_equal(s2, scalar)

    def test_ratio_four_caps_to_two_and_rescales_scalar(self, wgrid, consts):
        heat, delta, scalar, d_h, d_s = self._case(wgrid, consts, 4, 4.0)
        h2, d2, s2, c = rescale(heat, delta, scalar, d_h, d_s, wgrid, consts)
        assert c == 2.0
        np.testing.assert_allclose(s2, 0.5 * scalar, rtol=1e-12)
        # both divergence estimators now agree at 2 * D_H
        assert math.fsum(d2.tolist()) == pytest.approx(2.0 * d_h, rel=1e-12)
        assert divergence_from_scalar_lw(s2) == pytest.approx(2.0 * d_h, rel=1e-12)

    def test_ratio_quarter_caps_to_half(self, wgrid, consts):
        heat, delta, scalar, d_h, d_s = self._case(wgrid, consts, 5, 0.25)
        _, d2, s2, c = rescale(heat, delta, scalar, d_h, d_s, wgrid, consts)
        assert c == 0.5
        assert divergence_from_scalar_lw(s2) == pytest.approx(0.5 * d_h, rel=1e-12)

    def test_inside_cap_leaves_scalar_untouched(self, wgrid, consts):
        heat, delta, scalar, d_h, d_s = self._case(wgrid, consts, 6, 0.8)
        h2, _, s2, c = rescale(heat, delta, scalar, d_h, d_s, wgrid, consts)
        assert c == pytest.approx(0.8, rel=1e-12)
        np.testing.assert_array_equal(s2, scalar)
        np.testing.assert_allclose(h2, c * heat, rtol=1e-12)

    def test_opposite_signs_fall_to_lower_cap(self, wgrid, consts):
        heat, delta, scalar, d_h, d_s = self._case(wgrid, consts, 7, -1.0)
        _, _, _, c = rescale(heat, delta, scalar, d_h, d_s, wgrid, consts)
        assert c == 0.5

    def test_degenerate_heating_divergence(self, wgrid, consts):
        m = wgrid.n_fl
        heat = np.zeros(m)
        delta = np.zeros(m)
        scalar = np.linspace(1.0, 3.0, m + 1)
        d_s = divergence_from_scalar_lw(scalar)
        h2, d2, s2, c = rescale(heat, delta, scalar, 0.0, d_s, wgrid, consts)
        assert c == 1.0
        np.testing.assert_array_equal(s2, scalar)
        assert math.fsum(d2.tolist()) == pytest.approx(d_s, rel=1e-12)

    def test_scale_equivariance(self, wgrid, consts):
        heat, delta, scalar, d_h, d_s = self._case(wgrid, consts, 8, 3.0)
        lam = 7.5
        h1, d1, s1, c1 = rescale(heat, delta, scalar, d_h, d_s, wgrid, consts)
        h2, d2, s2, c2 = rescale(lam * heat, lam * delta, lam * scalar,
                                 lam * d_h, lam * d_s, wgrid, consts)
        assert c1 == c2
        np.testing.assert_allclose(s2, lam * s1, rtol=1e-12)
        np.testing.assert_allclose(h2, lam * h1, rtol=1e-12)

    def test_degenerate_branch_scale_equivariance(self, wgrid, consts):
        m = wgrid.n_fl
        scalar = np.linspace(0.5, 2.0, m + 1)
        d_s = divergence_from_scalar_lw(scalar)
        lam = 0.25  # keeps |D_H| = 0 in both calls
        _, d1, s1, _ = rescale(np.zeros(m), np.zeros(m), scalar, 0.0, d_s, wgrid, consts)
        _, d2, s2, _ = rescale(np.zeros(m), np.zeros(m), lam * scalar, 0.0, lam * d_s,
                               wgrid, consts)
        np.testing.assert_allclose(d2, lam * d1, rtol=1e-12)
        np.testing.assert_allclose(s2, lam * s1, rtol=1e-12)

    def test_cap_monotone_in_scalar_divergence(self, wgrid, consts):
        heat, delta, scalar, d_h, _ = self._case(wgrid, consts, 9, 1.0)
        d_h = abs(d_h) if d_h != 0 else 1.0
        cs = [rescale(heat, delta, scalar, d_h, ds, wgrid, consts)[3]
              for ds in np.linspace(-3.0 * d_h, 5.0 * d_h, 17)]
        assert all(0.5 <= c <= 2.0 for c in cs)
        assert all(b >= a for a, b in zip(cs, cs[1:]))


class TestSplitFluxes:
    def test_all_zero(self):
        up, down = split_fluxes(np.zeros(5), np.zeros(4))
        np.testing.assert_array_equal(up, 0.0)
        np.testing.assert_array_equal(down, 0.0)

    def test_constant_scalar_no_divergence(self):
        s = np.full(6, 4.0)
        up, down = split_fluxes(s, np.zeros(5))
        np.testing.assert_array_equal(up, 4.0)
        np.testing.assert_array_equal(down, 0.0)

    def test_reconstruction_identities(self, wgrid, consts):
        rng = np.random.default_rng(10)
        scalar = rng.uniform(-5, 5, wgrid.n_hl)
        delta = rng.uniform(-1, 1, wgrid.n_fl)
        up, down = split_fluxes(scalar, delta)
        np.testing.assert_allclose(up + down, scalar, rtol=1e-13, atol=1e-13)
        net = down - up
        assert net[0] == -scalar[0]
        np.testing.assert_allclose(np.diff(net), delta, rtol=1e-12, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one more"):
            split_fluxes(np.zeros(5), np.zeros(5))


class TestPostprocess:
    def test_zero_targets_zero_fluxes(self, wgrid, consts):
        t = EffectTargets(component="lw", scalar=np.zeros(wgrid.n_hl),
                          heat=np.zeros(wgrid.n_fl))
        flux = postprocess(t, wgrid, consts)
        assert np.all(flux.up == 0) and np.all(flux.down == 0)

    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_round_trip_many_profiles(self, wgrid, consts, component):
        for seed in range(200):
            alpha = (seed % 10) / 10.0
            targets, up, down = consistent_truth(wgrid, consts, seed,
                                                 component=component, alpha=alpha)
            flux = postprocess(targets, wgrid, consts)
            np.testing.assert_allclose(flux.up, up, atol=1e-10)
            np.testing.assert_allclose(flux.down, down, atol=1e-10)

    def test_reconstructed_heating_matches_rescaled(self, wgrid, consts):
        targets, _, _ = consistent_truth(wgrid, consts, 11)
        # force the capping path
        capped = EffectTargets(component="lw", scalar=4.0 * targets.scalar,
                               heat=targets.heat)
        flux = postprocess(capped, wgrid, consts)
        recomputed = compute_heating_rates(flux.down - flux.up, wgrid, consts)
        np.testing.assert_allclose(recomputed, flux.heat, rtol=1e-12, atol=1e-20)

    def test_energy_consistency_after_capping(self, wgrid, consts):
        targets, _, _ = consistent_truth(wgrid, consts, 12)
        capped = EffectTargets(component="lw", scalar=4.0 * targets.scalar,
                               heat=targets.heat)
        flux = postprocess(capped, wgrid, consts)
        net = flux.down - flux.up
        d_net = net[-1] - net[0]
        d_scalar = divergence_from_scalar_lw(flux.up + flux.down)
        d_heat, _ = divergence_from_heating(flux.heat, wgrid, consts)
        assert d_scalar == pytest.approx(d_net, rel=1e-10)
        assert d_heat == pytest.approx(d_net, rel=1e-10)

    def test_sw_direct_passes_through(self, wgrid, consts):
        targets, _, _ = consistent_truth(wgrid, consts, 13, component="sw")
        flux = postprocess(targets, wgrid, consts)
        np.testing.assert_array_equal(flux.direct_down, targets.direct_down)

    def test_scale_equivariance(self, wgrid, consts):
        targets, _, _ = consistent_truth(wgrid, consts, 14)
        lam = 3.0
        scaled = EffectTargets(component="lw", scalar=lam * targets.scalar,
                               heat=lam * targets.heat)
        f1 = postprocess(targets, wgrid, consts)
        f2 = postprocess(scaled, wgrid, consts)
        np.testing.assert_allclose(f2.up, lam * f1.up, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(f2.down, lam * f1.down, rtol=1e-11, atol=1e-12)


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
            flux = postprocess(t, wgrid, consts)
            np.testing.assert_allclose(up[i], flux.up, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(down[i], flux.down, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(heat_r[i], flux.heat, rtol=1e-12, atol=1e-20)

    def test_sw_requires_alpha(self, wgrid, consts):
        with pytest.raises(ValueError, match="alpha"):
            postprocess_batch("sw", np.zeros((2, wgrid.n_hl)),
                              np.zeros((2, wgrid.n_fl)), wgrid, consts)


class TestEffectTargets:
    def test_sw_requires_valid_alpha(self, wgrid):
        with pytest.raises(ValueError, match="alpha"):
            EffectTargets(component="sw", scalar=np.zeros(wgrid.n_hl),
                          heat=np.zeros(wgrid.n_fl))

    def test_length_consistency(self):
        with pytest.raises(ValueError, match="half levels"):
            EffectTargets(component="lw", scalar=np.zeros(5), heat=np.zeros(5))
