import math

import numpy as np
import pytest

from cre3d.column import (
    AtmosphericProfile,
    FluxSet,
    PhysConsts,
    ProfileBatch,
    RowError,
    VerticalGrid,
    apply_correction,
    compute_cloud_optical_depth,
    compute_heating_rates,
    extend_to_full,
    truncate_profile,
)
from cre3d.postproc import postprocess_batch

from conftest import make_profile


def flux_from(up, down, grid, consts, direct_down=None):
    """A FluxSet (one column or rows) whose heating rates are derived from up/down."""
    return FluxSet(up=up, down=down, heat=compute_heating_rates(np.subtract(down, up), grid, consts),
                   direct_down=direct_down)


class TestVerticalGrid:
    def test_full_level_pressures_are_midpoints(self):
        grid = VerticalGrid(np.array([0.0, 100.0, 300.0]))
        np.testing.assert_allclose(grid.p_fl, [50.0, 200.0])
        np.testing.assert_allclose(grid.dp, [100.0, 200.0])

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError, match="increase strictly"):
            VerticalGrid(np.array([100.0, 100.0, 300.0]))

    def test_rejects_negative_toa(self):
        with pytest.raises(ValueError, match=">= 0"):
            VerticalGrid(np.array([-1.0, 100.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            VerticalGrid(np.array([0.0, np.nan, 300.0]))

    def test_derived_values_are_read_only_and_computed_once(self, small_grid):
        for name in ("p_fl", "dp"):
            value = getattr(small_grid, name)
            assert not value.flags.writeable
            assert getattr(small_grid, name) is value
        assert small_grid.window() is small_grid.window(5000.0)
        assert small_grid.window(20000.0) is small_grid.window(20000.0)
        assert small_grid.window() is not small_grid.window(20000.0)
        assert small_grid.window_start(20000.0) == 7

    def test_empty_window_raises_on_every_call(self):
        grid = VerticalGrid(np.array([10.0, 100.0, 1000.0]))
        for _ in range(2):
            for call in (grid.window_start, grid.window):
                with pytest.raises(ValueError, match="window is empty"):
                    call()
        assert grid.window(100.0).n_fl == 1

    def test_holds_its_own_copy_of_the_pressures(self):
        # The caller's array stays writable, and writing to it leaves the
        # grid and the values derived from it unchanged.
        p = np.array([100.0, 1000.0, 6000.0, 20000.0, 101325.0])
        grid = VerticalGrid(p)
        assert grid.p_hl is not p and not grid.p_hl.flags.writeable
        assert p.flags.writeable
        window = grid.window()
        p[:] = [1.0, 2.0, 3.0, 4.0, 5.0]
        np.testing.assert_array_equal(grid.p_hl, [100.0, 1000.0, 6000.0, 20000.0, 101325.0])
        np.testing.assert_array_equal(grid.dp, [900.0, 5000.0, 14000.0, 81325.0])
        assert grid.window() is window and window.n_fl == 2


class TestCloudOpticalDepth:
    def test_hand_value(self, consts):
        # dp=1000 Pa, q_l=1e-4, rho_l=1000, r_l=1e-5 m: tau = 15/9.81.
        grid = VerticalGrid(np.array([80000.0, 81000.0]))
        profile = AtmosphericProfile(
            grid=grid, T=np.array([250.0]), f_c=np.array([1.0]),
            q_l=np.array([1e-4]), q_i=np.array([0.0]),
            r_l=np.array([1e-5]), r_i=np.array([1e-5]),
            T_s=290.0, alpha=0.2, mu0=0.5)
        tau = compute_cloud_optical_depth(profile, consts)
        np.testing.assert_allclose(tau, [15.0 / 9.81], rtol=1e-13)
        assert tau[0] == pytest.approx(1.5291, abs=1e-4)

    def test_cloud_free_is_exactly_zero(self, small_grid, consts):
        profile = make_profile(small_grid, seed=2)
        clear = AtmosphericProfile(
            grid=small_grid, T=profile.T, f_c=profile.f_c,
            q_l=np.zeros(small_grid.n_fl), q_i=np.zeros(small_grid.n_fl),
            r_l=profile.r_l, r_i=profile.r_i,
            T_s=profile.T_s, alpha=profile.alpha, mu0=profile.mu0)
        assert np.all(compute_cloud_optical_depth(clear, consts) == 0.0)

    def test_doubling_dp_doubles_tau(self, consts):
        base = VerticalGrid(np.array([80000.0, 81000.0]))
        double = VerticalGrid(np.array([80000.0, 82000.0]))
        kwargs = dict(T=np.array([250.0]), f_c=np.array([1.0]),
                      q_l=np.array([1e-4]), q_i=np.array([5e-5]),
                      r_l=np.array([1e-5]), r_i=np.array([3e-5]),
                      T_s=290.0, alpha=0.2, mu0=0.5)
        tau1 = compute_cloud_optical_depth(AtmosphericProfile(grid=base, **kwargs), consts)
        tau2 = compute_cloud_optical_depth(AtmosphericProfile(grid=double, **kwargs), consts)
        np.testing.assert_allclose(tau2, 2.0 * tau1, rtol=1e-13)

    def test_linear_in_each_condensate(self, small_grid, consts):
        profile = make_profile(small_grid, seed=3)
        tau = compute_cloud_optical_depth(profile, consts)
        scaled = AtmosphericProfile(
            grid=small_grid, T=profile.T, f_c=profile.f_c,
            q_l=3.0 * profile.q_l, q_i=profile.q_i,
            r_l=profile.r_l, r_i=profile.r_i,
            T_s=profile.T_s, alpha=profile.alpha, mu0=profile.mu0)
        tau_l = compute_cloud_optical_depth(
            AtmosphericProfile(grid=small_grid, T=profile.T, f_c=profile.f_c,
                               q_l=profile.q_l, q_i=np.zeros_like(profile.q_i),
                               r_l=profile.r_l, r_i=profile.r_i,
                               T_s=profile.T_s, alpha=profile.alpha, mu0=profile.mu0),
            consts)
        tau_scaled = compute_cloud_optical_depth(scaled, consts)
        np.testing.assert_allclose(tau_scaled, tau + 2.0 * tau_l, rtol=1e-12, atol=1e-15)

    def test_rejects_nonpositive_radius_under_cloud(self, consts):
        # The radius rule is a profile rule: the profile is rejected when it
        # is built, before an optical depth can be asked of it.
        grid = VerticalGrid(np.array([80000.0, 81000.0]))
        with pytest.raises(ValueError, match="level 0"):
            compute_cloud_optical_depth(AtmosphericProfile(
                grid=grid, T=np.array([250.0]), f_c=np.array([1.0]),
                q_l=np.array([1e-4]), q_i=np.array([0.0]),
                r_l=np.array([0.0]), r_i=np.array([1e-5]),
                T_s=290.0, alpha=0.2, mu0=0.5), consts)

    def test_non_finite_input_rejected_with_level(self, small_grid):
        with pytest.raises(ValueError, match="level 4"):
            AtmosphericProfile(
                grid=small_grid,
                T=np.array([250.0] * 4 + [np.inf] + [250.0] * 5),
                f_c=np.zeros(10), q_l=np.zeros(10), q_i=np.zeros(10),
                r_l=np.full(10, 1e-5), r_i=np.full(10, 1e-5),
                T_s=290.0, alpha=0.2, mu0=0.5)


class TestHeatingRates:
    def test_hand_value(self, consts):
        grid = VerticalGrid(np.array([80000.0, 90000.0]))
        heat = compute_heating_rates(np.array([100.0, 90.0]), grid, consts)
        # -(9.81/1004) * (-10) / 10000, absorbing layer warms
        assert heat[0] == pytest.approx(9.771e-6, rel=1e-3)
        assert heat[0] > 0
        assert heat[0] * 86400 == pytest.approx(0.844, abs=1e-3)

    def test_constant_net_flux_gives_zero(self, small_grid, consts):
        heat = compute_heating_rates(np.full(small_grid.n_hl, 42.0), small_grid, consts)
        np.testing.assert_array_equal(heat, 0.0)

    def test_net_flux_linear_in_p_gives_constant_heat(self, small_grid, consts):
        net = 3.0e-4 * small_grid.p_hl + 7.0
        heat = compute_heating_rates(net, small_grid, consts)
        np.testing.assert_allclose(heat, heat[0], rtol=1e-12)

    def test_round_trip_inverse(self, small_grid, consts):
        rng = np.random.default_rng(5)
        net = rng.uniform(-500.0, 500.0, small_grid.n_hl)
        heat = compute_heating_rates(net, small_grid, consts)
        # Postprocessing inverts it: down(TOA) = 0 and up(BOA) = 0 give the
        # scalar [-net(TOA), 0, ..., net(BOA)], whose divergence matches, so c = 1.
        scalar = np.zeros(small_grid.n_hl)
        scalar[0], scalar[-1] = -net[0], net[-1]
        up, down, _ = postprocess_batch("lw", scalar[None], heat[None], small_grid, consts)
        delta = np.diff(down[0] - up[0])
        np.testing.assert_allclose(delta, np.diff(net), rtol=1e-12)

    def test_telescoping(self, small_grid, consts):
        rng = np.random.default_rng(6)
        net = rng.uniform(-1000.0, 1000.0, small_grid.n_hl)
        total = math.fsum(np.diff(net).tolist())
        assert math.isclose(total, net[-1] - net[0], rel_tol=1e-14, abs_tol=1e-12)

    def test_rejects_wrong_length(self, small_grid, consts):
        with pytest.raises(ValueError, match="length"):
            compute_heating_rates(np.zeros(small_grid.n_hl + 1), small_grid, consts)


class TestWindow:
    def test_reference_grid_counts(self, ref_grid):
        assert ref_grid.n_fl == 137
        assert ref_grid.window().n_fl == 90
        assert ref_grid.window().n_hl == 91
        assert ref_grid.n_fl - ref_grid.window_start() == 90

    def test_small_grid_counts(self, small_grid):
        # 4 full levels above 50 hPa, 6 retained.
        assert small_grid.window().n_fl == 6
        assert small_grid.n_fl - small_grid.window_start() == 6

    def test_grid_entirely_below_window_is_identity(self):
        grid = VerticalGrid(np.array([20000.0, 50000.0, 101325.0]))
        assert grid.window_start() == 0
        assert grid.window().same_as(grid)

    def test_empty_window_rejected(self):
        grid = VerticalGrid(np.array([10.0, 100.0, 1000.0]))
        with pytest.raises(ValueError, match="window"):
            grid.window_start()

    def test_window_values_are_verbatim(self, small_grid):
        i0 = small_grid.window_start()
        np.testing.assert_array_equal(small_grid.window().p_hl, small_grid.p_hl[i0:])


class TestExtend:
    def test_zero_in_zero_out(self, small_grid):
        m = small_grid.window().n_hl
        flux = extend_to_full(np.zeros(m), np.zeros(m), np.zeros(m),
                              np.zeros(m - 1), small_grid)
        assert np.all(flux.up == 0) and np.all(flux.down == 0)
        assert np.all(flux.direct_down == 0) and np.all(flux.heat == 0)

    def test_up_extended_constant(self, small_grid):
        m = small_grid.window().n_hl
        up = np.full(m, 0.3)
        up[0] = 0.7
        flux = extend_to_full(up, np.zeros(m), None, np.zeros(m - 1), small_grid)
        i0 = small_grid.window_start()
        assert np.all(flux.up[:i0] == 0.7)
        assert flux.direct_down is None

    def test_truncate_extend_round_trip(self, small_grid, consts):
        rng = np.random.default_rng(7)
        i0 = small_grid.window_start()
        m = small_grid.n_hl - i0
        up_w = rng.uniform(-3.0, 3.0, m)
        down_w = rng.uniform(-3.0, 3.0, m)
        heat_w = rng.uniform(-1e-5, 1e-5, m - 1)
        flux = extend_to_full(up_w, down_w, None, heat_w, small_grid)
        np.testing.assert_array_equal(flux.up[i0:], up_w)
        np.testing.assert_array_equal(flux.down[i0:], down_w)
        np.testing.assert_array_equal(flux.heat[i0:], heat_w)

    def test_length_mismatch_rejected(self, small_grid):
        m = small_grid.window().n_hl
        with pytest.raises(ValueError, match="length"):
            extend_to_full(np.zeros(m + 1), np.zeros(m), None, np.zeros(m - 1), small_grid)


class TestApplyCorrection:
    @staticmethod
    def _random_flux(grid, consts, seed):
        rng = np.random.default_rng(seed)
        return flux_from(rng.uniform(0, 400, grid.n_hl), rng.uniform(0, 400, grid.n_hl), grid, consts)

    def test_zero_effect_is_identity(self, small_grid, consts):
        base = self._random_flux(small_grid, consts, 8)
        zero = FluxSet(up=np.zeros(small_grid.n_hl), down=np.zeros(small_grid.n_hl),
                       heat=np.zeros(small_grid.n_fl))
        out = apply_correction(base, zero, small_grid, consts)
        np.testing.assert_array_equal(out.up, base.up)
        np.testing.assert_array_equal(out.down, base.down)

    def test_zero_baseline_gives_effect(self, small_grid, consts):
        effect = self._random_flux(small_grid, consts, 9)
        zero = FluxSet(up=np.zeros(small_grid.n_hl), down=np.zeros(small_grid.n_hl),
                       heat=np.zeros(small_grid.n_fl))
        out = apply_correction(zero, effect, small_grid, consts)
        np.testing.assert_array_equal(out.up, effect.up)

    def test_heating_is_sum_of_parts(self, small_grid, consts):
        base = self._random_flux(small_grid, consts, 10)
        effect = self._random_flux(small_grid, consts, 11)
        out = apply_correction(base, effect, small_grid, consts)
        np.testing.assert_allclose(out.heat, base.heat + effect.heat, rtol=1e-12, atol=1e-18)

    def test_commutative_and_associative_in_effects(self, small_grid, consts):
        base = self._random_flux(small_grid, consts, 12)
        e1 = self._random_flux(small_grid, consts, 13)
        e2 = self._random_flux(small_grid, consts, 14)
        ab = apply_correction(apply_correction(base, e1, small_grid, consts), e2, small_grid, consts)
        ba = apply_correction(apply_correction(base, e2, small_grid, consts), e1, small_grid, consts)
        np.testing.assert_allclose(ab.up, ba.up, rtol=1e-13)
        np.testing.assert_allclose(ab.down, ba.down, rtol=1e-13)

    def test_grid_mismatch_rejected(self, small_grid, consts):
        base = self._random_flux(small_grid, consts, 15)
        other = VerticalGrid(np.array([100.0, 50000.0, 101325.0]))
        effect = self._random_flux(other, consts, 16)
        with pytest.raises(ValueError, match="grid"):
            apply_correction(base, effect, small_grid, consts)


class TestFluxSet:
    def test_heat_recomputable(self, small_grid, consts):
        rng = np.random.default_rng(17)
        up = rng.uniform(0, 300, small_grid.n_hl)
        down = rng.uniform(0, 300, small_grid.n_hl)
        zero = FluxSet(up=np.zeros(small_grid.n_hl), down=np.zeros(small_grid.n_hl),
                       heat=np.zeros(small_grid.n_fl))
        # the effect's own heating rates are ignored: the corrected ones come from up/down
        flux = apply_correction(zero, FluxSet(up=up, down=down, heat=np.ones(small_grid.n_fl)),
                                small_grid, consts)
        np.testing.assert_allclose(
            flux.heat, compute_heating_rates(down - up, small_grid, consts), rtol=1e-12)

    def test_truncate_profile_keeps_scalars(self, small_grid):
        p = make_profile(small_grid, seed=18)
        w = truncate_profile(p)
        assert w.grid.n_fl == small_grid.window().n_fl
        assert w.T_s == p.T_s and w.alpha == p.alpha and w.mu0 == p.mu0
        np.testing.assert_array_equal(w.f_c, p.f_c[small_grid.window_start():])


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestFluxRows:
    """The flux helpers take (n, levels) rows and give, bit for bit, the
    stacked results of per-column calls."""

    N = 7

    def test_heating_rates(self, small_grid, consts):
        net = np.random.default_rng(30).uniform(-400.0, 400.0, (self.N, small_grid.n_hl))
        stacked = [compute_heating_rates(row, small_grid, consts) for row in net]
        assert same_bits(compute_heating_rates(net, small_grid, consts), stacked)

    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_extend_to_full(self, small_grid, component):
        rng = np.random.default_rng(32)
        m = small_grid.window().n_hl
        up, down = rng.normal(size=(self.N, m)), rng.normal(size=(self.N, m))
        heat = rng.normal(size=(self.N, m - 1))
        direct = rng.normal(size=(self.N, m)) if component == "sw" else None
        rows = extend_to_full(up, down, direct, heat, small_grid)
        columns = [extend_to_full(up[i], down[i], None if direct is None else direct[i],
                                  heat[i], small_grid) for i in range(self.N)]
        for name in ("up", "down", "heat") + (("direct_down",) if direct is not None else ()):
            assert same_bits(getattr(rows, name), [getattr(c, name) for c in columns])
        assert (rows.direct_down is None) == (direct is None)

    def test_components_and_correction(self, small_grid, consts):
        rng = np.random.default_rng(33)
        shape = (self.N, small_grid.n_hl)
        base = flux_from(rng.uniform(0, 400, shape), rng.uniform(0, 400, shape),
                         small_grid, consts, direct_down=rng.uniform(0, 400, shape))
        effect = flux_from(rng.normal(size=shape), rng.normal(size=shape), small_grid, consts)
        rows = apply_correction(base, effect, small_grid, consts)
        for i in range(self.N):
            b = flux_from(base.up[i], base.down[i], small_grid, consts, direct_down=base.direct_down[i])
            e = FluxSet(up=effect.up[i], down=effect.down[i], heat=effect.heat[i])
            assert same_bits(b.heat, base.heat[i])
            column = apply_correction(b, e, small_grid, consts)
            for name in ("up", "down", "heat", "direct_down"):
                assert same_bits(getattr(rows, name)[i], getattr(column, name))

    def test_correction_needs_equal_row_counts(self, small_grid, consts):
        three = FluxSet(up=np.zeros((3, small_grid.n_hl)), down=np.zeros((3, small_grid.n_hl)),
                        heat=np.zeros((3, small_grid.n_fl)))
        two = FluxSet(up=np.zeros((2, small_grid.n_hl)), down=np.zeros((2, small_grid.n_hl)),
                      heat=np.zeros((2, small_grid.n_fl)))
        with pytest.raises(ValueError, match="grid or rows"):
            apply_correction(three, two, small_grid, consts)

    @pytest.mark.parametrize("field, shape", [("down", (3, 4)), ("heat", (3, 5)), ("heat", (2, 4)),
                                              ("direct_down", (5,)), ("heat", (4,))])
    def test_rows_checked_by_the_column_rules(self, field, shape):
        fields = {"up": np.zeros((3, 5)), "down": np.zeros((3, 5)), "heat": np.zeros((3, 4)),
                  "direct_down": np.zeros((3, 5))}
        fields[field] = np.zeros(shape)
        with pytest.raises(ValueError, match=f"{field} must have shape"):
            FluxSet(**fields)

    def test_first_row_with_a_non_finite_value_named(self):
        fields = {"up": np.zeros((4, 5)), "down": np.zeros((4, 5)), "heat": np.zeros((4, 4))}
        fields["heat"][3, 0] = np.nan
        fields["down"][2, 4] = np.inf
        with pytest.raises(RowError, match="row 2: down contains a non-finite value at level 4") as info:
            FluxSet(**fields)
        assert info.value.row == 2

    def test_more_than_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match="up must be a 1-D array or"):
            FluxSet(up=np.zeros((2, 2, 3)), down=np.zeros((2, 2, 3)), heat=np.zeros((2, 2, 2)))

    def test_rows_are_read_only(self):
        flux = FluxSet(up=np.zeros((2, 3)), down=np.zeros((2, 3)), heat=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="read-only"):
            flux.up[0, 0] = 1.0


class TestProfileBatch:
    FIELDS = ("T", "f_c", "q_l", "q_i", "r_l", "r_i", "q")

    def test_rows_are_the_stacked_profiles(self, small_grid):
        profiles = [make_profile(small_grid, seed=s) for s in range(4)]
        batch = ProfileBatch.from_profiles(profiles)
        assert len(batch) == 4
        for orig, row in zip(profiles, batch):
            assert isinstance(row, AtmosphericProfile)
            assert row.grid is batch.grid
            for name in self.FIELDS:
                np.testing.assert_array_equal(getattr(row, name), getattr(orig, name))
            assert (row.T_s, row.alpha, row.mu0, row.pid) == (orig.T_s, orig.alpha, orig.mu0, orig.pid)
            assert type(row.alpha) is float
        assert batch[-1].pid == profiles[-1].pid
        with pytest.raises(IndexError):
            batch[4]

    def test_slices_and_windows_share_the_arrays(self, small_grid):
        batch = ProfileBatch.from_profiles([make_profile(small_grid, seed=s) for s in range(5)])
        part = batch[1:4]
        assert isinstance(part, ProfileBatch) and part.ids == batch.ids[1:4]
        assert np.shares_memory(part.T, batch.T)
        w = truncate_profile(batch)
        i0 = small_grid.window_start()
        assert w.grid.n_fl == small_grid.window().n_fl
        assert np.shares_memory(w.q, batch.q)
        np.testing.assert_array_equal(w.f_c, batch.f_c[:, i0:])
        np.testing.assert_array_equal(w.mu0, batch.mu0)
        for row, wrow in zip(batch, w):
            np.testing.assert_array_equal(truncate_profile(row).T, wrow.T)

    def test_arrays_are_read_only(self, small_grid):
        batch = ProfileBatch.from_profiles([make_profile(small_grid, seed=0)])
        with pytest.raises(ValueError):
            batch.T[0, 0] = 1.0
        with pytest.raises(ValueError):
            batch[0].f_c[0] = 0.5

    def test_validation_names_first_bad_row_and_level(self, small_grid):
        batch = ProfileBatch.from_profiles([make_profile(small_grid, seed=s) for s in range(3)])
        fields = {name: np.array(getattr(batch, name)) for name in self.FIELDS + ("T_s", "alpha", "mu0")}
        fields["f_c"][2, 6] = -0.1
        fields["q_l"][1, 3] = -1.0
        with pytest.raises(RowError, match="row 1: q_l must be >= 0; violated at level 3") as info:
            ProfileBatch(grid=small_grid, ids=batch.ids, **fields)
        assert info.value.row == 1

    def test_shape_checked(self, small_grid):
        batch = ProfileBatch.from_profiles([make_profile(small_grid, seed=s) for s in range(2)])
        fields = {name: getattr(batch, name) for name in self.FIELDS + ("T_s", "alpha", "mu0")}
        fields["alpha"] = fields["alpha"][:1]
        with pytest.raises(ValueError, match="alpha must have shape"):
            ProfileBatch(grid=small_grid, ids=batch.ids, **fields)

    def test_mixed_grids_rejected(self, small_grid):
        other = VerticalGrid(small_grid.p_hl * 1.001)
        profiles = [make_profile(small_grid, seed=0), make_profile(other, seed=1)]
        with pytest.raises(ValueError, match="one vertical grid; profile 1"):
            ProfileBatch.from_profiles(profiles)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no profiles"):
            ProfileBatch.from_profiles([])
