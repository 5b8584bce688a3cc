import dataclasses

import numpy as np
import pytest

from cre3d import features
from cre3d.augment import generate_profiles
from cre3d.column import PhysConsts, ProfileBatch, compute_cloud_optical_depth, truncate_profile
from cre3d.features import (
    FeatureSchema,
    Normalization,
    build_input_matrix,
    build_target_vector,
    fit_normalization,
    layer_thickness,
    schema_for_grid,
    targets_from_flux_effects,
)
from cre3d.postproc import EffectTargets

from conftest import make_profile


class TestSchema:
    def test_reference_lengths(self, ref_grid):
        lw = schema_for_grid("lw", ref_grid)
        sw = schema_for_grid("sw", ref_grid)
        assert lw.input_len == 271
        assert sw.input_len == 182
        assert lw.output_len == 181  # 91 + 90
        assert sw.output_len == 272  # 91 + 91 + 90

    P_HL = np.linspace(6000.0, 101325.0, 7)  # a window of 6 full levels

    def test_block_arithmetic(self):
        lw = FeatureSchema(component="lw", p_hl_window=self.P_HL)
        sw = FeatureSchema(component="sw", p_hl_window=self.P_HL)
        assert lw.input_len == 3 * 6 + 1
        assert sw.input_len == 2 * 6 + 2
        assert lw.output_len == 7 + 6
        assert sw.output_len == 2 * 7 + 6

    def test_optional_blocks_extend_inputs(self):
        base = FeatureSchema(component="sw", p_hl_window=self.P_HL)
        with_q = FeatureSchema(component="sw", p_hl_window=self.P_HL, include_humidity=True)
        both = FeatureSchema(component="sw", p_hl_window=self.P_HL,
                             include_humidity=True, include_thickness=True)
        assert with_q.input_len == base.input_len + 6
        assert both.input_len == base.input_len + 12

    def test_bad_component_rejected(self):
        with pytest.raises(ValueError, match="component"):
            FeatureSchema(component="uv", p_hl_window=self.P_HL)

    def test_window_sizes_are_derived_from_the_window(self, small_grid):
        schema = FeatureSchema("lw", small_grid.p_hl[4:], include_thickness=True)
        assert [f.name for f in dataclasses.fields(FeatureSchema) if f.init] == [
            "component", "p_hl_window", "include_humidity", "include_thickness"]
        assert (schema.n_fl_window, schema.n_hl_window) == (6, 7)
        assert schema.window_grid.same_as(small_grid.window())
        assert not schema.p_hl_window.flags.writeable
        assert schema == schema_for_grid("lw", small_grid, include_thickness=True)

    def test_equality_compares_sizes_not_pressures(self):
        schema = FeatureSchema("sw", self.P_HL)
        assert schema == FeatureSchema("sw", self.P_HL * 0.999)
        assert hash(schema) == hash(FeatureSchema("sw", self.P_HL * 0.999))
        assert schema != FeatureSchema("sw", self.P_HL[1:])

    @pytest.mark.parametrize("p_hl, message", [
        ([101325.0], "p_hl needs at least two half levels"),
        ([101325.0, 5000.0], "half-level pressures must increase strictly; violated at index 0"),
        ([5000.0, np.nan, 101325.0], "non-finite value at level 1"),
        ([[5000.0, 101325.0]], "1-D array"),
    ], ids=["one_value", "reversed", "nan", "two_dimensional"])
    def test_window_that_is_no_grid_rejected(self, p_hl, message):
        with pytest.raises(ValueError, match=rf"^p_hl_window is no window grid: .*{message}"):
            FeatureSchema("lw", p_hl)


class TestInputVectors:
    """Layout of one profile's row, as the one-row batch of build_input_matrix."""

    @staticmethod
    def one_row(profile, schema, consts):
        x = build_input_matrix([profile], schema, consts)
        assert x.shape == (1, schema.input_len)
        return x[0]

    def test_lw_layout(self, small_grid, consts):
        schema = schema_for_grid("lw", small_grid)
        p = make_profile(small_grid, seed=1)
        wp = truncate_profile(p, consts.p_trunc)
        vec = self.one_row(p, schema, consts)
        n = schema.n_fl_window
        np.testing.assert_array_equal(vec[:n], wp.f_c)
        np.testing.assert_array_equal(vec[n:2 * n], compute_cloud_optical_depth(wp, consts))
        np.testing.assert_array_equal(vec[2 * n:3 * n], wp.T)
        assert vec[-1] == wp.T_s

    def test_sw_layout(self, small_grid, consts):
        schema = schema_for_grid("sw", small_grid)
        p = make_profile(small_grid, seed=2)
        wp = truncate_profile(p, consts.p_trunc)
        vec = self.one_row(p, schema, consts)
        n = schema.n_fl_window
        np.testing.assert_array_equal(vec[:n], wp.f_c)
        np.testing.assert_array_equal(vec[n:2 * n], compute_cloud_optical_depth(wp, consts))
        assert vec[-2] == wp.alpha
        assert vec[-1] == wp.mu0

    def test_clear_sky_isothermal(self, small_grid, consts):
        schema = schema_for_grid("lw", small_grid)
        p = make_profile(small_grid, seed=3)
        m, n = small_grid.n_fl, schema.n_fl_window
        clear = type(p)(grid=small_grid, T=np.full(m, 260.0), f_c=np.zeros(m),
                        q_l=np.zeros(m), q_i=np.zeros(m), r_l=p.r_l, r_i=p.r_i,
                        T_s=260.0, alpha=0.2, mu0=0.5)
        vec = self.one_row(clear, schema, consts)
        assert np.all(vec[:2 * n] == 0.0)
        assert np.all(vec[2 * n:3 * n] == 260.0)

    def test_matrix_shapes(self, ref_grid, consts):
        schema = schema_for_grid("lw", ref_grid)
        profiles = [make_profile(ref_grid, seed=s) for s in range(3)]
        x = build_input_matrix(profiles, schema, consts)
        assert x.shape == (3, 271)

    def test_humidity_required_when_enabled(self, small_grid, consts):
        schema = schema_for_grid("sw", small_grid, include_humidity=True)
        p = make_profile(small_grid, seed=5)
        dry = type(p)(grid=p.grid, T=p.T, f_c=p.f_c, q_l=p.q_l, q_i=p.q_i,
                      r_l=p.r_l, r_i=p.r_i, T_s=p.T_s, alpha=p.alpha, mu0=p.mu0)
        with pytest.raises(ValueError, match="humidity"):
            build_input_matrix([dry], schema, consts)

    def test_layer_thickness_positive(self, small_grid):
        dz = layer_thickness(small_grid, np.full(small_grid.n_fl, 250.0))
        assert np.all(dz > 0)


class TestSchemaSequence:
    """A sequence of schemas gives a list of matrices, one per schema, from
    one window truncation and one cloud optical depth."""

    @staticmethod
    def count_calls(monkeypatch, names):
        calls = []
        for name in names:
            def counted(*args, _fn=getattr(features, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(features, name, counted)
        return calls

    def test_one_window_and_optical_depth_for_every_schema(self, ref_grid, consts, monkeypatch):
        profiles = generate_profiles(6, ref_grid, seed=14)
        schemas = [schema_for_grid(component, ref_grid, consts.p_trunc, q, dz)
                   for component in ("lw", "sw") for q, dz in ((False, False), (True, True))]
        want = [build_input_matrix(profiles, schema, consts) for schema in schemas]
        calls = self.count_calls(monkeypatch, ("truncate_profile", "compute_cloud_optical_depth"))
        got = build_input_matrix(profiles, tuple(schemas), consts)
        assert sorted(calls) == ["compute_cloud_optical_depth", "truncate_profile"]
        assert isinstance(got, list) and len(got) == len(schemas)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_every_schema_checked_before_any_assembly(self, small_grid, consts, monkeypatch):
        lw = schema_for_grid("lw", small_grid)
        sw = schema_for_grid("sw", small_grid, p_trunc=2000.0)  # one full level more
        calls = self.count_calls(monkeypatch, ("_assemble", "compute_cloud_optical_depth"))
        with pytest.raises(ValueError, match=r"window \(6 full levels\) is not the one the sw model was "
                                             r"trained on \(7 full levels\)"):
            build_input_matrix([make_profile(small_grid, seed=1)], [lw, sw], consts)
        assert calls == []

    def test_schema_with_q_on_profiles_without_q_fails_before_any_assembly(self, small_grid, consts,
                                                                           monkeypatch):
        lw = schema_for_grid("lw", small_grid)
        sw = schema_for_grid("sw", small_grid, include_humidity=True)
        calls = self.count_calls(monkeypatch, ("_assemble", "compute_cloud_optical_depth"))
        with pytest.raises(features.ModelMismatch) as caught:
            build_input_matrix(generate_profiles(3, small_grid, seed=2, with_humidity=False), [lw, sw], consts)
        assert str(caught.value) == "the sw model needs specific humidity (q), but the profiles have none"
        assert (caught.value.component, caught.value.profiles) == ("sw", True)
        assert calls == []


class TestTargetVectors:
    @staticmethod
    def _targets(schema, seed, alpha=0.3):
        rng = np.random.default_rng(seed)
        direct = rng.normal(size=schema.n_hl_window) if schema.component == "sw" else None
        return EffectTargets(
            component=schema.component,
            scalar=rng.normal(size=schema.n_hl_window),
            heat=rng.normal(size=schema.n_fl_window),
            direct_down=direct,
            alpha=alpha if schema.component == "sw" else None)

    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_split_build_round_trip(self, small_grid, component):
        # Outputs are read back by slicing at schema.output_slices().
        schema = schema_for_grid(component, small_grid)
        t = self._targets(schema, 6)
        vec = build_target_vector(t, schema)
        slices = schema.output_slices()
        assert vec.size == schema.output_len
        np.testing.assert_array_equal(vec[slices["scalar"]], t.scalar)
        np.testing.assert_array_equal(vec[slices["heat"]], t.heat)
        if component == "sw":
            np.testing.assert_array_equal(vec[slices["direct_down"]], t.direct_down)

    def test_reference_lengths(self, ref_grid):
        lw = schema_for_grid("lw", ref_grid)
        sw = schema_for_grid("sw", ref_grid)
        assert build_target_vector(self._targets(lw, 7), lw).size == 181
        assert build_target_vector(self._targets(sw, 8), sw).size == 272

    def test_length_mismatch_rejected(self, small_grid):
        schema = schema_for_grid("lw", small_grid)
        wider = schema_for_grid("lw", small_grid, p_trunc=2000.0)
        with pytest.raises(ValueError, match="length"):
            build_target_vector(self._targets(wider, 7), schema)

    def test_targets_from_flux_effects(self, small_grid, consts):
        rng = np.random.default_rng(9)
        up = rng.normal(size=small_grid.n_hl)
        down = rng.normal(size=small_grid.n_hl)
        t = targets_from_flux_effects("lw", up, down, small_grid, consts)
        i0 = small_grid.window_start()
        np.testing.assert_allclose(t.scalar, (up + down)[i0:], rtol=1e-13)
        assert t.heat.size == small_grid.window().n_fl

    def test_targets_window_follows_consts(self, small_grid):
        # 10000 Pa moves the first window full level of small_grid from index 4 to 6
        consts = PhysConsts(p_trunc=10000.0)
        assert small_grid.window_start(consts.p_trunc) != small_grid.window_start()
        rng = np.random.default_rng(9)
        up, down, direct = rng.normal(size=(3, small_grid.n_hl))
        t = targets_from_flux_effects("sw", up, down, small_grid, consts, alpha=0.3,
                                      direct_down=direct)
        i0 = small_grid.window_start(consts.p_trunc)
        np.testing.assert_array_equal(t.scalar, (up + down)[i0:])
        np.testing.assert_array_equal(t.direct_down, direct[i0:])
        assert t.heat.size == small_grid.window(consts.p_trunc).n_fl

    @pytest.mark.parametrize("rows", [None, 4], ids=["column", "rows"])
    def test_targets_do_not_alias_the_callers_rows(self, small_grid, consts, rows):
        shape = (small_grid.n_hl,) if rows is None else (rows, small_grid.n_hl)
        up, down, direct = (np.random.default_rng(seed).normal(size=shape) for seed in (1, 2, 3))
        alpha = 0.3 if rows is None else np.full(rows, 0.3)
        t = targets_from_flux_effects("sw", up, down, small_grid, consts, alpha=alpha, direct_down=direct)
        before = {name: getattr(t, name).copy() for name in ("scalar", "heat", "direct_down")}
        for arr in (up, down, direct):
            arr[...] = 1e3
        for name, value in before.items():
            assert np.array_equal(getattr(t, name), value), name


class TestTargetRows:
    """Targets and target vectors of (n, n_hl) flux rows are, bit for bit,
    the stacked per-column ones."""

    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_rows_equal_stacked_columns(self, small_grid, consts, component):
        rng = np.random.default_rng(40)
        n, m = 6, small_grid.n_hl
        up, down = rng.normal(size=(n, m)), rng.normal(size=(n, m))
        direct = rng.normal(size=(n, m)) if component == "sw" else None
        alpha = rng.uniform(0.0, 1.0, n)
        schema = schema_for_grid(component, small_grid)
        rows = targets_from_flux_effects(component, up, down, small_grid, consts,
                                         alpha=alpha, direct_down=direct)
        y = build_target_vector(rows, schema)
        assert y.shape == (n, schema.output_len)
        for i in range(n):
            column = targets_from_flux_effects(
                component, up[i], down[i], small_grid, consts, alpha=float(alpha[i]),
                direct_down=None if direct is None else direct[i])
            for name in ("scalar", "heat") + (("direct_down",) if direct is not None else ()):
                assert np.array_equal(getattr(rows, name)[i].view(np.int64),
                                      getattr(column, name).view(np.int64))
            assert np.array_equal(y[i].view(np.int64),
                                  build_target_vector(column, schema).view(np.int64))
        if component == "sw":
            np.testing.assert_array_equal(rows.alpha, alpha)


class TestNormalization:
    def test_two_sample_hand_values(self):
        norm = fit_normalization(np.array([[0.0, 10.0], [2.0, 10.0]]))
        np.testing.assert_allclose(norm.mean, [1.0, 10.0])
        assert norm.scale[0] == pytest.approx(1.0)  # population std
        assert norm.scale[1] == pytest.approx(1e-8)  # floored constant feature

    def test_constant_feature_normalizes_to_zero(self):
        x = np.full((5, 3), 7.0)
        norm = fit_normalization(x)
        assert np.all(norm.apply(x) == 0.0)

    def test_apply_invert_identity(self):
        rng = np.random.default_rng(10)
        x = rng.normal(scale=50.0, size=(20, 7))
        norm = fit_normalization(x)
        np.testing.assert_allclose(norm.invert(norm.apply(x)), x, rtol=1e-14, atol=1e-12)

    def test_fitting_set_is_standardized(self):
        rng = np.random.default_rng(11)
        x = rng.normal(loc=5.0, scale=3.0, size=(500, 4))
        z = fit_normalization(x).apply(x)
        assert np.all(np.abs(z.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-10)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="n >= 2"):
            fit_normalization(np.zeros((1, 3)))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            Normalization(mean=np.zeros(2), scale=np.array([1.0, 0.0]))

    def test_bits_match_expressions(self):
        rng = np.random.default_rng(12)
        norm = Normalization(mean=rng.normal(size=7), scale=rng.uniform(1e-8, 9.0, size=7))
        x = rng.normal(scale=50.0, size=(40, 7))
        for got, expected in ((norm.apply(x), (x - norm.mean) / norm.scale),
                              (norm.invert(x), x * norm.scale + norm.mean),
                              (norm.apply(x.astype(np.float32)),
                               (x.astype(np.float32).astype(float) - norm.mean) / norm.scale),
                              (norm.invert(x.tolist()), x * norm.scale + norm.mean)):
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(13)
        norm = fit_normalization(rng.normal(size=(10, 7)))
        x = rng.normal(size=(15, 14))[:, ::2]  # a strided view, as callers slice
        before = x.copy()
        x.setflags(write=False)
        for out in (norm.apply(x), norm.invert(x)):
            assert not np.shares_memory(out, x)
        assert np.array_equal(x.view(np.int64), before.view(np.int64))


class TestRowPermutation:
    def test_permuting_profiles_permutes_rows(self, small_grid, consts):
        schema = schema_for_grid("lw", small_grid)
        profiles = [make_profile(small_grid, seed=s) for s in range(4)]
        x = build_input_matrix(profiles, schema, consts)
        perm = [2, 0, 3, 1]
        x_perm = build_input_matrix([profiles[i] for i in perm], schema, consts)
        np.testing.assert_array_equal(x_perm, x[perm])


class TestBatchEquivalence:
    """The batch path must give, bit for bit, the rows of the per-profile
    reference: each profile built alone, as a one-row batch."""

    @staticmethod
    def reference_matrix(profiles, schema, consts):
        return np.asarray([build_input_matrix([p], schema, consts)[0] for p in profiles])

    @pytest.mark.parametrize("component", ["lw", "sw"])
    @pytest.mark.parametrize("humidity, thickness", [(False, False), (True, False), (True, True)])
    def test_matrix_bitwise_equal_to_per_row_stack(self, ref_grid, consts, component,
                                                   humidity, thickness):
        profiles = generate_profiles(40, ref_grid, seed=11)
        schema = schema_for_grid(component, ref_grid, consts.p_trunc, humidity, thickness)
        want = self.reference_matrix(profiles, schema, consts)
        for given in (ProfileBatch.from_profiles(profiles), profiles):
            got = build_input_matrix(given, schema, consts)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()

    def test_optical_depth_and_thickness_broadcast_over_rows(self, ref_grid, consts):
        profiles = generate_profiles(8, ref_grid, seed=12)
        batch = ProfileBatch.from_profiles(profiles)
        tau = compute_cloud_optical_depth(batch, consts)
        dz = layer_thickness(ref_grid, batch.T)
        for i, p in enumerate(profiles):
            assert tau[i].tobytes() == compute_cloud_optical_depth(p, consts).tobytes()
            assert dz[i].tobytes() == layer_thickness(ref_grid, p.T).tobytes()
