import hashlib
import json

import numpy as np
import pytest

from cre3d.augment import (
    ToyTruthParams,
    augment_scalars,
    generate_profiles,
    make_reference_grid,
    toy_truth,
)
from cre3d.column import ProfileBatch, compute_heating_rates, truncate_profile
from cre3d.postproc import postprocess

from conftest import make_profile


def bits(a):
    return np.asarray(a).view(np.int64)


def truth_rows(truth):
    """Every array of a ToyTruth, the targets' fields unpacked, by name."""
    return {"lw.scalar": truth.lw.scalar, "lw.heat": truth.lw.heat,
            "sw.scalar": truth.sw.scalar, "sw.heat": truth.sw.heat,
            "sw.direct_down": truth.sw.direct_down, "sw.alpha": truth.sw.alpha,
            "up_lw": truth.up_lw, "down_lw": truth.down_lw, "up_sw": truth.up_sw,
            "down_sw": truth.down_sw, "direct_sw": truth.direct_sw}


class TestAugmentScalars:
    def test_k_zero_is_identity(self, small_grid):
        profiles = generate_profiles(5, small_grid, seed=0)
        out = augment_scalars(profiles, k=0, seed=1)
        assert out is profiles

    def test_counts(self, small_grid):
        profiles = generate_profiles(7, small_grid, seed=0)
        assert len(augment_scalars(profiles, k=9, seed=1)) == 70

    def test_copies_share_non_scalar_fields_bitwise(self, small_grid):
        profiles = generate_profiles(4, small_grid, seed=2)
        out = augment_scalars(profiles, k=3, seed=3)
        for j in range(1, 4):
            for orig, copy in zip(profiles, out[4 * j:4 * (j + 1)]):
                assert np.array_equal(bits(copy.T), bits(orig.T))
                assert np.array_equal(bits(copy.f_c), bits(orig.f_c))
                assert np.array_equal(bits(copy.q_l), bits(orig.q_l))
                assert copy.T_s == orig.T_s
                assert copy.pid == f"{orig.pid}_c{j}"

    def test_replacements_come_from_original_marginals(self, small_grid):
        profiles = generate_profiles(20, small_grid, seed=4)
        alphas = {p.alpha for p in profiles}
        mu0s = {p.mu0 for p in profiles}
        out = augment_scalars(profiles, k=5, seed=5)
        for p in out[20:]:
            assert p.alpha in alphas
            assert p.mu0 in mu0s

    def test_alpha_and_mu0_drawn_independently(self, small_grid):
        # with independent draws the copies must break the original pairing
        # for at least some profiles
        profiles = generate_profiles(30, small_grid, seed=6)
        pairs = {(p.alpha, p.mu0) for p in profiles}
        out = augment_scalars(profiles, k=4, seed=7)
        assert any((p.alpha, p.mu0) not in pairs for p in out[30:])

    def test_seed_determinism(self, small_grid):
        profiles = generate_profiles(6, small_grid, seed=8)
        a = augment_scalars(profiles, k=2, seed=9)
        b = augment_scalars(profiles, k=2, seed=9)
        assert [(p.alpha, p.mu0) for p in a] == [(p.alpha, p.mu0) for p in b]

    def test_copy_means_approach_original_means(self, small_grid):
        # law of large numbers: resampled means converge on the source mean
        profiles = generate_profiles(50, small_grid, seed=10)
        alphas = np.array([p.alpha for p in profiles])
        out = augment_scalars(profiles, k=200, seed=11)
        drawn = np.array([p.alpha for p in out[50:]])
        tol = 3.0 * alphas.std() / np.sqrt(drawn.size)
        assert abs(drawn.mean() - alphas.mean()) < tol

    def test_negative_k_rejected(self, small_grid):
        with pytest.raises(ValueError, match="k"):
            augment_scalars(generate_profiles(1, small_grid, seed=0), k=-1, seed=0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            augment_scalars([], k=1, seed=0)

    def test_list_of_profiles_stacked(self, small_grid):
        profiles = generate_profiles(5, small_grid, seed=12)
        a = augment_scalars(list(profiles), k=2, seed=13)
        b = augment_scalars(profiles, k=2, seed=13)
        assert isinstance(a, ProfileBatch)
        assert a.ids == b.ids
        for name in ("T", "q", "alpha", "mu0"):
            assert np.array_equal(bits(getattr(a, name)), bits(getattr(b, name)))


class TestReferenceGrid:
    def test_level_counts(self, ref_grid, consts):
        assert ref_grid.n_fl == 137
        assert ref_grid.n_fl_window(consts.p_trunc) == 90
        assert ref_grid.n_hl_window(consts.p_trunc) == 91

    def test_monotone_and_surface(self, ref_grid):
        assert np.all(np.diff(ref_grid.p_hl) > 0)
        assert ref_grid.p_hl[-1] == pytest.approx(101325.0, rel=1e-6)


class TestToyTruth:
    def test_clear_sky_is_zero(self, small_grid, consts):
        p = make_profile(small_grid, seed=0)
        clear = type(p)(grid=p.grid, T=p.T, f_c=np.zeros_like(p.f_c),
                        q_l=p.q_l, q_i=p.q_i, r_l=p.r_l, r_i=p.r_i,
                        T_s=p.T_s, alpha=p.alpha, mu0=p.mu0)
        truth = toy_truth(clear, consts)
        assert np.all(truth.lw.scalar == 0.0)
        assert np.all(truth.sw.scalar == 0.0)
        assert np.all(truth.direct_sw == 0.0)

    def test_night_zeroes_shortwave_only(self, small_grid, consts):
        p = make_profile(small_grid, seed=1, mu0=-0.2)
        truth = toy_truth(p, consts)
        assert np.all(truth.sw.scalar == 0.0)
        assert np.all(truth.sw.heat == 0.0)
        assert np.any(truth.lw.scalar != 0.0)

    def test_boundary_assumptions(self, small_grid, consts):
        p = make_profile(small_grid, seed=2, mu0=0.7, alpha=0.35)
        truth = toy_truth(p, consts)
        assert truth.down_lw[0] == 0.0
        assert truth.up_lw[-1] == 0.0
        assert truth.down_sw[0] == 0.0
        assert truth.up_sw[-1] == pytest.approx(0.35 * truth.down_sw[-1], rel=1e-14)
        assert truth.direct_sw[0] == 0.0
        assert np.all(truth.direct_sw <= 0.0)

    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_postprocessing_round_trip(self, small_grid, consts, component):
        wgrid = small_grid.window(consts.p_trunc)
        for seed in range(30):
            p = make_profile(small_grid, seed=seed, mu0=0.3 + 0.02 * seed,
                             alpha=(seed % 9) / 10.0)
            truth = toy_truth(p, consts)
            targets = truth.lw if component == "lw" else truth.sw
            up_true = truth.up_lw if component == "lw" else truth.up_sw
            down_true = truth.down_lw if component == "lw" else truth.down_sw
            flux = postprocess(targets, wgrid, consts)
            np.testing.assert_allclose(flux.up, up_true, atol=1e-10)
            np.testing.assert_allclose(flux.down, down_true, atol=1e-10)

    def test_heat_consistent_with_fluxes(self, small_grid, consts):
        p = make_profile(small_grid, seed=3, mu0=0.5)
        wgrid = small_grid.window(consts.p_trunc)
        truth = toy_truth(p, consts)
        heat = compute_heating_rates(truth.down_lw - truth.up_lw, wgrid, consts)
        np.testing.assert_allclose(truth.lw.heat, heat, rtol=1e-12, atol=1e-20)

    def test_deterministic(self, small_grid, consts):
        p = make_profile(small_grid, seed=4)
        a = toy_truth(p, consts)
        b = toy_truth(p, consts)
        np.testing.assert_array_equal(a.lw.scalar, b.lw.scalar)
        np.testing.assert_array_equal(a.sw.heat, b.sw.heat)

    def test_amplitude_linearity(self, small_grid, consts):
        p = make_profile(small_grid, seed=5, mu0=0.6)
        base = toy_truth(p, consts, ToyTruthParams(amp_lw=1.0, amp_sw=1.0))
        doubled = toy_truth(p, consts, ToyTruthParams(amp_lw=2.0, amp_sw=2.0))
        np.testing.assert_allclose(doubled.lw.scalar, 2.0 * base.lw.scalar, rtol=1e-13)
        np.testing.assert_allclose(doubled.direct_sw, 2.0 * base.direct_sw, rtol=1e-13)

    def test_window_sizing(self, small_grid, consts):
        p = make_profile(small_grid, seed=6)
        truth = toy_truth(p, consts)
        assert truth.lw.scalar.size == small_grid.n_hl_window(consts.p_trunc)
        assert truth.lw.heat.size == small_grid.n_fl_window(consts.p_trunc)

    @pytest.mark.parametrize("grid_name", ["small_grid", "ref_grid"])
    def test_batch_equals_stacked_one_profile_calls(self, request, consts, grid_name):
        batch = generate_profiles(40, request.getfixturevalue(grid_name), seed=7)
        night = batch.mu0 <= 0
        assert night.any() and not night.all()
        rows = truth_rows(toy_truth(batch, consts))
        one = [truth_rows(toy_truth(p, consts)) for p in batch]
        for name, value in rows.items():
            assert np.array_equal(bits(value), bits(np.stack([np.asarray(r[name]) for r in one]))), name

    def test_night_rows_are_positive_zero(self, small_grid, consts):
        batch = generate_profiles(40, small_grid, seed=8)
        night = batch.mu0 <= 0
        assert night.any()
        rows = truth_rows(toy_truth(batch, consts))
        for name in ("sw.scalar", "up_sw", "down_sw", "direct_sw"):
            assert np.all(bits(rows[name][night]) == 0), name  # +0.0: no sign bit

    def test_list_gives_the_batch_bits(self, small_grid, consts):
        batch = generate_profiles(12, small_grid, seed=9)
        from_list = truth_rows(toy_truth(list(batch), consts))
        for name, value in truth_rows(toy_truth(batch, consts)).items():
            assert np.array_equal(bits(from_list[name]), bits(value)), name

    # SHA-256 of the truth rows of 40 columns (some of them at night), taken
    # from one-profile calls stacked row by row: batch truth keeps their bits.
    @pytest.mark.parametrize("grid_name, seed, digest", [
        ("small_grid", 0, "c798935cfab6969feec122ec5297c1a0bc61480cc3994664897ac4a8858a0b9b"),
        ("small_grid", 1, "32d9366e926bc9a78cfc9b7e22b978bf3e86c84dc15ed8c81ff86f1ff1ea740f"),
        ("ref_grid", 0, "152076fb5671ce70648d5d25f6db6a1b30bc81d67c9f0bff46c1308afdff9865"),
        ("ref_grid", 1, "f9e5b447ce8df5c69739983249e1e3e57961f8f4a7c81b05a42d4c09f83e1396"),
    ])
    def test_bits_pinned(self, request, consts, grid_name, seed, digest):
        batch = generate_profiles(40, request.getfixturevalue(grid_name), seed)
        h = hashlib.sha256()
        for name, value in truth_rows(toy_truth(batch, consts)).items():
            h.update(name.encode())
            h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("fields", [
        {"decay": 0.0}, {"decay": -2.0}, {"decay": float("nan")}, {"decay": float("inf")},
        {"amp_lw": float("nan")}, {"amp_sw": float("inf")}, {"amp_lw": -float("inf")},
    ])
    def test_params_that_make_no_sense_rejected(self, fields):
        with pytest.raises(ValueError, match="must be finite"):
            ToyTruthParams(**fields)

    def test_negative_amplitudes_allowed(self, small_grid, consts):
        p = make_profile(small_grid, seed=5, mu0=0.6)
        base = toy_truth(p, consts, ToyTruthParams(amp_lw=1.0, amp_sw=1.0))
        negated = toy_truth(p, consts, ToyTruthParams(amp_lw=-1.0, amp_sw=-1.0))
        np.testing.assert_array_equal(negated.lw.scalar, -base.lw.scalar)


class TestGenerateProfiles:
    def test_count_and_determinism(self, small_grid):
        a = generate_profiles(8, small_grid, seed=0)
        b = generate_profiles(8, small_grid, seed=0)
        assert len(a) == 8
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.f_c, pb.f_c)
            assert pa.alpha == pb.alpha

    def test_fields_physical(self, small_grid):
        for p in generate_profiles(10, small_grid, seed=1):
            assert np.all((p.f_c >= 0) & (p.f_c <= 1))
            assert np.all(p.q_l >= 0) and np.all(p.q_i >= 0)
            assert np.all(p.T >= 200.0)
            assert 0.0 < p.alpha < 1.0
            assert p.q is not None

    def test_humidity_optional(self, small_grid):
        p = generate_profiles(1, small_grid, seed=2, with_humidity=False)[0]
        assert p.q is None

    def test_unique_ids(self, small_grid):
        ids = [p.pid for p in generate_profiles(12, small_grid, seed=3)]
        assert len(set(ids)) == 12

    def test_some_clouds_in_window(self, small_grid, consts):
        hits = sum(truncate_profile(p, consts.p_trunc).f_c.max() > 0
                   for p in generate_profiles(20, small_grid, seed=4))
        assert hits >= 15

    def test_one_validated_batch(self, small_grid):
        batch = generate_profiles(6, small_grid, seed=5)
        assert isinstance(batch, ProfileBatch)
        assert batch.T.shape == (6, small_grid.n_fl)
        assert batch.alpha.shape == (6,)
        assert not batch.f_c.flags.writeable

    # SHA-256 of the arrays and ids of 50 columns on the small grid: synthesized
    # data keep their bits, so the random numbers must keep their draw order
    # (t_s, cloud layers, r_l, r_i, alpha, mu0 per column).
    @pytest.mark.parametrize("seed, with_humidity, digest", [
        (0, True, "31eca5c9bd619282e0800a2fac56d6454150da443bd85fd27a1cf3e0739cae0d"),
        (0, False, "c201ab3f1ec9dff018b693520ad2418938fe196a360e6b3153b431d53983fd30"),
        (1, True, "1013889e66cf7680abf405e20da1be0adbb5d5d75bbce36b1ea7d9c74233d7db"),
        (1, False, "da36e9e3f79a0fc32442ac22328ca59967c28a317a7d759d502d0e0db8f73a31"),
    ])
    def test_bits_pinned(self, small_grid, seed, with_humidity, digest):
        batch = generate_profiles(50, small_grid, seed, with_humidity=with_humidity)
        h = hashlib.sha256()
        for name in ("T", "f_c", "q_l", "q_i", "r_l", "r_i", "T_s", "alpha", "mu0", "q"):
            value = getattr(batch, name)
            h.update(name.encode())
            if value is not None:
                h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
        h.update(json.dumps(list(batch.ids)).encode())
        assert h.hexdigest() == digest
