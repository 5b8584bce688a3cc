"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion; run with
`pytest -s tests/test_acceptance.py` to see them. The expensive training
run is shared between the accuracy and benchmark criteria.
"""

import math
import statistics
import time

import numpy as np
import pytest

from cre3d.augment import augment_scalars, generate_profiles, make_reference_grid, toy_truth
from cre3d.cli import _split_indices
from cre3d.column import PhysConsts, compute_heating_rates
from cre3d.evalbench import bulk_stats
from cre3d.features import (
    build_input_matrix,
    build_target_vector,
    fit_normalization,
    schema_for_grid,
)
from cre3d.net import (
    TrainConfig,
    forward,
    init_model,
    loss_and_gradients,
    reference_model,
    stage_seconds,
    train,
)
from cre3d.postproc import EffectTargets, postprocess_batch

CONSTS = PhysConsts()
GRID = make_reference_grid()
WGRID = GRID.window(CONSTS.p_trunc)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def random_consistent_effects(seed: int, component: str = "lw", alpha: float = 0.3):
    """Up/down effect profiles satisfying the reconstruction boundary
    assumptions exactly, plus the matching targets."""
    rng = np.random.default_rng(seed)
    m = WGRID.n_hl
    up = rng.uniform(-10.0, 10.0, m)
    down = rng.uniform(-10.0, 10.0, m)
    down[0] = 0.0
    if component == "lw":
        up[-1] = 0.0
    else:
        up[-1] = alpha * down[-1]
    heat = compute_heating_rates(down - up, WGRID, CONSTS)
    targets = EffectTargets(component=component, scalar=up + down, heat=heat,
                            alpha=alpha if component == "sw" else None)
    return targets, up, down


# ---------------------------------------------------------------------------
# Shared expensive fixture: data generation and training for criteria 5 and 9.


@pytest.fixture(scope="module")
def trained():
    t0 = time.monotonic()
    profiles = generate_profiles(2000, GRID, seed=42)
    _, (idx_train, idx_val, idx_test) = _split_indices(2000, seed=42)
    truth = toy_truth(profiles, CONSTS)

    models = {}
    for comp in ("lw", "sw"):
        schema = schema_for_grid(comp, GRID)
        x = build_input_matrix(profiles, schema, CONSTS)
        y = build_target_vector(getattr(truth, comp), schema)
        norm_in = fit_normalization(x[idx_train])
        norm_out = fit_normalization(y[idx_train])
        xn, yn = norm_in.apply(x), norm_out.apply(y)
        model0 = reference_model(schema, seed=0)
        model0.norm_in, model0.norm_out = norm_in, norm_out
        cfg = TrainConfig(max_epochs=1000, patience=50, seed=0)
        model, history = train(model0, xn[idx_train], yn[idx_train],
                               xn[idx_val], yn[idx_val], cfg)
        models[comp] = {"model": model, "schema": schema, "x": x, "y": y}
    return {
        "profiles": profiles,
        "truth": truth,
        "split": (idx_train, idx_val, idx_test),
        "models": models,
        "train_seconds": time.monotonic() - t0,
    }


# ---------------------------------------------------------------------------


def test_criterion_1_feature_vector_lengths():
    lw = schema_for_grid("lw", GRID)
    sw = schema_for_grid("sw", GRID)
    ok = (lw.input_len == 271 and sw.input_len == 182
          and lw.output_len == 181 and sw.output_len == 272)
    report(1, ok, f"input lengths LW={lw.input_len} SW={sw.input_len}, "
                  f"output lengths LW={lw.output_len} SW={sw.output_len}")


def test_criterion_2_round_trip_exactness():
    t0 = time.monotonic()
    worst_flux = 0.0
    worst_heat = 0.0
    n = 1000
    for seed in range(n):
        component = "sw" if seed % 2 else "lw"
        alpha = (seed % 11) / 10.0
        targets, up, down = random_consistent_effects(seed, component, alpha)
        (up_r,), (down_r,), (heat_r,) = postprocess_batch(
            component, targets.scalar[None], targets.heat[None], WGRID, CONSTS,
            alpha=None if targets.alpha is None else np.array([targets.alpha]))
        worst_flux = max(worst_flux,
                         float(np.max(np.abs(up_r - up))),
                         float(np.max(np.abs(down_r - down))))
        recomputed = compute_heating_rates(down_r - up_r, WGRID, CONSTS)
        scale = float(np.max(np.abs(heat_r)))
        if scale > 0.0:
            worst_heat = max(worst_heat,
                             float(np.max(np.abs(recomputed - heat_r))) / scale)
    elapsed = time.monotonic() - t0
    ok = worst_flux < 1e-10 and worst_heat < 1e-12 and elapsed < 10.0
    report(2, ok, f"{n} round trips: max flux error {worst_flux:.3e} (< 1e-10), "
                  f"max heating error {worst_heat:.3e} of the profile scale (< 1e-12), "
                  f"{elapsed:.2f} s (< 10 s)")


def test_criterion_3_divergence_capping():
    targets, _, _ = random_consistent_effects(7, "lw")
    heat = targets.heat
    d_h = float((-(CONSTS.c_p / CONSTS.g) * heat * WGRID.dp).sum())
    cases = ((4.0, 2.0), (0.25, 0.5), (1.3, 1.3))
    s = targets.scalar
    scalar = np.array([s * (ratio * d_h / (s[-1] + s[0])) for ratio, _ in cases])
    up, down, heat_r = postprocess_batch("lw", scalar, np.tile(heat, (len(cases), 1)),
                                         WGRID, CONSTS)
    k = int(np.argmax(np.abs(heat)))
    checks = []
    for i, (ratio, expected_c) in enumerate(cases):
        c = heat_r[i, k] / heat[k]
        scalar2 = up[i] + down[i]
        d_heat2 = math.fsum((-(CONSTS.c_p / CONSTS.g) * heat_r[i] * WGRID.dp).tolist())
        agree = math.isclose(scalar2[-1] + scalar2[0], d_heat2, rel_tol=1e-10)
        # up(TOA) is the rescaled scalar(TOA) bit for bit; the sum rounds
        untouched = (ratio == 1.3 and up[i, 0] == scalar[i, 0]
                     and np.allclose(scalar2, scalar[i], rtol=1e-13, atol=1e-13))
        checks.append(math.isclose(c, expected_c, rel_tol=1e-12) and agree
                      and (untouched or ratio != 1.3))
    ok = all(checks)
    report(3, ok, "ratio 4 -> c=2, ratio 0.25 -> c=0.5, divergence estimators agree "
                  "after rescaling, in-range ratio leaves the scalar untouched")


def test_criterion_4_gradient_check():
    worst = 0.0
    step = 1e-5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = init_model([4, 6, 3], seed=seed)
        for w in model.weights:
            w += 0.05 * np.sign(w) + 0.01  # stay off the L1 kink
        x = rng.normal(size=(8, 4))
        y = rng.normal(size=(8, 3))
        _, (gw, gb) = loss_and_gradients(model, x, y, 1e-4, 1e-4)

        def loss_at():
            return loss_and_gradients(model, x, y, 1e-4, 1e-4)[0]

        for k in range(len(model.weights)):
            for arr, grad in ((model.weights[k], gw[k]), (model.biases[k], gb[k])):
                flat = arr.reshape(-1)
                for j in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                    orig = flat[j]
                    flat[j] = orig + step
                    up = loss_at()
                    flat[j] = orig - step
                    down = loss_at()
                    flat[j] = orig
                    fd = (up - down) / (2.0 * step)
                    g = grad.reshape(-1)[j]
                    worst = max(worst, abs(g - fd) / max(1.0, abs(fd)))
    ok = worst <= 1e-4
    report(4, ok, f"20 random networks: worst gradient deviation {worst:.3e} (<= 1e-4)")


def test_criterion_5_emulator_accuracy(trained):
    idx_test = trained["split"][2]
    pcts = {}
    for comp in ("lw", "sw"):
        entry = trained["models"][comp]
        model, schema = entry["model"], entry["schema"]
        xn = model.norm_in.apply(entry["x"][idx_test])
        pred = model.norm_out.invert(forward(model, xn))
        truth = entry["y"][idx_test]
        slices = schema.output_slices()
        pcts[f"{comp}_flux"] = bulk_stats(
            truth[:, slices["scalar"]], pred[:, slices["scalar"]])["mabs_pct_error"]
        if comp == "sw":
            pcts["sw_direct"] = bulk_stats(
                truth[:, slices["direct_down"]],
                pred[:, slices["direct_down"]])["mabs_pct_error"]

    elapsed = trained["train_seconds"]
    ok = all(p <= 30.0 for p in pcts.values()) and elapsed < 900.0
    detail = ", ".join(f"{k} {v:.1f}%" for k, v in pcts.items())
    report(5, ok, f"test-set mean-absolute flux errors {detail} "
                  f"(all <= 30% of the mean-absolute signal); "
                  f"training took {elapsed:.0f} s (< 900 s)")


def test_criterion_6_early_stopping_and_determinism():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(300, 2))
    y = np.stack([x[:, 0] * x[:, 1], x[:, 0] - x[:, 1]], axis=1)
    y += rng.normal(scale=0.05, size=y.shape)  # noise floor forces a plateau
    cfg = TrainConfig(max_epochs=1000, patience=50, learning_rate=1e-2,
                      batch_size=32, l1=0.0, l2=0.0, seed=5)
    runs = [train(init_model([2, 12, 2], seed=5), x[:200], y[:200], x[200:], y[200:], cfg)
            for _ in range(2)]
    (m1, h1), (m2, h2) = runs
    val = float(np.mean((forward(m1, x[200:]) - y[200:]) ** 2))
    best_hist = min(r.val_loss for r in h1)
    stopped_early = h1[-1].epoch < cfg.max_epochs
    bitwise = all(np.array_equal(w1, w2) for w1, w2 in zip(m1.weights, m2.weights))
    same_history = [r.val_loss for r in h1] == [r.val_loss for r in h2]
    ok = (math.isclose(val, best_hist, rel_tol=1e-12) and stopped_early
          and bitwise and same_history)
    report(6, ok, f"returned model matches the best validation epoch "
                  f"(val MSE {val:.3e}), stopping at epoch {h1[-1].epoch} < "
                  f"{cfg.max_epochs}; repeated runs are bitwise identical")


def test_criterion_7_augmentation(small_grid):
    originals = generate_profiles(13702, small_grid, seed=1)
    enlarged = augment_scalars(originals, k=9, seed=2)
    n = len(originals)
    shared_ok = all(np.array_equal(getattr(enlarged, name)[n * j:n * (j + 1)].view(np.int64),
                                   getattr(originals, name).view(np.int64))
                    for j in range(1, 10) for name in ("T", "f_c", "q_l", "q_i", "T_s"))
    member_ok = bool(np.isin(enlarged.alpha[n:], originals.alpha).all()
                     and np.isin(enlarged.mu0[n:], originals.mu0).all())
    ok = len(enlarged) == 137020 and shared_ok and member_ok
    report(7, ok, f"13702 profiles -> {len(enlarged)} (= 137020); copies share all "
                  "non-scalar fields bitwise and draw alpha/mu0 from the original sets")


def test_criterion_8_evaluation_statistics():
    rng = np.random.default_rng(3)
    signal = rng.normal(scale=0.7, size=(40, 9))
    pred = signal + rng.normal(scale=0.05, size=signal.shape)
    stats = bulk_stats(signal, pred)

    err = (pred - signal).ravel()
    sig = signal.ravel()
    naive = {
        "mean_signal": sum(sig.tolist()) / sig.size,
        "mean_error": sum(err.tolist()) / err.size,
        "mabs_signal": sum(abs(v) for v in sig.tolist()) / sig.size,
        "mabs_error": sum(abs(v) for v in err.tolist()) / err.size,
    }
    naive["pct_error"] = 100.0 * naive["mean_error"] / naive["mean_signal"]
    naive["mabs_pct_error"] = 100.0 * naive["mabs_error"] / naive["mabs_signal"]
    max_dev = max(abs(stats[k] - naive[k]) / max(1.0, abs(naive[k])) for k in naive)

    hand = bulk_stats(np.array([0.55, -0.55]), np.array([0.55048, -0.55048]))
    hand_ok = abs(hand["mabs_pct_error"] - 100.0 * 0.00048 / 0.55) < 1e-12

    ok = max_dev < 1e-12 and hand_ok
    report(8, ok, f"statistics match an independent scalar-loop reference "
                  f"(max deviation {max_dev:.2e} < 1e-12) and reproduce the "
                  "0.00048/0.55 -> 0.087% percentage arithmetic")


def test_criterion_9_benchmark(trained):
    model_lw = trained["models"]["lw"]["model"]
    model_sw = trained["models"]["sw"]["model"]
    profiles = trained["profiles"][:1000]
    x_lw, x_sw = build_input_matrix(profiles, (model_lw.schema, model_sw.schema), CONSTS)
    batch = [np.concatenate([a] * 10) for a in (x_lw, x_sw, profiles.alpha, profiles.mu0)]
    stage_seconds(model_lw, model_sw, *batch, GRID, CONSTS)  # warm up caches and allocators
    repeats = 5
    ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        stage_seconds(model_lw, model_sw, *batch, GRID, CONSTS)
        ms.append(1000.0 * (time.perf_counter() - t0) / len(batch[0]))
    mean_ms, std_ms = statistics.fmean(ms), statistics.pstdev(ms)
    spread = std_ms / mean_ms if mean_ms > 0 else math.inf
    ok = len(batch[0]) == 10000 and repeats >= 3 and spread < 0.20
    report(9, ok, f"10000-profile replicated batch, {repeats} repeats: "
                  f"{mean_ms:.6g} ± {std_ms:.3g} ms per profile (spread {100 * spread:.1f}% of mean, < 20%)")
