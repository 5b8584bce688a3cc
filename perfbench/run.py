"""cre3d benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Every input (profiles, toy truth and the
reference models) is regenerated from the checkout's own code and --seed;
nothing generated is committed. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import spec

spec.pin_blas_threads()

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30
TRACE_SUM_TOLERANCE = 0.02  # per-layer self times must account for the traced time

with open(os.path.join(spec.ROOT, "BENCHMARK.json")) as _fh:
    _BENCH = json.load(_fh)
END_TO_END = [(m["name"], m["unit"]) for m in _BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _BENCH["per_layer"]]
# Per-layer times are span self times: metric "<span>_s" for span "<span>";
# the commands' and the benchmark's own root spans are "cli" and "bench".
ROOT_SPANS = {"cli": "cli.self_s", "bench": "bench.self_s"}
TRACE_STATS = ("trace.overhead_s", "trace.traced_round_s", "trace.untraced_round_s")
LAYER_SPANS = [n[:-2] for n, _ in PER_LAYER
               if n.endswith("_s") and n not in ROOT_SPANS.values() and n not in TRACE_STATS]
COUNTS = [n for n, _ in PER_LAYER if not n.endswith("_s")]


def fail_early(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(spec.SRC, "cre3d", "__init__.py")):
    fail_early(f"no cre3d package under {spec.SRC}; run from the root of a cre3d checkout")

sys.path.insert(0, spec.SRC)

import numpy as np  # noqa: E402  (imported after the BLAS threads are pinned)

import reference as ref  # noqa: E402
from cre3d import augment, cli, features, io, net, postproc  # noqa: E402
from cre3d.column import PhysConsts  # noqa: E402
from worker import calibrate, kernel_op  # noqa: E402


# ---------------------------------------------------------------------------
# Reference models, built once per checkout


def ensure_models() -> str:
    """Train the LW and SW reference models with the checkout's own CLI."""
    h = hashlib.sha256()
    package = os.path.join(spec.SRC, "cre3d")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    h.update(repr((spec.MODEL_SEED, spec.MODEL_PROFILES, spec.MODEL_EPOCHS,
                   spec.MODEL_BATCH)).encode())
    final = os.path.join(spec.WORK, f"models-{h.hexdigest()[:16]}")
    if os.path.isfile(os.path.join(final, "model_sw.json")):
        return final
    tmp = f"{final}.tmp-{os.getpid()}"
    os.makedirs(tmp)
    try:
        p = lambda name: os.path.join(tmp, name)  # noqa: E731
        steps = [["synth", "--profiles", str(spec.MODEL_PROFILES), "--seed", str(spec.MODEL_SEED),
                  "--out-profiles", p("profiles.jsonl"), "--out-truth-lw", p("truth_lw.jsonl"),
                  "--out-truth-sw", p("truth_sw.jsonl")]]
        for c in ("lw", "sw"):
            steps.append(["train", "--profiles", p("profiles.jsonl"), "--truth", p(f"truth_{c}.jsonl"),
                          "--component", c, "--seed", "0", "--max-epochs", str(spec.MODEL_EPOCHS),
                          "--patience", str(spec.MODEL_EPOCHS - 1),
                          "--batch-size", str(spec.MODEL_BATCH), "--out", p(f"model_{c}.json")])
        for argv in steps:
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"building the reference models failed at `cre3d {argv[0]}`")
        for name in ("profiles.jsonl", "truth_lw.jsonl", "truth_sw.jsonl"):
            os.remove(p(name))
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


# ---------------------------------------------------------------------------
# Checks and accuracy, shared by the inference workloads


class Checked:
    """Collects check failures and input descriptions for one run."""

    def __init__(self):
        self.failures = []
        self.notes = {}

    def run(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ref.CheckFailed as exc:
            self.failures.append(str(exc))
            return None


def truth_windows(profiles, consts):
    truth = [augment.toy_truth(p, consts) for p in profiles]
    return {
        "lw": (np.array([t.up_lw for t in truth]), np.array([t.down_lw for t in truth]),
               np.array([t.lw.heat for t in truth])),
        "sw": (np.array([t.up_sw for t in truth]), np.array([t.down_sw for t in truth]),
               np.array([t.sw.heat for t in truth])),
    }


def check_inference(chk, label, models, profiles, x, out, full_grid, truth=None, prefix=""):
    """Physics checks and accuracy for LW/SW outputs of one set of columns.

    `models` are ModelFile objects, `x` the raw input matrices per component,
    `out` per component dicts of (n, levels) arrays, on the full grid or on
    the window. `truth` holds window (up, down, heat) per component; by
    default it is the toy truth of `profiles`. Input descriptions go into
    chk.notes and accuracy keys are returned, both under `prefix`."""
    grid = augment.make_reference_grid()
    m_lw = models["lw"]
    i0 = ref.window_start(grid.p_hl, m_lw.p_trunc)
    dp = np.diff(grid.p_hl)
    alpha = np.array([p.alpha for p in profiles])
    mu0 = np.array([p.mu0 for p in profiles])
    window = {}
    for c in ("lw", "sw"):
        o = out[c]
        require_rows = all(len(v) == len(profiles) for v in o.values())
        chk.run(ref.require, require_rows, f"{label}: {c} record count differs from the input")
        if full_grid:
            chk.run(ref.check_full_grid, o, i0, f"{label} {c}")
            window[c] = {k: v[:, i0:] for k, v in o.items()}
            residual = chk.run(ref.check_energy, o["up"], o["down"], o["heat"], dp,
                               m_lw.g, m_lw.c_p, f"{label} {c}")
        else:
            window[c] = o
            chk.run(ref.check_window_top, o["down"], f"{label} {c}")
            residual = chk.run(ref.check_energy, o["up"], o["down"], o["heat"], dp[i0:],
                               m_lw.g, m_lw.c_p, f"{label} {c}")
        if residual is not None:
            chk.notes["max_energy_residual_w_m2"] = max(
                residual, chk.notes.get("max_energy_residual_w_m2", 0.0))
        raw = models[c].raw_outputs(x[c])
        shares = chk.run(ref.check_rescale, models[c], raw, window[c]["heat"], alpha, mu0,
                         dp[i0:], f"{label} {c}")
        if shares is not None:
            for k, v in shares.items():
                chk.notes[f"{prefix}{c}_{k}_share"] = v
    chk.run(ref.check_night, out["sw"], mu0, label)
    chk.notes[f"{prefix}night_share"] = float(np.mean(mu0 <= 0))
    chk.notes[f"{prefix}columns"] = len(profiles)

    # Columns the normalization blows up are counted, not scored: one of them
    # can outweigh thousands of others (see README, "Accuracy").
    seen = ~(models["lw"].unseen_columns(x["lw"]) | models["sw"].unseen_columns(x["sw"]))
    chk.notes[f"{prefix}unseen_feature_columns"] = int(np.sum(~seen))
    if truth is None:
        truth = truth_windows(profiles, physconsts(m_lw))
    acc = {}
    for c in ("lw", "sw"):
        w = window[c]
        t = [a[seen] for a in truth[c]]
        mae, medae, heat = ref.errors(w["up"][seen], w["down"][seen], w["heat"][seen], *t)
        acc[f"{prefix}{c}_flux_mae_w_m2"] = mae
        acc[f"{prefix}{c}_flux_medae_w_m2"] = medae
        acc[f"{prefix}{c}_heat_mae_k_day"] = heat
    return acc


def physconsts(model_file):
    return PhysConsts(g=model_file.g, c_p=model_file.c_p, p_trunc=model_file.p_trunc)


def program_models(models_dir, stem="model"):
    m_lw, consts = io.load_model(os.path.join(models_dir, f"{stem}_lw.json"))
    m_sw, _ = io.load_model(os.path.join(models_dir, f"{stem}_sw.json"))
    return m_lw, m_sw, consts


def input_matrices(profiles, models_dir, stem="model"):
    m_lw, m_sw, consts = program_models(models_dir, stem)
    return {"lw": features.build_input_matrix(profiles, m_lw.schema, consts),
            "sw": features.build_input_matrix(profiles, m_sw.schema, consts)}


def model_files(models_dir, stem="model"):
    return {c: ref.ModelFile(os.path.join(models_dir, f"{stem}_{c}.json")) for c in ("lw", "sw")}


def reference_profiles(workload, seed, n):
    return augment.generate_profiles(n, augment.make_reference_grid(),
                                     spec.workload_seed(workload, seed))


# ---------------------------------------------------------------------------
# Workloads: inputs before the worker runs, checks after


def prepare(workload, seed, work):
    if workload == "predict-files":
        profiles = reference_profiles(workload, seed, spec.PREDICT_PROFILES)
        io.write_profiles(os.path.join(work, "profiles.jsonl"), profiles)
        return profiles
    return None


def verify(workload, seed, work, models_dir, prepared, chk):
    models = model_files(models_dir)
    if workload == "predict-files":
        profiles = prepared
        out = {}
        for c in ("lw", "sw"):
            records = ref.read_jsonl(os.path.join(work, f"pred_{c}.jsonl"))
            chk.run(ref.require, [r["id"] for r in records] == [p.pid for p in profiles],
                    f"predict-files: {c} ids or record count differ from the input")
            out[c] = ref.flux_arrays(records)
        return check_inference(chk, workload, models, profiles, input_matrices(profiles, models_dir),
                               out, full_grid=True)
    if workload == "couple":
        profiles = reference_profiles(workload, seed, spec.COUPLE_POOL)
        saved = np.load(os.path.join(work, "couple_out.npz"))
        out = {c: {k.split("_", 1)[1]: saved[k] for k in saved.files if k.startswith(c)}
               for c in ("lw", "sw")}
        x = input_matrices(profiles, models_dir)
        acc = check_inference(chk, workload, models, profiles, x, out, full_grid=True)
        one_call = one_call_kernel(models_dir, profiles, x)
        i0 = ref.window_start(augment.make_reference_grid().p_hl, models["lw"].p_trunc)
        for c in ("lw", "sw"):
            for k, v in one_call[c].items():
                chk.run(ref.check_close, out[c][k][:, i0:], v, f"couple {c} {k}")
        return acc
    if workload == "kernel":
        profiles = reference_profiles(workload, seed, spec.KERNEL_UNIQUE)
        saved = np.load(os.path.join(work, "kernel_out.npz"))
        x = {c: saved[f"x_{c}"] for c in ("lw", "sw")}
        out = {c: {k.split("_", 1)[1]: saved[k] for k in saved.files if k.startswith(c + "_")}
               for c in ("lw", "sw")}
        acc = check_inference(chk, workload, models, profiles, x, out, full_grid=False)
        n = spec.CHUNK_CHECK_COLUMNS
        chunked = chunked_pipeline(models_dir, profiles[:n])
        i0 = ref.window_start(augment.make_reference_grid().p_hl, models["lw"].p_trunc)
        for c in ("lw", "sw"):
            for k, v in out[c].items():
                chk.run(ref.check_close, chunked[c][k][:, i0:], v[:n], f"kernel {c} {k}")
        return acc
    return verify_synth_train(seed, work, models_dir, chk)


def one_call_kernel(models_dir, profiles, x):
    m_lw, m_sw, consts = program_models(models_dir)
    alpha = np.array([p.alpha for p in profiles])
    mu0 = np.array([p.mu0 for p in profiles])
    return kernel_op(net, postproc, m_lw, m_sw, x["lw"], x["sw"], alpha, mu0,
                     augment.make_reference_grid(), consts)


def chunked_pipeline(models_dir, profiles):
    m_lw, m_sw, consts = program_models(models_dir)
    c = spec.COUPLE_CHUNK
    parts = [net.predict_flux_effects(m_lw, m_sw, profiles[i:i + c], consts)
             for i in range(0, len(profiles), c)]
    return {comp: {k: np.vstack([p[comp][k] for p in parts]) for k in parts[0][comp]}
            for comp in ("lw", "sw")}


def verify_synth_train(seed, work, models_dir, chk):
    p = lambda name: os.path.join(work, name)  # noqa: E731
    records = ref.read_jsonl(p("synth_profiles.jsonl"))
    ids = [r["id"] for r in records]
    alpha = np.array([r["alpha"] for r in records])
    chk.run(ref.require, len(records) == spec.SYNTH_PROFILES, "synth: wrong profile count")
    profiles = io.read_profiles(p("synth_profiles.jsonl"))
    i0 = ref.window_start(profiles[0].grid.p_hl, ref.ModelFile(p("trained_lw.json")).p_trunc)
    truth = {}
    for c in ("lw", "sw"):
        t = ref.flux_arrays(ref.read_jsonl(p(f"truth_{c}.jsonl")))
        chk.run(ref.require, [r["id"] for r in ref.read_jsonl(p(f"truth_{c}.jsonl"))] == ids,
                f"synth: {c} truth ids differ from the profiles")
        chk.run(ref.check_toy_truth, t["up"], t["down"], alpha, c, f"synth {c}")
        truth[c] = (t["up"][:, i0:], t["down"][:, i0:], t["heat"][:, i0:])

    # Gated accuracy: the reference models on held-out columns from the seed.
    # 600 synthesized columns are too few to score steadily.
    held = reference_profiles("synth-train-heldout", seed, spec.HELDOUT_PROFILES)
    acc = predict_and_check(chk, "synth-train", models_dir, "model", held, None)

    # The freshly trained models: epoch count, physics checks and their
    # test-split accuracy, which is reported but not gated (README, "Accuracy").
    trained = model_files(work, stem="trained")
    for c in ("lw", "sw"):
        ran = trained[c].training.get("epochs_run")
        chk.run(ref.require, ran == spec.TRAIN_EPOCHS,
                f"train {c}: ran {ran} epochs, not {spec.TRAIN_EPOCHS}")
    index = {pid: i for i, pid in enumerate(ids)}
    test = [index[pid] for pid in trained["lw"].training["split"]["test_ids"]]
    acc.update(predict_and_check(chk, "synth-train trained", work, "trained",
                                 [profiles[i] for i in test],
                                 {c: tuple(a[test] for a in truth[c]) for c in truth},
                                 prefix="trained_"))
    return acc


def predict_and_check(chk, label, models_dir, stem, profiles, truth, prefix=""):
    m_lw, m_sw, consts = program_models(models_dir, stem)
    out = net.predict_flux_effects(m_lw, m_sw, profiles, consts)
    return check_inference(chk, label, model_files(models_dir, stem), profiles,
                           input_matrices(profiles, models_dir, stem), out, full_grid=True,
                           truth=truth, prefix=prefix)


# ---------------------------------------------------------------------------
# One run


def worker_cmd(mode, workload, models_dir, *extra):
    return [sys.executable, WORKER, mode, "--workload", workload, "--models", models_dir, *extra]


def measure_setup(workload, models_dir):
    """Median wall time of fresh set-up processes, in reference seconds."""
    times = []
    for _ in range(spec.SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        proc = subprocess.run(worker_cmd("setup", workload, models_dir), capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        times.append(elapsed * spec.CALIBRATION_REF_S / (0.5 * (before + calibrate())))
    return statistics.median(times)


def run_workload(workload, seed, seconds, trace, log):
    models_dir = ensure_models()
    work = os.path.join(spec.WORK, f"run-{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        prepared = prepare(workload, seed, work)
        setup_s = measure_setup(workload, models_dir)
        proc = subprocess.run(
            worker_cmd("run", workload, models_dir, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(trace), "--work", work),
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} worker failed: {proc.stderr.strip()[-2000:]}")
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
        chk = Checked()
        acc = verify(workload, seed, work, models_dir, prepared, chk)
        if trace:
            shutil.copyfile(os.path.join(work, "spans.json"),
                            os.path.join(spec.WORK, f"spans-{workload}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = result["failed"]
    if chk.failures:
        failed = result["attempted"]
    for message in result["errors"] + chk.failures:
        log(f"FAILED {workload}: {message}")

    # Operation times in reference seconds (see spec.CALIBRATION_REF_S). A
    # round repeats the same operations on the same inputs, so each
    # operation's median over the untraced rounds is robust to bursts of
    # machine noise; their sum is the round time the throughput is based on.
    untraced = [[t * spec.CALIBRATION_REF_S / cal for t in ops]
                for ops, cal, f in zip(result["op_s"], result["calibration_s"], result["traced"])
                if not f]
    op_median = [statistics.median(times) for times in zip(*untraced)]
    raw_median = [statistics.median(times) for times in
                  zip(*[ops for ops, f in zip(result["op_s"], result["traced"]) if not f])]
    metrics = {
        "setup_s": setup_s,
        "profiles_per_s": result["profiles_per_round"] / sum(op_median),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    extra = {k: v for k, v in acc.items() if k not in dict(END_TO_END)}
    extra["raw_profiles_per_s"] = result["profiles_per_round"] / sum(raw_median)
    extra["calibration_ms"] = 1000 * statistics.median(result["calibration_s"])
    metrics.update({k: v for k, v in acc.items() if k in dict(END_TO_END)})
    if workload == "synth-train":
        rows = round(spec.TRAIN_FRACTION * spec.SYNTH_PROFILES)
        synth_s, train_lw_s, train_sw_s = op_median
        extra["synth_profiles_per_s"] = spec.SYNTH_PROFILES / synth_s
        extra["train_samples_per_s"] = 2 * rows * spec.TRAIN_EPOCHS / (train_lw_s + train_sw_s)
    layer = None
    if trace:
        layer, trace_failure = per_layer(result["trace"])
        if trace_failure:
            log(f"FAILED {workload}: {trace_failure}")
            failed = result["attempted"]
            chk.failures.append(trace_failure)
    return {"workload": workload, "rounds": len(result["round_s"]), "attempted": result["attempted"],
            "failed": failed, "correct": not chk.failures,
            "metrics": metrics, "extra": extra, "notes": chk.notes, "per_layer": layer}


def per_layer(trace):
    self_s = dict(trace["self_s"])
    metrics = {metric: self_s.pop(span, 0.0) for span, metric in ROOT_SPANS.items()}
    unknown = set(self_s) - set(LAYER_SPANS)
    for name in LAYER_SPANS:
        metrics[f"{name}_s"] = self_s.get(name, 0.0)
    for name in COUNTS:
        metrics[name] = trace["counts"].get(name, 0.0)
    metrics["trace.overhead_s"] = trace["traced_round_s"] - trace["untraced_round_s"]
    metrics["trace.traced_round_s"] = trace["traced_round_s"]
    metrics["trace.untraced_round_s"] = trace["untraced_round_s"]
    accounted = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
    gap = abs(accounted - trace["traced_total_s"]) / trace["traced_total_s"]
    failure = None
    if unknown:
        failure = f"spans without a per-layer metric: {sorted(unknown)}"
    elif gap > TRACE_SUM_TOLERANCE:
        failure = (f"per-layer self times sum to {accounted:.6g} s, traced time is "
                   f"{trace['traced_total_s']:.6g} s ({gap:.1%} apart)")
    return metrics, failure


# ---------------------------------------------------------------------------
# Output


UNITS = dict(END_TO_END + PER_LAYER + [
    ("synth_profiles_per_s", "profiles/s"), ("train_samples_per_s", "samples/s"),
    ("raw_profiles_per_s", "profiles/s"), ("calibration_ms", "ms")])


def unit(name):
    if name in UNITS:
        return UNITS[name]
    return "W/m2" if name.endswith("_w_m2") else "K/day"


# The per-workload throughput under the name each workload gives it.
THROUGHPUT_NAME = {"predict-files": "predict_profiles_per_s", "couple": "couple_profiles_per_s",
                   "kernel": "kernel_profiles_per_s"}


def log(message):
    print(message, flush=True)


def report(res, trace):
    w = res["workload"]
    log(f"# {w}: rounds={res['rounds']} attempted={res['attempted']} failed={res['failed']} "
        f"correct={str(res['correct']).lower()}")
    log(f"# {w} inputs: " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                        for k, v in sorted(res["notes"].items())))
    shown = res["per_layer"] if trace else {**res["metrics"], **res["extra"]}
    for name, value in shown.items():
        log(f"{w} {name} {value:.6g} {unit(name)}")


def final_line(res, trace):
    names = PER_LAYER if trace else END_TO_END
    source = res["per_layer"] if trace else res["metrics"]
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {name: {"value": source[name], "unit": unit} for name, unit in names}}


def summary(results):
    """The all-workloads view, under the names each metric has per workload."""
    by = {r["workload"]: r for r in results}
    out = {}
    for w, name in THROUGHPUT_NAME.items():
        if w in by:
            out[name] = (by[w]["metrics"]["profiles_per_s"], "profiles/s")
    if "synth-train" in by:
        st = by["synth-train"]
        out["synth_profiles_per_s"] = (st["extra"]["synth_profiles_per_s"], "profiles/s")
        out["train_samples_per_s"] = (st["extra"]["train_samples_per_s"], "samples/s")
        # The trained models' test-split accuracy, under the view's names.
        for name in ("lw_flux_mae_w_m2", "sw_flux_mae_w_m2", "lw_heat_mae_k_day",
                     "sw_heat_mae_k_day"):
            out[name] = (st["extra"][f"trained_{name}"], unit(name))
    out["setup_s"] = (max(r["metrics"]["setup_s"] for r in results), "s")
    out["peak_rss_mb"] = (max(r["metrics"]["peak_rss_mb"] for r in results), "MB")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=spec.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = spec.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for w in workloads:
        res = run_workload(w, args.seed, args.seconds, args.trace, log)
        report(res, args.trace)
        results.append(res)
    if len(results) == 1:
        print(json.dumps(final_line(results[0], args.trace)))
        return 0
    if args.trace:
        metrics = {f"{r['workload']}/{k}": {"value": v, "unit": unit(k)}
                   for r in results for k, v in r["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary(results).items()}
        log("# all workloads")
        for k, m in metrics.items():
            log(f"{k} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
