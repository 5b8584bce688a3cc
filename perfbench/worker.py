"""Measured child process of the benchmark.

    python3 perfbench/worker.py setup --workload W --models DIR
    python3 perfbench/worker.py run --workload W --seed N --seconds S --trace 0|1 --models DIR --work DIR

`setup` imports cre3d and loads what the workload's first operation needs,
then exits; run.py times it from outside. `run` prepares the workload's
inputs, runs whole rounds of its operations for at least S seconds of
operation time, and writes operation times, the calibration time around
each round, failure counts, peak memory, the outputs run.py checks and
(with --trace 1) per-layer self times to DIR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import reference
import spec

spec.pin_blas_threads()
sys.path.insert(0, spec.SRC)

import numpy as np  # noqa: E402  (imported after the BLAS threads are pinned)


def import_program() -> SimpleNamespace:
    """The cre3d modules, imported from the checkout's src/ and nowhere else."""
    import cre3d
    from cre3d import augment, cli, column, features, io, net, postproc

    here = os.path.dirname(os.path.abspath(cre3d.__file__))
    if os.path.commonpath([here, spec.SRC]) != spec.SRC:
        raise SystemExit(f"cre3d imported from {here}, not from the checkout's src/")
    return SimpleNamespace(cli=cli, column=column, features=features, net=net,
                           postproc=postproc, augment=augment, io=io)


def load_models(io, models_dir):
    model_lw, consts = io.load_model(os.path.join(models_dir, "model_lw.json"))
    model_sw, _ = io.load_model(os.path.join(models_dir, "model_sw.json"))
    return model_lw, model_sw, consts


_CAL_RECORD = {"id": "p000001", "values": [i * 1.2345 for i in range(138)]}
_CAL_VECTOR = np.linspace(0.0, 1.0, 90)
_CAL_A = np.random.default_rng(0).standard_normal((1000, 271))
_CAL_B = np.random.default_rng(1).standard_normal((217, 271))


@dataclass(frozen=True)
class _CalRecord:
    values: np.ndarray
    scalar: float


def calibrate() -> float:
    """Seconds taken by a fixed mix of the work the workloads do: JSON
    round trips, small-array checks and dataclass construction, a dense layer
    with ELU. It never calls cre3d, so a change to the program cannot move it."""
    start = time.perf_counter()
    for _ in range(30):
        json.loads(json.dumps(_CAL_RECORD))
    for _ in range(300):
        x = np.asarray(_CAL_VECTOR, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("calibration vector is not finite")
        _CalRecord(values=np.concatenate([x[:10], x[10:]]), scalar=float(x[3]))
    for _ in range(4):
        z = _CAL_A @ _CAL_B.T
        np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ru_maxrss is not used where /proc is available: Linux carries it across
    exec, so it would include run.py's memory at the time it started us.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(*arrays_or_paths) -> str:
    h = hashlib.sha256()
    for item in arrays_or_paths:
        if isinstance(item, str):
            with open(item, "rb") as fh:
                h.update(fh.read())
        else:
            h.update(item.tobytes())
    return h.hexdigest()


def kernel_op(net, postproc, model_lw, model_sw, x_lw, x_sw, alpha, mu0, grid, consts):
    """normalize -> forward -> denormalize -> night zeroing -> postprocess, LW and SW."""
    out = {}
    for component, model, x in (("lw", model_lw, x_lw), ("sw", model_sw, x_sw)):
        y = model.norm_out.invert(net.forward(model, model.norm_in.apply(x)))
        s = model.schema.output_slices()
        if component == "sw":
            y[mu0 <= 0] = 0.0
        up, down, heat = postproc.postprocess_batch(
            component, y[:, s["scalar"]], y[:, s["heat"]], grid, consts,
            alpha=alpha if component == "sw" else None)
        out[component] = {"up": up, "down": down, "heat": heat}
        if component == "sw":
            out[component]["direct_down"] = y[:, s["direct_down"]]
    return out


class Round:
    """Times each operation of a round and counts the ones that fail."""

    def __init__(self, tracer=None, root=None):
        self.tracer, self.root = tracer, root
        self.seconds = 0.0
        self.ops = 0
        self.failed = 0
        self.errors = []
        self.op_seconds = []

    def run(self, fn, *args):
        self.ops += 1
        start = time.perf_counter()
        try:
            if self.tracer is not None and self.root is not None:
                result = self.tracer.root(self.root, fn, *args)
            else:
                result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            result = exc
        elapsed = time.perf_counter() - start
        self.seconds += elapsed
        self.op_seconds.append(elapsed)
        if isinstance(result, Exception):
            self.fail(f"{type(result).__name__}: {result}")
        return result

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class PredictFiles:
    """`cre3d predict` file to file through cli.main."""

    root = None  # cli.main is itself the traced root span

    def __init__(self, prog, args):
        self.cli = prog.cli
        w = args.work
        self.outputs = (os.path.join(w, "pred_lw.jsonl"), os.path.join(w, "pred_sw.jsonl"))
        self.argv = ["predict", "--profiles", os.path.join(w, "profiles.jsonl"),
                     "--model-lw", os.path.join(args.models, "model_lw.json"),
                     "--model-sw", os.path.join(args.models, "model_sw.json"),
                     "--out-lw", self.outputs[0], "--out-sw", self.outputs[1]]
        self.profiles_per_round = spec.PREDICT_PROFILES
        self.first = None

    def round(self, r: Round):
        rc = r.run(self.cli.main, self.argv)
        if rc != 0:
            if not isinstance(rc, Exception):
                r.fail(f"cre3d predict exited with {rc}")
            return
        d = digest(*self.outputs)
        if self.first is None:
            self.first = d
        elif d != self.first:
            r.fail("cre3d predict output differs between rounds")

    def save(self, work):
        pass  # run.py reads the prediction files themselves


class Couple:
    """net.predict_flux_effects on in-memory profiles, a chunk per call."""

    root = "bench"

    def __init__(self, prog, args):
        self.net = prog.net
        self.model_lw, self.model_sw, self.consts = load_models(prog.io, args.models)
        grid = prog.augment.make_reference_grid()
        profiles = prog.augment.generate_profiles(spec.COUPLE_POOL, grid,
                                                  spec.workload_seed("couple", args.seed))
        c = spec.COUPLE_CHUNK
        self.chunks = [profiles[i:i + c] for i in range(0, len(profiles), c)]
        self.profiles_per_round = len(profiles)
        self.first = None

    def call(self, chunk):
        return self.net.predict_flux_effects(self.model_lw, self.model_sw, chunk, self.consts)

    def round(self, r: Round):
        results = [r.run(self.call, chunk) for chunk in self.chunks]
        if self.first is None:
            self.first = results
            return
        for got, want in zip(results, self.first):
            if isinstance(got, Exception) or isinstance(want, Exception):
                continue
            if not all(np.array_equal(got[c][k], want[c][k]) for c in want for k in want[c]):
                r.fail("chunk result differs between rounds")

    def save(self, work):
        arrays = {}
        for component in ("lw", "sw"):
            for key in self.first[0][component]:
                arrays[f"{component}_{key}"] = np.vstack([res[component][key] for res in self.first])
        np.savez(os.path.join(work, "couple_out.npz"), **arrays)


class Kernel:
    """The in-memory inference kernel on pre-assembled input matrices."""

    root = "bench"

    def __init__(self, prog, args):
        self.net, self.postproc = prog.net, prog.postproc
        self.model_lw, self.model_sw, self.consts = load_models(prog.io, args.models)
        self.grid = prog.augment.make_reference_grid()
        profiles = prog.augment.generate_profiles(spec.KERNEL_UNIQUE, self.grid,
                                                  spec.workload_seed("kernel", args.seed))
        x_lw = prog.features.build_input_matrix(profiles, self.model_lw.schema, self.consts)
        x_sw = prog.features.build_input_matrix(profiles, self.model_sw.schema, self.consts)
        alpha = np.array([p.alpha for p in profiles])
        mu0 = np.array([p.mu0 for p in profiles])
        k = spec.KERNEL_TILE
        self.inputs = {"x_lw": x_lw, "x_sw": x_sw}
        self.batch = (np.tile(x_lw, (k, 1)), np.tile(x_sw, (k, 1)), np.tile(alpha, k), np.tile(mu0, k))
        self.profiles_per_round = k * len(profiles)
        self.first = None
        self.first_out = None

    def call(self):
        x_lw, x_sw, alpha, mu0 = self.batch
        return kernel_op(self.net, self.postproc, self.model_lw, self.model_sw,
                         x_lw, x_sw, alpha, mu0, self.grid, self.consts)

    def round(self, r: Round):
        out = r.run(self.call)
        if isinstance(out, Exception):
            return
        arrays = [out[c][k] for c in sorted(out) for k in sorted(out[c])]
        d = digest(*arrays)
        if self.first is None:
            self.first = d
            u = spec.KERNEL_UNIQUE
            # Copies of a column sit in different BLAS blocks, so they agree
            # to rounding, not bit for bit.
            for a in arrays:
                tiles = a.reshape(spec.KERNEL_TILE, u, -1)
                try:
                    for copy in tiles[1:]:
                        reference.check_close(copy, tiles[0], "kernel copies of one column")
                except reference.CheckFailed as exc:
                    r.fail(str(exc))
                    break
            self.first_out = {c: {k: v[:u].copy() for k, v in out[c].items()} for c in out}
        elif d != self.first:
            r.fail("kernel output differs between rounds")

    def save(self, work):
        np.savez(os.path.join(work, "kernel_out.npz"), **self.inputs,
                 **{f"{c}_{k}": v for c in self.first_out for k, v in self.first_out[c].items()})


class SynthTrain:
    """`cre3d synth`, then `cre3d train` for LW and SW, through cli.main."""

    root = None

    def __init__(self, prog, args):
        self.cli = prog.cli
        w = args.work
        self.paths = {name: os.path.join(w, name) for name in (
            "synth_profiles.jsonl", "truth_lw.jsonl", "truth_sw.jsonl",
            "trained_lw.json", "trained_sw.json")}
        p = self.paths
        self.synth = ["synth", "--profiles", str(spec.SYNTH_PROFILES),
                      "--seed", str(spec.workload_seed("synth-train", args.seed)),
                      "--out-profiles", p["synth_profiles.jsonl"],
                      "--out-truth-lw", p["truth_lw.jsonl"], "--out-truth-sw", p["truth_sw.jsonl"]]
        self.train = [["train", "--profiles", p["synth_profiles.jsonl"],
                       "--truth", p[f"truth_{c}.jsonl"], "--component", c,
                       "--seed", "0", "--max-epochs", str(spec.TRAIN_EPOCHS),
                       "--patience", str(spec.TRAIN_EPOCHS - 1),
                       "--batch-size", str(spec.TRAIN_BATCH), "--out", p[f"trained_{c}.json"]]
                      for c in ("lw", "sw")]
        self.profiles_per_round = spec.SYNTH_PROFILES
        self.first = None

    def round(self, r: Round):
        for argv in [self.synth] + self.train:
            rc = r.run(self.cli.main, argv)
            if rc != 0 and not isinstance(rc, Exception):
                r.fail(f"cre3d {argv[0]} exited with {rc}")
        if r.failed:
            return
        d = digest(*self.paths.values())
        if self.first is None:
            self.first = d
        elif d != self.first:
            r.fail("synth/train outputs differ between rounds")

    def save(self, work):
        pass


WORKLOAD_CLASSES = {"predict-files": PredictFiles, "couple": Couple,
                    "kernel": Kernel, "synth-train": SynthTrain}


def run(args) -> dict:
    prog = import_program()
    workload = WORKLOAD_CLASSES[args.workload](prog, args)
    tracer = None
    targets = []
    if args.trace:
        from tracer import Tracer, program_targets

        tracer = Tracer()
        targets = program_targets(prog)

    rounds, op_s, calibration_s, traced_flags = [], [], [], []
    attempted = failed = 0
    errors = []
    elapsed = 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.install(targets)
        r = Round(tracer if traced else None, workload.root)
        before = calibrate()
        try:
            workload.round(r)
        finally:
            if traced:
                tracer.uninstall()
        calibration_s.append(0.5 * (before + calibrate()))
        rounds.append(r.seconds)
        op_s.append(r.op_seconds)
        traced_flags.append(traced)
        attempted += r.ops
        failed += r.failed
        errors.extend(r.errors)
        elapsed += r.seconds
        if elapsed >= args.seconds and (not args.trace or len(rounds) >= 2):
            break

    if workload.first is not None:
        workload.save(args.work)
    result = {
        "workload": args.workload,
        "round_s": rounds,
        "op_s": op_s,
        "calibration_s": calibration_s,
        "traced": traced_flags,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:5],
        "profiles_per_round": workload.profiles_per_round,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        n = sum(traced_flags)
        traced_s = [t for t, f in zip(rounds, traced_flags) if f]
        plain_s = [t for t, f in zip(rounds, traced_flags) if not f]
        result["trace"] = {
            "self_s": {k: v / n for k, v in tracer.self_times().items()},
            "counts": {k: v / n for k, v in tracer.counts.items()},
            "traced_round_s": statistics.median(traced_s),
            "untraced_round_s": statistics.median(plain_s),
            "traced_total_s": sum(traced_s) / n,
        }
        tracer.write(os.path.join(args.work, "spans.json"))
    return result


def setup(args) -> None:
    prog = import_program()
    if args.workload != "synth-train":
        load_models(prog.io, args.models)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=spec.WORKLOADS, required=True)
    parser.add_argument("--models", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args)
        return 0
    result = run(args)
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
