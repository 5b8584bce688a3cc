"""Command-line surface for the 3D cloud-effect emulation pipeline.

Subcommands: synth, augment, train, grid-search, predict, correct, eval,
bench. Importing this module pins numpy's BLAS to one thread, where the
environment sets no count of its own, before numpy loads: a command then
runs one OS thread, so the row-wise inference stages (`rowblocks`) and
`io`'s readers and writers may run one worker per CPU.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import os
import platform
import statistics
import sys
import time

_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for var in _BLAS_ENV:
    os.environ.setdefault(var, "1")
del var

import numpy as np  # noqa: E402  (after the pin: the BLAS reads it as numpy loads)

from . import augment, column, evalbench, features, io, net, rowblocks  # noqa: E402

INPUT_VARIANTS = {6: (False, False), 7: (True, False), 8: (True, True)}


def _split_indices(n: int, seed: int):
    """Seeded, disjoint split by profile index: the train, validation and
    test fractions, and the indices of each."""
    fractions = (0.6, 0.2, 0.2)
    order = np.random.default_rng(seed).permutation(n)
    n_train, n_val = (int(round(f * n)) for f in fractions[:2])
    return fractions, (order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:])


def _fluxes_for(path, ids, ids_path, n_hl: int, what: str = "record"):
    """One FluxSet of the rows of flux file `path` for `ids` (read from
    `ids_path`, whose grid has `n_hl` half levels), in that order; the file
    must be on that grid, and every id must be non-null and have a record."""
    file_ids, flux = io.read_fluxes(path)
    if flux.up.shape[-1] != n_hl:
        raise io.DatasetError(path, None, f"records have {flux.up.shape[-1]} half levels, "
                                          f"but the grid of {ids_path} has {n_hl}")
    row_of = {pid: row for row, pid in enumerate(file_ids)}
    for index, pid in enumerate(ids, start=1):
        if pid is None:
            raise io.DatasetError(ids_path, index, f"id is null, so no {what} in {path} can be matched to it")
        if pid not in row_of:
            raise io.DatasetError(path, None, f"no {what} for profile id {pid!r}")
    rows = [row_of[pid] for pid in ids]
    return column.FluxSet(**{name: arr if arr is None else arr[rows] for name, arr in vars(flux).items()})


def _training_sets(args, variants, consts):
    """Read `--profiles`, match `--truth` to them by id and split them; build
    the `--component` targets and `norm_out` once, then the inputs and
    `norm_in` of each of `variants`, fitted on the train rows. Returns the
    profiles, the split (fractions, indices) and {variant: (schema, norm_in,
    GridDataset)}; inputs that cannot build the set fail first, named."""
    profiles = io.read_profiles(args.profiles)
    truth = _fluxes_for(args.truth, profiles.ids, args.profiles, profiles.grid.n_hl, "truth record")
    if args.component == "sw" and truth.direct_down is None:
        raise io.DatasetError(args.truth, None, "shortwave targets need direct_down, but the records have none")
    for variant in variants:
        if INPUT_VARIANTS[variant][0] and profiles.q is None:
            raise io.DatasetError(args.profiles, None, f"input variant {variant} needs specific humidity (q), "
                                                       "but the records have none")
    fractions, split = _split_indices(len(profiles), args.seed)
    idx_train, idx_val, _ = split
    targets = features.targets_from_flux_effects(
        args.component, truth.up, truth.down, profiles.grid, consts,
        alpha=profiles.alpha, direct_down=truth.direct_down)
    # the variants differ in their inputs only: one output layout serves them all
    y = features.build_target_vector(targets,
                                     features.schema_for_grid(args.component, profiles.grid, consts.p_trunc))
    norm_out = features.fit_normalization(y[idx_train])
    yn = norm_out.apply(y)
    sets = {}
    for variant in variants:
        schema = features.schema_for_grid(args.component, profiles.grid, consts.p_trunc, *INPUT_VARIANTS[variant])
        x = features.build_input_matrix(profiles, schema, consts)
        norm_in = features.fit_normalization(x[idx_train])
        xn = norm_in.apply(x)
        sets[variant] = schema, norm_in, net.GridDataset(
            x_train=xn[idx_train], y_train=yn[idx_train],
            x_val=xn[idx_val], y_val=yn[idx_val], norm_out=norm_out)
    return profiles, (fractions, split), sets


def _model_pair(path_lw: str, path_sw: str):
    """The LW and SW models and the physical constants both files must share.

    With more than one usable CPU, LW loads here while SW loads in a forked
    part (`io._in_parts`). If either fails, both load again here, LW first,
    so the models and the errors are those of two one-process loads."""
    pair = None
    if rowblocks.usable_cpus() > 1:
        with contextlib.suppress(Exception):
            pair = io._in_parts(path_sw, io.load_model, [path_lw, path_sw])
    (model_lw, consts), (model_sw, consts_sw) = pair or (io.load_model(path_lw), io.load_model(path_sw))
    if consts_sw != consts:
        raise io.DatasetError(path_sw, None, f"physical constants differ from those of LW model file {path_lw}")
    return model_lw, model_sw, consts


@contextlib.contextmanager
def _naming_model_files(args):
    """Re-raise a model that does not fit (`features.ModelMismatch`) as an
    error naming its file, and the profiles file where it does not fit
    them."""
    try:
        yield
    except features.ModelMismatch as exc:
        message = f"{exc} (profiles: {args.profiles})" if exc.profiles else str(exc)
        raise io.DatasetError({"lw": args.model_lw, "sw": args.model_sw}[exc.component], None, message) from None


def _distinct_outputs(args, *names) -> None:
    """Refuse two output flags (`args` attribute names; unset ones are
    skipped) that name one file: the file would keep only one output."""
    flag_of = {}
    for name in names:
        path = getattr(args, name)
        if path is None:
            continue
        flag = "--" + name.replace("_", "-")
        other = flag_of.setdefault(os.path.realpath(path), flag)
        if other != flag:
            raise ValueError(f"{other} and {flag} name the same file: {path}")


def _default(target, name: str):
    """The library's default for parameter `name` of a function or dataclass."""
    return inspect.signature(target).parameters[name].default


def cmd_synth(args) -> int:
    _distinct_outputs(args, "out_profiles", "out_truth_lw", "out_truth_sw")
    if args.levels is not None and args.levels < 1:
        raise ValueError(f"--levels {args.levels} is below 1")
    params = augment.ToyTruthParams(amp_lw=args.amp_lw, amp_sw=args.amp_sw, decay=args.decay)
    grid = (augment.make_reference_grid() if args.levels is None
            else column.VerticalGrid(np.geomspace(1.0, 101325.0, args.levels + 1)))
    consts = column.PhysConsts()
    profiles = augment.generate_profiles(args.profiles, grid, args.seed)
    t = augment.toy_truth(profiles, consts, params)
    lw = column.extend_to_full(t.up_lw, t.down_lw, None, t.lw.heat, grid, consts.p_trunc)
    sw = column.extend_to_full(t.up_sw, t.down_sw, t.direct_sw, t.sw.heat, grid, consts.p_trunc)
    io.write_profiles(args.out_profiles, profiles)
    io.write_fluxes(args.out_truth_lw, profiles.ids, lw)
    io.write_fluxes(args.out_truth_sw, profiles.ids, sw)
    print(f"wrote {len(profiles)} profiles to {args.out_profiles}")
    return 0


def cmd_augment(args) -> int:
    profiles = io.read_profiles(args.input)
    enlarged = augment.augment_scalars(profiles, args.copies, args.seed)
    io.write_profiles(args.out, enlarged)
    print(f"wrote {len(enlarged)} profiles ({len(profiles)} originals x {args.copies + 1}) to {args.out}")
    return 0


def _train_config(args):
    patience = min(net.TrainConfig.patience, args.max_epochs - 1) if args.patience is None else args.patience
    return net.TrainConfig(max_epochs=args.max_epochs, patience=patience,
                           l1=args.l1, l2=args.l2, learning_rate=args.learning_rate,
                           batch_size=args.batch_size, seed=args.seed)


def cmd_train(args) -> int:
    if args.hidden_layers < 0:
        raise ValueError(f"--hidden-layers {args.hidden_layers} is below 0")
    consts = column.PhysConsts()
    profiles, (fractions, (idx_train, idx_val, idx_test)), sets = _training_sets(args, (6,), consts)
    schema, norm_in, data = sets[6]

    width = net.REFERENCE_HIDDEN_WIDTH[args.component] if args.hidden_width is None else args.hidden_width
    model0 = net.init_model([schema.input_len] + [width] * args.hidden_layers + [schema.output_len],
                            args.seed, schema=schema)
    model0.norm_in, model0.norm_out = norm_in, data.norm_out

    cfg = _train_config(args)
    model, _ = net.train(model0, data.x_train, data.y_train, data.x_val, data.y_val, cfg)
    model.meta.update({
        "config": {name: value for name, value in dataclasses.asdict(cfg).items() if name != "seed"},
        "split": {"seed": args.seed, "fractions": list(fractions),
                  "train_ids": [profiles.ids[i] for i in idx_train],
                  "val_ids": [profiles.ids[i] for i in idx_val],
                  "test_ids": [profiles.ids[i] for i in idx_test]},
    })
    io.save_model(args.out, model, consts)
    print(f"trained {args.component} model: epochs={model.meta['epochs_run']}, "
          f"val_loss={model.meta['val_loss']:.6g}; wrote {args.out}")
    return 0


def cmd_grid_search(args) -> int:
    spec = net.GridSearchSpec(
        input_variants=tuple(args.variants),
        hidden_layer_counts=tuple(args.layers),
        width_multipliers=tuple(args.multipliers),
        reg_factors=tuple(args.regs),
        repeats=args.repeats)
    cfg = _train_config(args)
    _, _, sets = _training_sets(args, spec.input_variants, column.PhysConsts())
    report = net.grid_search(spec, {variant: data for variant, (_, _, data) in sets.items()}, cfg,
                             simplicity_tolerance=args.simplicity_tolerance)
    io.write_json(args.out, dataclasses.asdict(report))
    best = report.rows[report.selected]
    print(f"selected config: variant={best.input_variant} layers={best.n_layers} "
          f"width={best.width} reg={best.reg:g} mean_mae={best.mean_mae:.6g}; wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    _distinct_outputs(args, "out_lw", "out_sw")
    model_lw, model_sw, consts = _model_pair(args.model_lw, args.model_sw)

    def fluxes(profiles):
        """The LW and SW effects of a block of profiles, each checked as a FluxSet."""
        checked = []
        for component, e in net.predict_flux_effects(model_lw, model_sw, profiles, consts).items():
            try:
                checked.append(column.FluxSet(**e))
            except column.RowError as exc:
                raise ValueError(f"predicted {component} effects of profile {profiles.ids[exc.row]!r}: "
                                 f"{exc.message}") from None
        return checked

    with _naming_model_files(args):
        n = io.map_profiles(args.profiles, [args.out_lw, args.out_sw], fluxes)
    print(f"wrote {n} effect records to {args.out_lw} and {args.out_sw}")
    return 0


def cmd_correct(args) -> int:
    profiles = io.read_profiles(args.profiles)
    consts = column.PhysConsts()
    baseline = _fluxes_for(args.baseline, profiles.ids, args.profiles, profiles.grid.n_hl)
    effects = _fluxes_for(args.effects, profiles.ids, args.profiles, profiles.grid.n_hl)
    io.write_fluxes(args.out, profiles.ids,
                    column.apply_correction(baseline, effects, profiles.grid, consts))
    print(f"wrote {len(profiles)} corrected records to {args.out}")
    return 0


def cmd_eval(args) -> int:
    _distinct_outputs(args, "out", "per_level")
    ids, truth = io.read_fluxes(args.truth)
    pred = _fluxes_for(args.pred, ids, args.truth, truth.up.shape[-1], "prediction")
    report = {"note": "bulk statistics pool all levels of the full extended profiles",
              "n_profiles": len(ids), "fluxes": {}, "heating": {}}
    for name in ("up", "down", "direct_down"):
        if getattr(truth, name) is not None and getattr(pred, name) is not None:
            report["fluxes"][name] = evalbench.bulk_stats(getattr(truth, name), getattr(pred, name))
    report["fluxes"]["up_toa"] = evalbench.bulk_stats(truth.up[:, 0], pred.up[:, 0])
    report["fluxes"]["down_boa"] = evalbench.bulk_stats(truth.down[:, -1], pred.down[:, -1])
    report["heating"]["heat_K_per_day"] = evalbench.bulk_stats(
        truth.heat * column.SECONDS_PER_DAY, pred.heat * column.SECONDS_PER_DAY)

    io.write_json(args.out, report)
    if args.per_level:
        per_level = {}
        for name in ("up", "down", "heat"):
            stats = evalbench.per_level_stats(getattr(truth, name), getattr(pred, name))
            per_level[name] = {
                series: {key: value.tolist() for key, value in block.items()}
                for series, block in stats.items()}
        io.write_json(args.per_level, per_level, indent=None)
    print(f"wrote evaluation report to {args.out}")
    return 0


def cmd_bench(args) -> int:
    if args.replication < 1:
        raise ValueError("--replication must be >= 1")
    if args.repeats < 3:
        raise ValueError("--repeats: need at least 3 repeats for a mean and spread")
    model_lw, model_sw, consts = _model_pair(args.model_lw, args.model_sw)
    profiles = io.read_profiles(args.profiles)

    with _naming_model_files(args):
        x_lw, x_sw = features.build_input_matrix(profiles, (model_lw.schema, model_sw.schema), consts)
        batch = [np.concatenate([a] * args.replication) for a in (x_lw, x_sw, profiles.alpha, profiles.mu0)]
        n = len(batch[0])
        workers = rowblocks.forward_workers(n)  # before the repeats, whose workers may still be exiting
        total_s, stage_s = [], []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            stage_s.append(net.stage_seconds(model_lw, model_sw, *batch, profiles.grid, consts))
            total_s.append(time.perf_counter() - t0)
    ms = [1000.0 * t / n for t in total_s]
    mean_ms, std_ms = statistics.fmean(ms), statistics.pstdev(ms)
    text = f"{mean_ms:.6g} ± {std_ms:.3g} ms per profile"
    report = {
        "normalized_runtime": text,
        "ms_per_profile_mean": mean_ms,
        "ms_per_profile_std": std_ms,
        "ms_per_profile_repeats": ms,
        "stage_ms_per_profile": {stage: 1000.0 * statistics.fmean(s[stage] for s in stage_s) / n
                                 for stage in net.STAGES},
        "n_profiles": n,
        "replication": args.replication,
        "repeats": args.repeats,
        "hardware": {"platform": platform.platform(), "machine": platform.machine(),
                     "cpu_count": os.cpu_count()},
        "threads": {"env": {var: os.environ.get(var) for var in _BLAS_ENV},
                    "forward_workers": workers},
    }
    io.write_json(args.out, report)
    print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cre3d",
                                     description="3D cloud radiative effect emulation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic profiles and toy-truth effects")
    p.add_argument("--profiles", type=int, required=True, help="number of profiles")
    p.add_argument("--levels", type=int, default=None,
                   help="full levels for a generic geometric grid (default: 137-level reference)")
    p.add_argument("--seed", type=int, default=0)
    for name in ("amp_lw", "amp_sw", "decay"):
        p.add_argument("--" + name.replace("_", "-"), type=float,
                       default=_default(augment.ToyTruthParams, name))
    p.add_argument("--out-profiles", required=True)
    p.add_argument("--out-truth-lw", required=True)
    p.add_argument("--out-truth-sw", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("augment", help="enlarge a profile set by scalar re-assignment")
    p.add_argument("--input", required=True)
    p.add_argument("--copies", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_augment)

    def add_training_inputs(q):
        q.add_argument("--profiles", required=True)
        q.add_argument("--truth", required=True, help="flux-effect truth records")
        q.add_argument("--component", choices=("lw", "sw"), required=True)

    def add_train_flags(q):
        q.add_argument("--seed", type=int, default=0)
        for name, kind in (("max_epochs", int), ("l1", float), ("l2", float),
                           ("learning_rate", float), ("batch_size", int)):
            q.add_argument("--" + name.replace("_", "-"), type=kind,
                           default=_default(net.TrainConfig, name))
        q.add_argument("--patience", type=int, default=None,
                       help=f"epochs without improvement before stopping (default: "
                            f"{_default(net.TrainConfig, 'patience')}, or --max-epochs - 1 if smaller)")

    p = sub.add_parser("train", help="train one emulator component")
    add_training_inputs(p)
    p.add_argument("--hidden-layers", type=int, default=net.REFERENCE_HIDDEN_LAYERS)
    widths = " / ".join(f"{w} {c.upper()}" for c, w in net.REFERENCE_HIDDEN_WIDTH.items())
    p.add_argument("--hidden-width", type=int, default=None,
                   help=f"units per hidden layer (default: the reference width, {widths})")
    add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-search", help="hyperparameter grid search")
    add_training_inputs(p)
    p.add_argument("--variants", type=int, nargs="+", choices=sorted(INPUT_VARIANTS),
                   default=_default(net.GridSearchSpec, "input_variants"))
    p.add_argument("--layers", type=int, nargs="+",
                   default=_default(net.GridSearchSpec, "hidden_layer_counts"))
    p.add_argument("--multipliers", type=float, nargs="+",
                   default=_default(net.GridSearchSpec, "width_multipliers"))
    p.add_argument("--regs", type=float, nargs="+",
                   default=_default(net.GridSearchSpec, "reg_factors"))
    p.add_argument("--repeats", type=int, default=_default(net.GridSearchSpec, "repeats"))
    p.add_argument("--simplicity-tolerance", type=float,
                   default=_default(net.grid_search, "simplicity_tolerance"))
    add_train_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("predict", help="emulate and postprocess 3D flux effects")
    p.add_argument("--profiles", required=True)
    p.add_argument("--model-lw", required=True)
    p.add_argument("--model-sw", required=True)
    p.add_argument("--out-lw", required=True)
    p.add_argument("--out-sw", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("correct", help="add effect records to baseline fluxes")
    p.add_argument("--profiles", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--effects", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("eval", help="bulk and per-level error statistics")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-level", default=None, help="optional per-level output file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="normalized-runtime benchmark")
    p.add_argument("--profiles", required=True)
    p.add_argument("--model-lw", required=True)
    p.add_argument("--model-sw", required=True)
    p.add_argument("--replication", type=int, default=10,
                   help="copies of the profile set in the timed batch (default: 10)")
    p.add_argument("--repeats", type=int, default=3, help="timed repeats, at least 3 (default: 3)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single-line machine-parsable errors
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
