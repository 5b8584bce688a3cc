"""Every (owner, attribute) pair that perfbench's span tracer wraps exists in
the program. Dropping or renaming one of those names (an import included)
then fails here, not only in traced benchmark runs."""

import importlib.util
import pathlib
from types import SimpleNamespace

import numpy as np

from cre3d import augment, cli, column, features, io, net, postproc
from cre3d.augment import generate_profiles

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
PROG = SimpleNamespace(cli=cli, column=column, features=features, net=net,
                       postproc=postproc, augment=augment, io=io)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    targets = load_tracer().program_targets(PROG)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"names the tracer wraps are gone: {missing}"


def test_feature_assembly_is_one_traced_span(ref_grid, consts):
    # predict_flux_effects builds its input rows through a name the tracer
    # wraps, so the window truncation and the cloud optical depth are
    # counted as feature assembly, not as predict_flux_effects self time.
    models = []
    for component in ("lw", "sw"):
        schema = features.schema_for_grid(component, ref_grid, consts.p_trunc)
        model = net.init_model([schema.input_len, 8, schema.output_len], seed=0, schema=schema)
        model.norm_in = features.fit_normalization(
            features.build_input_matrix(generate_profiles(10, ref_grid, seed=0), schema, consts))
        model.norm_out = features.Normalization(mean=[0.0] * schema.output_len,
                                                scale=[1.0] * schema.output_len)
        models.append(model)
    profiles = generate_profiles(3, ref_grid, seed=1)
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install(module.program_targets(PROG))
    try:
        net.predict_flux_effects(*models, profiles, consts)
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    assert names.count("features.build_input_matrix") == 1
    builder = names.index("features.build_input_matrix")
    assert tracer.spans[builder][3] == names.index("net.predict_flux_effects")
    for name in ("column.truncate_profile", "column.cloud_optical_depth"):
        assert [span[3] for span in tracer.spans if span[0] == name] == [builder]


def test_training_spans():
    # train's steps and epoch ends go through the names the tracer wraps:
    # one net.grad and one net.adam span per minibatch, one net.epoch_eval
    # (the validation forward) per epoch, each a child of net.train.
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(150, 5)), rng.normal(size=(150, 2))
    xv, yv = rng.normal(size=(30, 5)), rng.normal(size=(30, 2))
    cfg = net.TrainConfig(max_epochs=2, patience=1, batch_size=64, seed=0)
    module = load_tracer()
    tracer = module.Tracer()
    tracer.install(module.program_targets(PROG))
    try:
        net.train(net.init_model([5, 8, 2], seed=0), x, y, xv, yv, cfg)
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    root = names.index("net.train")
    children = [name for name, _, _, parent in tracer.spans if parent == root]
    assert children == ["net.grad", "net.adam"] * 3 + ["net.epoch_eval"] + \
        ["net.grad", "net.adam"] * 3 + ["net.epoch_eval"]
    assert names.count("net.forward") == 0
    assert tracer.counts["net.minibatch_steps"] == 6
