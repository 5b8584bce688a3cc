"""Every (owner, attribute) pair that perfbench's span tracer wraps exists in
the program. Dropping or renaming one of those names (an import included)
then fails here, not only in traced benchmark runs."""

import importlib.util
import pathlib
from types import SimpleNamespace

from cre3d import augment, cli, column, features, io, net, postproc

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    prog = SimpleNamespace(cli=cli, column=column, features=features, net=net,
                           postproc=postproc, augment=augment, io=io)
    targets = tracer.program_targets(prog)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in targets
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"names the tracer wraps are gone: {missing}"
