"""In-memory span tracer that wraps the program's public functions.

Spans are recorded from the benchmark's side: each public function is
replaced, under every module-level name the program calls it by, with a
wrapper that records (name, start, end, parent). Nothing inside the
program is edited. `install` swaps the wrappers in and `uninstall` puts the
originals back, so untraced operations run the unmodified code.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self._saved = []

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs, after=None):
        parent = self.stack[-1] if self.stack else -1
        if callable(name):
            name = name(self.spans[parent][0] if parent >= 0 else None)
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self.stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[1], span[2] = start, time.perf_counter()
            self.stack.pop()
        if after is not None:
            after(self.counts, name, args, kwargs)
        return result

    def root(self, name, fn, *args, **kwargs):
        return self.call(name, fn, args, kwargs)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name, after):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, after)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets) -> None:
        """targets: (owner, attribute, span name or name function, after hook)."""
        wrapped = {}
        for owner, attr, name, after in targets:
            original = getattr(owner, attr)
            key = id(original)
            if key not in wrapped:
                wrapped[key] = self._wrap(original, name, after)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[key])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Per span name: summed duration minus the duration of child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def program_targets(prog):
    """Every public function the per-layer metrics cover, under each name the
    program (or the benchmark's kernel operation) looks it up by."""
    cli, column, features, net = prog.cli, prog.column, prog.features, prog.net
    postproc, augment, io = prog.postproc, prog.augment, prog.io

    def add_bytes(key):
        def after(counts, name, args, kwargs):
            path = args[0] if args else kwargs["path"]
            counts[key] += os.path.getsize(path)
        return after

    def epoch_eval_or_forward(parent):
        # train() evaluates the full training and validation sets each epoch
        # through forward(); that is training work, not inference.
        return "net.epoch_eval" if parent == "net.train" else "net.forward"

    def forward_after(counts, name, args, kwargs):
        if name != "net.forward":
            return
        model, batch = args[0], args[1] if len(args) > 1 else kwargs["batch"]
        rows = len(batch)
        counts["net.forward_calls"] += 1
        counts["net.forward_rows"] += rows
        counts["net.dense_flops"] += 2 * rows * sum(w.size for w in model.weights)

    def adam_after(counts, name, args, kwargs):
        counts["net.minibatch_steps"] += 1

    def postprocess_after(counts, name, args, kwargs):
        heat = args[2] if len(args) > 2 else kwargs["heat"]
        counts["postproc.columns"] += len(heat)

    read, written = add_bytes("io.bytes_read"), add_bytes("io.bytes_written")
    return [
        (io, "read_profiles", "io.read_profiles", read),
        (io, "read_fluxes", "io.read_fluxes", read),
        (io, "load_model", "io.load_model", read),
        (io, "write_profiles", "io.write_profiles", written),
        (io, "write_fluxes", "io.write_fluxes", written),
        (io, "save_model", "io.save_model", written),
        (column, "truncate_profile", "column.truncate_profile", None),
        (features, "truncate_profile", "column.truncate_profile", None),
        (augment, "truncate_profile", "column.truncate_profile", None),
        (column, "compute_cloud_optical_depth", "column.cloud_optical_depth", None),
        (features, "compute_cloud_optical_depth", "column.cloud_optical_depth", None),
        (augment, "compute_cloud_optical_depth", "column.cloud_optical_depth", None),
        (column, "extend_to_full", "column.extend_to_full", None),
        (features, "build_input_matrix", "features.build_input_matrix", None),
        (net, "build_input_matrix", "features.build_input_matrix", None),
        (features.Normalization, "apply", "features.normalize", None),
        (features.Normalization, "invert", "features.denormalize", None),
        (features, "targets_from_flux_effects", "features.targets", None),
        (features, "build_target_vector", "features.targets", None),
        (features, "fit_normalization", "features.fit_normalization", None),
        (net, "predict_flux_effects", "net.predict_flux_effects", None),
        (net, "train", "net.train", None),
        (net, "forward", epoch_eval_or_forward, forward_after),
        (net, "elu", "net.elu", None),
        (net, "elu_grad", "net.elu_grad", None),
        (net, "loss_and_gradients", "net.grad", None),
        (net, "adam_step", "net.adam", adam_after),
        (postproc, "postprocess_batch", "postproc.postprocess", postprocess_after),
        (net, "postprocess_batch", "postproc.postprocess", postprocess_after),
        (augment, "generate_profiles", "augment.generate_profiles", None),
        (augment, "toy_truth", "augment.toy_truth", None),
        (cli, "main", "cli", None),
    ]
