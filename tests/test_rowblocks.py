"""The row-block runner (`rowblocks.run_blocks`) and the inference stages
that run on it: normalize, forward, denormalize and postprocess give the
bits of one worker on any worker count."""

import pathlib
import sys
import threading
import time

import numpy as np
import pytest

from cre3d import features, postproc, rowblocks
from cre3d.features import Normalization
from cre3d.net import MlpModel, forward
from cre3d.postproc import postprocess_batch
from cre3d.rowblocks import ROW_CHUNK

from conftest import os_threads
from test_postproc import mixed_columns

ROWS = [4 * ROW_CHUNK + 5, 7 * ROW_CHUNK + 3]


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.fixture
def wgrid(small_grid):
    return small_grid.window()


def stage_batch(wgrid, consts, component, n):
    """(scalar, heat, alpha) of n postprocess rows: the 40 rows of
    `mixed_columns` (both caps, the zero-D_s shift, degenerate rows) tiled
    and scaled by a factor per row, which keeps each row's branch, with every
    11th row all zero, as the shortwave rows of a night column arrive."""
    scalar, heat, alphas = mixed_columns(wgrid, consts, component)
    reps = -(-n // len(heat))
    f = np.random.default_rng(n).uniform(0.5, 2.0, n)[:, None]
    scalar, heat = np.tile(scalar, (reps, 1))[:n] * f, np.tile(heat, (reps, 1))[:n] * f
    scalar[::11] = 0.0
    heat[::11] = 0.0
    return scalar, heat, np.tile(alphas, reps)[:n]


def normalization(width, seed):
    rng = np.random.default_rng(seed)
    return Normalization(mean=rng.normal(size=width), scale=rng.uniform(0.1, 3.0, width))


def stages(wgrid, consts):
    """name -> (call on n rows, the function that runs one block of it)."""
    norm = normalization(7, 1)

    def rows(n):
        return np.random.default_rng(n).normal(size=(n, 7))

    def post(component):
        def call(n):
            scalar, heat, alpha = stage_batch(wgrid, consts, component, n)
            return postprocess_batch(component, scalar, heat, wgrid, consts,
                                     alpha=alpha if component == "sw" else None)
        return call
    return {
        "apply": (lambda n: norm.apply(rows(n)), (features, "_affine_rows")),
        "invert": (lambda n: norm.invert(rows(n)), (features, "_affine_rows")),
        "postprocess lw": (post("lw"), (postproc, "_postprocess_rows")),
        "postprocess sw": (post("sw"), (postproc, "_postprocess_rows")),
    }


STAGES = ["apply", "invert", "postprocess lw", "postprocess sw"]


class TestThreadedStages:
    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("n", ROWS)
    def test_bits_do_not_depend_on_the_worker_count(self, wgrid, consts, cpus, started, stage, n):
        call, _ = stages(wgrid, consts)[stage]
        cpus(1)
        expected = call(n)
        assert started == []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a block lost or run twice shows
        try:
            for count in (2, 3):
                cpus(count)
                workers = rowblocks.forward_workers(n)
                del started[:]
                got = call(n)
                assert len(started) == workers - 1 > 0
                for g, e in zip(got if isinstance(got, tuple) else [got],
                                expected if isinstance(expected, tuple) else [expected]):
                    assert np.array_equal(bits(g), bits(e)), (stage, count)
        finally:
            sys.setswitchinterval(interval)

    def test_normalization_keeps_its_expression_and_layout(self, cpus):
        cpus(2)
        norm = normalization(7, 2)
        x = np.random.default_rng(3).normal(size=(ROWS[0], 7))
        for given in (x, np.asfortranarray(x), x.astype(np.float32)):
            for got, expected in ((norm.apply(given), np.subtract(given, norm.mean, dtype=float) / norm.scale),
                                  (norm.invert(given), np.multiply(given, norm.scale, dtype=float) + norm.mean)):
                assert np.array_equal(bits(got), bits(expected))
                assert got.flags.c_contiguous == expected.flags.c_contiguous

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("n", [1, ROW_CHUNK, 3 * ROW_CHUNK])
    def test_no_thread_for_three_blocks_or_fewer(self, wgrid, consts, cpus, started, stage, n):
        cpus(3)
        stages(wgrid, consts)[stage][0](n)
        assert started == []

    @pytest.mark.parametrize("method", ["apply", "invert"])
    def test_width_mismatch_names_the_whole_batch(self, cpus, started, method):
        cpus(2)
        n = ROWS[0]
        with pytest.raises(ValueError, match=rf"\({n},8\)"):
            getattr(normalization(7, 0), method)(np.zeros((n, 8)))
        assert started == []

    @pytest.mark.parametrize("scalar_width, alpha, message", [
        (8, np.full(ROWS[0], 0.3), rf"got \({ROWS[0]}, 8\) and \({ROWS[0]}, 6\)"),
        (7, np.full(ROWS[0] - 1, 0.3), rf"shape \({ROWS[0]},\)"),
        (7, np.r_[np.full(ROWS[0] - 1, 0.3), 1.5], rf"shape \({ROWS[0]},\)"),
    ])
    def test_bad_postprocess_batch_raises_before_any_thread(self, wgrid, consts, cpus, started,
                                                            scalar_width, alpha, message):
        # the window of `wgrid` has 6 layers, so scalar rows hold 7 values
        cpus(2)
        n = ROWS[0]
        with pytest.raises(ValueError, match=message):
            postprocess_batch("sw", np.zeros((n, scalar_width)), np.zeros((n, 6)), wgrid, consts, alpha=alpha)
        assert started == []

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("where", ["started thread", "calling thread"])
    def test_worker_error_reaches_the_caller_after_every_join(self, wgrid, consts, cpus, monkeypatch,
                                                             stage, where):
        cpus(3)
        call, (module, name) = stages(wgrid, consts)[stage]
        block, main = getattr(module, name), threading.main_thread()

        def failing(*args):
            if (threading.current_thread() is main) == (where == "calling thread"):
                raise ArithmeticError(f"{stage} failed in the {where}")
            time.sleep(0.01)  # so that the other kind of thread takes a block too
            return block(*args)
        monkeypatch.setattr(module, name, failing)
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match=f"{stage} failed in the {where}"):
            call(ROWS[1])
        assert threading.active_count() == before


class TestRunner:
    N = 64  # 8 blocks of 8 rows: two workers on two CPUs

    @pytest.fixture
    def small_blocks(self, monkeypatch, cpus):
        monkeypatch.setattr(rowblocks, "ROW_CHUNK", 8)
        cpus(2)
        assert rowblocks.forward_workers(self.N) == 2

    @staticmethod
    def overflowing(stage, row, wgrid, consts):
        """A call of `stage` on N rows whose row `row` overflows."""
        x = np.zeros((TestRunner.N, 3))
        x[row] = 1e300
        if stage == "forward":
            model = MlpModel(weights=[np.full((4, 3), 1e10)], biases=[np.zeros(4)])
            return lambda: forward(model, x)
        if stage == "apply":
            return lambda: Normalization(mean=np.zeros(3), scale=np.full(3, 1e-10)).apply(x)
        if stage == "invert":
            return lambda: Normalization(mean=np.zeros(3), scale=np.full(3, 1e10)).invert(x)
        heat = np.zeros((TestRunner.N, wgrid.n_fl))
        heat[row] = 1e306  # finite times c_p / g, then overflows times dp
        return lambda: postprocess_batch("lw", np.zeros((TestRunner.N, wgrid.n_hl)), heat, wgrid, consts)

    @pytest.mark.parametrize("stage", ["forward", "apply", "invert", "postprocess"])
    @pytest.mark.parametrize("block", range(8))
    def test_workers_run_under_the_callers_error_state(self, small_blocks, started, wgrid, consts,
                                                       stage, block):
        # numpy keeps its error state per thread: a started worker must take the caller's
        call = self.overflowing(stage, 8 * block + 3, wgrid, consts)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                call()
        assert len(started) == 1
        with np.errstate(all="ignore"):
            call()  # and so warns of nothing, which pytest would make an error

    def test_returns_once_its_threads_have_left(self, small_blocks, monkeypatch, started):
        # a joined thread's OS thread can stay listed for a few ms; the
        # bound is raised so that a loaded machine cannot end the wait early
        monkeypatch.setattr(rowblocks, "LISTED_BOUND", 1.0)
        seen = []
        for _ in range(20):
            rowblocks.run_blocks(self.N, lambda rows: seen.append(rows.stop - rows.start))
            assert os_threads() == 1
        assert len(started) == 20 and seen == [8] * 160

    def test_one_call_over_every_row_with_one_worker(self, monkeypatch, cpus, started):
        cpus(1)
        calls = []
        rowblocks.run_blocks(10 * ROW_CHUNK + 1, lambda rows, *scratch: calls.append((rows, scratch)),
                             lambda: ("buffer",))
        assert calls == [(slice(0, 10 * ROW_CHUNK + 1), ("buffer",))] and started == []

    def test_each_worker_builds_its_scratch_once(self, small_blocks, started):
        made, used = [], []

        def scratch():
            made.append(object())
            return (made[-1],)
        rowblocks.run_blocks(self.N, lambda rows, s: used.append(s), scratch)
        assert len(made) == 2 and len(used) == 8 and set(map(id, used)) <= set(map(id, made))

    def test_threads_are_started_in_one_place(self):
        src = pathlib.Path(rowblocks.__file__).parent
        starters = [path.name for path in sorted(src.glob("*.py")) if "threading.Thread(" in path.read_text()]
        assert starters == ["rowblocks.py"]
