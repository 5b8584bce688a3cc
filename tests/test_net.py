import _thread
import dataclasses
import hashlib
import math
import sys
import threading
import time

import numpy as np
import pytest

from cre3d import features, net, rowblocks
from cre3d.augment import generate_profiles, make_reference_grid, toy_truth
from cre3d.column import PhysConsts, ProfileBatch, VerticalGrid, extend_to_full
from cre3d.features import (
    Normalization,
    build_input_matrix,
    build_target_vector,
    fit_normalization,
    schema_for_grid,
)
from cre3d.net import (
    ELU_BLOCK,
    TILE,
    AdamState,
    GridDataset,
    GridSearchSpec,
    MlpModel,
    TrainConfig,
    adam_step,
    _window_effects,
    elu,
    elu_grad,
    forward,
    grid_search,
    init_model,
    loss_and_gradients,
    mse,
    predict_flux_effects,
    reference_model,
    run_seed,
    train,
)
from cre3d.rowblocks import ROW_CHUNK

from conftest import os_threads, run_python


def identity_model(n):
    return MlpModel(weights=[np.eye(n)], biases=[np.zeros(n)])


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def where_elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def where_elu_grad(x):
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


def textbook_layers(model, x):
    """h @ w.T + b and where-ELU, layer by layer: (output, pre-activations,
    layer inputs)."""
    pre, inputs = [], [x]
    h = x
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T + b
        if k == len(model.weights) - 1:
            return z, pre, inputs
        pre.append(z)
        h = where_elu(z)
        inputs.append(h)


def feature_major_layers(model, x):
    """w @ h + b[:, None] and where-ELU on h = x[s:s+c].T for each block of
    ROW_CHUNK rows, zero rows appended to x[s:s+c] up to a multiple of TILE,
    out of place, with the blocks' real columns stacked as rows."""
    blocks = []
    for s in range(0, len(x), ROW_CHUNK):
        c = min(ROW_CHUNK, len(x) - s)
        h = np.concatenate([x[s:s + c], np.zeros((-c % TILE, x.shape[1]))]).T
        for k, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = w @ h + b[:, None]
            h = z if k == len(model.weights) - 1 else where_elu(z)
        blocks.append(h[:, :c].T)
    return np.concatenate(blocks)


def textbook_gradients(model, x, y, l1, l2):
    out, pre, inputs = textbook_layers(model, x)
    err = out - y
    loss = float(np.mean(err ** 2))
    for w in model.weights:
        loss += l1 * float(np.abs(w).sum()) + l2 * float((w ** 2).sum())
    n = len(model.weights)
    gw, gb = [None] * n, [None] * n
    g = 2.0 * err / err.size
    for k in range(n - 1, -1, -1):
        gw[k] = g.T @ inputs[k]
        gb[k] = g.sum(axis=0)
        if k > 0:
            g = (g @ model.weights[k]) * where_elu_grad(pre[k - 1])
    for k, w in enumerate(model.weights):
        gw[k] = gw[k] + (l1 * np.sign(w) + 2.0 * l2 * w)
    return loss, gw, gb


def textbook_adam(params, grads, ms, vs, t, cfg):
    """Out-of-place Adam step t: the new parameter and moment lists."""
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    ms = [m * cfg.beta1 + (1.0 - cfg.beta1) * g for m, g in zip(ms, grads)]
    vs = [v * cfg.beta2 + (1.0 - cfg.beta2) * g ** 2 for v, g in zip(vs, grads)]
    params = [p - cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
              for p, m, v in zip(params, ms, vs)]
    return params, ms, vs


def textbook_train(model, x, y, xv, yv, cfg):
    """train's epoch loop on textbook_gradients, textbook_adam and the
    out-of-place forward, without early stopping: (parameters after each
    epoch, (train_loss, val_loss) per epoch)."""
    n_layers = len(model.weights)
    params = [a.copy() for a in model.weights + model.biases]
    ms = [np.zeros_like(a) for a in params]
    vs = [np.zeros_like(a) for a in params]
    rng = np.random.default_rng(cfg.seed)
    t, snapshots, losses = 0, [], []
    for _ in range(cfg.max_epochs):
        order = rng.permutation(len(x))
        objective = 0.0
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            current = MlpModel(weights=params[:n_layers], biases=params[n_layers:])
            loss, gw, gb = textbook_gradients(current, x[idx], y[idx], cfg.l1, cfg.l2)
            objective += loss * len(idx)
            t += 1
            params, ms, vs = textbook_adam(params, gw + gb, ms, vs, t, cfg)
        current = MlpModel(weights=params[:n_layers], biases=params[n_layers:])
        val = float(np.mean((feature_major_layers(current, xv) - yv) ** 2))
        snapshots.append(params)
        losses.append((objective / len(x), val))
    return snapshots, losses


# Layer sizes: one linear layer, equal hidden widths (the buffers alternate),
# and the unequal widths a grid search over multipliers produces.
KERNEL_SHAPES = [[40, 10], [40, 30, 30, 30, 45], [40, 20, 80, 40, 10], [8, 8, 8, 8]]


def kernel_model(sizes, seed):
    model = init_model(sizes, seed=seed)
    rng = np.random.default_rng(seed)
    for b in model.biases:
        b[:] = rng.normal(scale=0.5, size=b.size)
        b[::7] = -0.0
    return model


def kernel_batch(rows, width, seed):
    x = np.random.default_rng(seed + 1).normal(size=(rows, width))
    x[0] = 0.0
    return x


class TestForward:
    def test_single_linear_layer_is_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(forward(identity_model(4), x), x)

    def test_affine_hand_value(self):
        model = MlpModel(weights=[np.array([[2.0, -1.0]])], biases=[np.array([3.0])])
        out = forward(model, np.array([[4.0, 1.0]]))
        assert out[0, 0] == 10.0

    def test_elu_negative_saturation(self):
        # one hidden unit passing -20 through ELU, identity output layer
        model = MlpModel(weights=[np.array([[1.0]]), np.array([[1.0]])],
                         biases=[np.array([0.0]), np.array([0.0])])
        out = forward(model, np.array([[-20.0]]))
        assert out[0, 0] == pytest.approx(np.expm1(-20.0), rel=1e-14)

    def test_elu_positive_is_linear(self):
        x = np.array([0.0, 0.5, 3.0])
        np.testing.assert_array_equal(elu(x), x)

    def test_rows_are_independent(self):
        model = init_model([5, 8, 3], seed=0)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 5))
        full = forward(model, x)
        for i in range(10):
            np.testing.assert_allclose(forward(model, x[i:i + 1])[0], full[i],
                                       rtol=1e-13, atol=1e-15)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            forward(identity_model(3), np.zeros((2, 4)))

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            forward(identity_model(2), np.array([[1.0, np.nan]]))

    def test_one_dim_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            forward(identity_model(2), np.zeros(2))


class TestInPlaceKernelBits:
    """The in-place kernel gives the bits of the textbook expressions."""

    SPECIALS = [0.0, -0.0, 5e-324, -5e-324, -800.0, 800.0, 1e-300, -1e-300, -1e-17]

    def test_elu_special_and_random_values(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([self.SPECIALS, 10.0 * rng.normal(size=1000)])
        assert np.array_equal(bits(elu(x)), bits(where_elu(x)))
        big = rng.normal(size=(400, 217))  # several blocks, the last one partial
        big.reshape(-1)[:len(self.SPECIALS)] = self.SPECIALS
        assert big.size > 2 * ELU_BLOCK and big.size % ELU_BLOCK
        assert np.array_equal(bits(elu(big)), bits(where_elu(big)))

    def test_elu_out_forms_agree(self):
        x = np.random.default_rng(1).normal(size=(70, 500))
        expected = where_elu(x)
        into = np.empty_like(x)
        assert elu(x, out=into) is into
        inplace = x.copy()
        assert elu(inplace, out=inplace) is inplace
        for got in (into, inplace, elu(x.T).T, elu(x.tolist())):
            assert np.array_equal(bits(got), bits(expected))
        with pytest.raises(ValueError, match="C-contiguous"):
            elu(x, out=np.empty_like(x).T)

    def test_elu_grad(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([self.SPECIALS, 10.0 * rng.normal(size=1000)])
        assert np.array_equal(bits(elu_grad(x)), bits(where_elu_grad(x)))

    @pytest.mark.parametrize("sizes", KERNEL_SHAPES)
    @pytest.mark.parametrize("rows", [1, 32, 2000])
    def test_forward(self, sizes, rows):
        model = kernel_model(sizes, seed=rows)
        x = kernel_batch(rows, sizes[0], seed=rows)
        assert np.array_equal(bits(forward(model, x)), bits(feature_major_layers(model, x)))

    @pytest.mark.parametrize("sizes", KERNEL_SHAPES)
    @pytest.mark.parametrize("rows", [1, 32, 300])
    def test_loss_and_gradients(self, sizes, rows):
        model = kernel_model(sizes, seed=rows + 5)
        x = kernel_batch(rows, sizes[0], seed=rows)
        y = np.random.default_rng(rows).normal(size=(rows, sizes[-1]))
        loss, (gw, gb) = loss_and_gradients(model, x, y, l1=1e-5, l2=1e-4)
        ref_loss, ref_gw, ref_gb = textbook_gradients(model, x, y, l1=1e-5, l2=1e-4)
        assert bits(loss) == bits(ref_loss)
        for got, ref in zip(gw + gb, ref_gw + ref_gb):
            assert np.array_equal(bits(got), bits(ref))


class TestChunkedForward:
    """forward runs feature-major over blocks of ROW_CHUNK rows."""

    SHAPES = KERNEL_SHAPES + [[271, 217, 217, 217, 181], [182, 182, 182, 182, 272]]
    ROWS = [1, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, int(2.5 * ROW_CHUNK)]

    @pytest.mark.parametrize("sizes", SHAPES)
    @pytest.mark.parametrize("rows", ROWS)
    def test_bits_and_sample_major_agreement(self, sizes, rows):
        model = kernel_model(sizes, seed=rows)
        x = kernel_batch(rows, sizes[0], seed=rows)
        got = forward(model, x)
        assert np.array_equal(bits(got), bits(feature_major_layers(model, x)))
        # The GEMM operand order differs from h @ w.T, so the two agree to rounding.
        expected, _, _ = textbook_layers(model, x)
        row_max = np.abs(expected).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - expected) <= 1e-13 * row_max)

    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_rows_agree_across_block_sizes(self, component):
        # A row's bits do not depend on the size of its block: reference-width
        # models on 512 rows in calls of 1 to 32 rows against one call.
        grid, consts = make_reference_grid(), PhysConsts()
        schema = schema_for_grid(component, grid, consts.p_trunc)
        model = reference_model(schema, 3)
        x = build_input_matrix(generate_profiles(512, grid, seed=5), schema, consts)
        x = fit_normalization(x).apply(x)
        whole = bits(forward(model, x))
        for c in range(1, 33):
            blocks = np.concatenate([forward(model, x[s:s + c]) for s in range(0, len(x), c)])
            assert np.array_equal(bits(blocks), whole), c

    def test_output_layout(self):
        model = kernel_model([40, 30, 30, 45], seed=0)
        x = kernel_batch(2 * ROW_CHUNK + 3, 40, seed=0)
        out = forward(model, x)
        assert out.shape == (len(x), 45)
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, x)

    def test_input_forms(self):
        model = kernel_model([40, 30, 30, 45], seed=1)
        x = kernel_batch(ROW_CHUNK + 7, 40, seed=1)
        expected = bits(forward(model, x))
        frozen = x.copy()
        frozen.setflags(write=False)
        for given in (frozen, np.asfortranarray(x), x.tolist()):
            assert np.array_equal(bits(forward(model, given)), expected)

    def test_empty_batch(self):
        assert forward(kernel_model([40, 30, 45], seed=2), np.zeros((0, 40))).shape == (0, 45)


class TestParallelForward:
    """forward runs its blocks on one thread per CPU while the process runs
    no other OS thread, with every bit of the one-worker pass."""

    SIZES = [40, 30, 50, 30, 45]  # unequal widths: both buffers hold the largest

    @pytest.mark.parametrize("rows", [1, ROW_CHUNK - 1, ROW_CHUNK, 4 * ROW_CHUNK + 5, 7 * ROW_CHUNK + 3])
    def test_bits_do_not_depend_on_the_worker_count(self, cpus, started, rows):
        model = kernel_model(self.SIZES, seed=rows)
        x = kernel_batch(rows, self.SIZES[0], seed=rows)
        expected = bits(feature_major_layers(model, x))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a block lost or run twice shows
        try:
            for count in (1, 2, 3):
                for given in (x, np.asfortranarray(x)):
                    cpus(count)
                    workers = rowblocks.forward_workers(rows)
                    del started[:]
                    assert np.array_equal(bits(forward(model, given)), expected), (count, given.flags)
                    assert len(started) == workers - 1
                    assert not any(t.is_alive() for t in started)
        finally:
            sys.setswitchinterval(interval)

    def test_each_worker_has_two_blocks(self, cpus):
        cpus(3)
        for rows, k in ((0, 1), (2 * ROW_CHUNK, 1), (2 * ROW_CHUNK + 1, 1), (4 * ROW_CHUNK, 2),
                        (5 * ROW_CHUNK, 2), (5 * ROW_CHUNK + 1, 3), (100 * ROW_CHUNK, 3)):
            assert rowblocks.forward_workers(rows) == k, rows

    @pytest.mark.parametrize("where", ["started thread", "calling thread"])
    def test_worker_error_reaches_the_caller_after_every_join(self, cpus, monkeypatch, where):
        cpus(3)
        model = kernel_model(self.SIZES, seed=0)
        x = kernel_batch(7 * ROW_CHUNK, self.SIZES[0], seed=0)
        main = threading.main_thread()

        def failing(z, out=None):
            if (threading.current_thread() is main) == (where == "calling thread"):
                raise FloatingPointError(f"elu failed in the {where}")
            time.sleep(0.01)  # so that the other kind of thread takes a block too
            return elu(z, out=out)
        monkeypatch.setattr(net, "elu", failing)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"elu failed in the {where}"):
            forward(model, x)
        assert threading.active_count() == before

    @pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"},
                                     {"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, {"OMP_NUM_THREADS": "2"}])
    def test_no_thread_unless_the_blas_is_pinned_to_one(self, env):
        # numpy's OpenBLAS, not pinned to one thread, starts a thread per CPU
        # as numpy loads (OPENBLAS_, GOTO_ and OMP_NUM_THREADS, first set first):
        # forward then runs on the calling thread alone
        run_python(f"""
import threading
import numpy as np
from cre3d import net, rowblocks
model = net.init_model({self.SIZES}, 1)
x = np.random.default_rng(1).normal(size=(8 * rowblocks.ROW_CHUNK, {self.SIZES[0]}))
expected = net.forward(model, x)
def no_thread(*args, **kwargs):
    raise AssertionError("forward started a thread")
threading.Thread = no_thread
assert rowblocks.forward_workers(len(x)) == 1
assert np.array_equal(net.forward(model, x), expected)
""", env)

    @pytest.mark.parametrize("env", [{"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "1"}])
    def test_first_blas_variable_set_decides(self, env):
        run_python("""
import os
import numpy as np
from cre3d import rowblocks
assert len(os.listdir("/proc/self/task")) == 1
assert rowblocks.forward_workers(4 * rowblocks.ROW_CHUNK) == min(2, len(os.sched_getaffinity(0)))
""", env)

    def test_one_worker_while_other_threads_run(self, cpus):
        cpus(2)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            assert rowblocks.forward_workers(8 * ROW_CHUNK) == 1
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        cpus(2)
        assert rowblocks.forward_workers(8 * ROW_CHUNK) == 2

    def test_one_worker_beside_a_thread_threading_does_not_list(self, cpus):
        # a host model's thread, or a BLAS pool, that Python's threading
        # module has no record of
        cpus(2)
        release = threading.Event()
        _thread.start_new_thread(release.wait, (10,))
        try:
            assert threading.active_count() == 1
            assert os_threads() == 2
            assert rowblocks.usable_cpus() == 1
            assert rowblocks.forward_workers(8 * ROW_CHUNK) == 1
        finally:
            release.set()
        cpus(2)
        assert rowblocks.forward_workers(8 * ROW_CHUNK) == 2


class TestThreadsAcrossThePipeline:
    """Inference starts row workers only for batches of four blocks or more:
    a host model's blocks, `predict`'s 2000 rows and training start none."""

    @pytest.mark.parametrize("rows", [1, 32, 2000])
    def test_no_thread_at_host_and_file_sizes(self, small_grid, consts, cpus, started, rows):
        lw, sw = TestPredictEffects._models(small_grid, consts)
        cpus(2)
        predict_flux_effects(lw, sw, generate_profiles(rows, small_grid, seed=rows), consts)
        assert started == []

    def test_no_thread_in_training(self, cpus, started):
        cpus(2)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(480, 6)), rng.normal(size=(480, 3))
        train(init_model([6, 8, 3], 0), x[:360], y[:360], x[360:], y[360:], TrainConfig(max_epochs=3, patience=1))
        assert started == []

    def test_large_batch_keeps_the_one_worker_bits(self, small_grid, consts, cpus, started, monkeypatch):
        # each stage waits for the threads of the one before to leave; the
        # bound is raised so that a loaded machine cannot end the wait early
        monkeypatch.setattr(rowblocks, "LISTED_BOUND", 1.0)
        lw, sw = TestPredictEffects._models(small_grid, consts)
        profiles = generate_profiles(4 * ROW_CHUNK + 5, small_grid, seed=4)
        results = []
        for count in (1, 2):
            cpus(count)
            results.append(predict_flux_effects(lw, sw, profiles, consts))
        # normalize, forward, denormalize and postprocess, LW and SW: one started thread each
        assert len(started) == 8
        for component, effects in results[0].items():
            for name, a in effects.items():
                assert np.array_equal(bits(a), bits(results[1][component][name])), (component, name)


class TestInputsNotMutated:
    @pytest.mark.parametrize("sizes", KERNEL_SHAPES)
    def test_forward(self, sizes):
        model = kernel_model(sizes, seed=3)
        x = kernel_batch(50, sizes[0], seed=3)
        before = x.copy()
        x.setflags(write=False)
        out = forward(model, x)
        assert np.array_equal(bits(x), bits(before))
        assert not np.shares_memory(out, x)
        params = [p.copy() for p in model.weights + model.biases]
        loss_and_gradients(model, x, np.zeros_like(out), l1=1e-5, l2=1e-5)
        assert np.array_equal(bits(x), bits(before))
        for p, q in zip(model.weights + model.biases, params):
            assert np.array_equal(bits(p), bits(q))

    def test_elu_without_out(self):
        x = np.random.default_rng(4).normal(size=(20, 30))
        before = x.copy()
        x.setflags(write=False)
        elu(x)
        elu_grad(x)
        assert np.array_equal(bits(x), bits(before))

    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_window_effects(self, small_grid, consts, component):
        lw, sw = TestPredictEffects._models(small_grid, consts)
        model = lw if component == "lw" else sw
        profiles = ProfileBatch.from_profiles(generate_profiles(12, small_grid, seed=8))
        x = build_input_matrix(profiles, model.schema, consts)
        mu0 = profiles.mu0.copy()
        mu0[::3] = -0.2
        arrays = (x, profiles.alpha.copy(), mu0)
        before = [a.copy() for a in arrays]
        for a in arrays:
            a.setflags(write=False)
        _window_effects(model, *arrays, small_grid, consts)
        for a, b in zip(arrays, before):
            assert np.array_equal(bits(a), bits(b))


class TestInit:
    def test_he_uniform_bounds_and_zero_bias(self):
        model = init_model([100, 50, 10], seed=3)
        for w, fan_in in zip(model.weights, [100, 50]):
            limit = math.sqrt(6.0 / fan_in)
            assert np.all(np.abs(w) <= limit)
        for b in model.biases:
            assert np.all(b == 0.0)

    def test_seed_determinism(self):
        a = init_model([7, 5, 2], seed=11)
        b = init_model([7, 5, 2], seed=11)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_reference_architecture(self, ref_grid):
        lw = reference_model(schema_for_grid("lw", ref_grid), seed=0)
        sw = reference_model(schema_for_grid("sw", ref_grid), seed=0)
        assert lw.layer_sizes == [271, 217, 217, 217, 181]
        assert sw.layer_sizes == [182, 182, 182, 182, 272]

    def test_chain_mismatch_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            MlpModel(weights=[np.zeros((4, 3)), np.zeros((2, 5))],
                     biases=[np.zeros(4), np.zeros(2)])


class TestLossAndGradients:
    def test_mse_hand_value(self):
        # identity net, error of exactly 1 everywhere -> MSE 1
        model = identity_model(2)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        loss, _ = loss_and_gradients(model, x, x + 1.0, l1=0.0, l2=0.0)
        assert loss == 1.0

    def test_regularization_terms(self):
        model = MlpModel(weights=[np.array([[2.0, -3.0]])], biases=[np.array([0.0])])
        x = np.array([[0.0, 0.0]])
        y = np.array([[0.0]])
        loss, _ = loss_and_gradients(model, x, y, l1=0.1, l2=0.01)
        assert loss == pytest.approx(0.1 * 5.0 + 0.01 * 13.0)

    def test_zero_error_zero_data_gradient(self):
        model = identity_model(3)
        x = np.random.default_rng(0).normal(size=(4, 3))
        _, (gw, gb) = loss_and_gradients(model, x, x, l1=0.0, l2=0.0)
        np.testing.assert_allclose(gw[0], 0.0, atol=1e-15)
        np.testing.assert_allclose(gb[0], 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = init_model([3, 4, 2], seed=seed)
        # avoid the L1 kink and ELU corner: keep parameters away from zero
        for w in model.weights:
            w += 0.05 * np.sign(w) + 0.01
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 2))
        l1, l2 = 1e-3, 1e-3

        _, (gw, gb) = loss_and_gradients(model, x, y, l1, l2)

        def loss_at():
            return loss_and_gradients(model, x, y, l1, l2)[0]

        step = 1e-5
        for k in range(len(model.weights)):
            for arr, grad in ((model.weights[k], gw[k]), (model.biases[k], gb[k])):
                flat = arr.reshape(-1)
                idx = rng.choice(flat.size, size=min(5, flat.size), replace=False)
                for j in idx:
                    orig = flat[j]
                    flat[j] = orig + step
                    up = loss_at()
                    flat[j] = orig - step
                    down = loss_at()
                    flat[j] = orig
                    fd = (up - down) / (2.0 * step)
                    g = grad.reshape(-1)[j]
                    assert abs(g - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="target shape"):
            loss_and_gradients(identity_model(2), np.zeros((3, 2)), np.zeros((3, 3)),
                               0.0, 0.0)


class TestAdam:
    def test_zero_gradient_is_noop(self):
        model = init_model([3, 2], seed=0)
        before = model.copy_params()
        state = AdamState(model)
        zeros = ([np.zeros_like(w) for w in model.weights],
                 [np.zeros_like(b) for b in model.biases])
        adam_step(model, zeros, state, TrainConfig())
        for w0, w1 in zip(before[0], model.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_first_step_magnitude(self):
        # with a constant gradient the bias-corrected first step is
        # lr * g / (|g| + eps), i.e. close to lr in magnitude
        model = MlpModel(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        state = AdamState(model)
        cfg = TrainConfig(learning_rate=1e-3)
        grads = ([np.array([[4.0]])], [np.array([0.0])])
        adam_step(model, grads, state, cfg)
        assert model.weights[0][0, 0] == pytest.approx(1.0 - 1e-3, rel=1e-4)


class TestOptimizerBits:
    """The in-place Adam update and the regularization pass over flat
    ELU_BLOCK-element blocks give the bits of the out-of-place formulas, for
    arrays below, at and above one block, in C and in F order."""

    # weights (128, 256): exactly one block; (257, 128): one block plus a
    # 128-element last block; (9, 257) and every bias: below one block.
    # [2, 40000, 1]: a 40000-element bias, a (40000, 2) weight of three blocks
    # and a (1, 40000) weight of two, whose one row is longer than a block.
    SHAPES = [[256, 128, 257, 9], [2, 40000, 1]]

    @staticmethod
    def _model(sizes, seed):
        model = kernel_model(sizes, seed)
        for w in model.weights:
            w.reshape(-1)[::11] = 0.0
            w.reshape(-1)[5::13] = -0.0
        return model

    @pytest.mark.parametrize("sizes", SHAPES)
    def test_adam_steps(self, sizes):
        model = self._model(sizes, seed=len(sizes))
        cfg = TrainConfig(learning_rate=3e-3, beta1=0.8, beta2=0.99, eps=1e-6)
        state = AdamState(model)
        params = [a.copy() for a in model.weights + model.biases]
        ms = [np.zeros_like(a) for a in params]
        vs = [np.zeros_like(a) for a in params]
        rng = np.random.default_rng(7)
        for t in range(1, 5):
            grads = [rng.normal(scale=10.0 ** -t, size=a.shape) for a in params]
            grads[0].reshape(-1)[::3] = 0.0
            n = len(model.weights)
            adam_step(model, ([g.copy() for g in grads[:n]], [g.copy() for g in grads[n:]]),
                      state, cfg)
            params, ms, vs = textbook_adam(params, grads, ms, vs, t, cfg)
            assert state.t == t
            got = (model.weights + model.biases, state.m_w + state.m_b, state.v_w + state.v_b)
            for got_list, ref_list in zip(got, (params, ms, vs)):
                for a, b in zip(got_list, ref_list):
                    assert np.array_equal(bits(a), bits(b))

    def test_fortran_ordered_arrays_step_in_place(self):
        # the in-place update reaches F-ordered parameters and moments with
        # the bits of the C-ordered case
        c_model = self._model([300, 200, 4], seed=1)
        f_model = MlpModel(weights=[np.asfortranarray(w) for w in c_model.weights],
                           biases=[b.copy() for b in c_model.biases])
        rng = np.random.default_rng(1)
        grads = ([rng.normal(size=w.shape) for w in c_model.weights],
                 [np.ones_like(b) for b in c_model.biases])
        f_grads = ([np.asfortranarray(g) for g in grads[0]], grads[1])
        c_state, f_state = AdamState(c_model), AdamState(f_model)
        assert f_state.m_w[0].flags.f_contiguous and not f_state.m_w[0].flags.c_contiguous
        for _ in range(2):
            adam_step(c_model, grads, c_state, TrainConfig())
            adam_step(f_model, f_grads, f_state, TrainConfig())
        for a, b in zip(c_model.weights + c_state.m_w + c_state.v_w,
                        f_model.weights + f_state.m_w + f_state.v_w):
            assert np.array_equal(bits(a), bits(b))

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("sizes", SHAPES)
    def test_regularization_gradient(self, sizes, layout):
        # an F-ordered weight is read through a C-order copy, so its loss and
        # gradients are the C-ordered model's, bit for bit
        model = self._model(sizes, seed=3)
        x = kernel_batch(3, sizes[0], seed=3)
        y = np.random.default_rng(3).normal(size=(3, sizes[-1]))
        used = model if layout == "C" else MlpModel(
            weights=[np.asfortranarray(w) for w in model.weights], biases=model.biases)
        assert used.weights[0].flags.c_contiguous == (layout == "C")
        for l1, l2 in ((1e-5, 1e-4), (3e-2, 7e-3)):
            loss, (gw, gb) = loss_and_gradients(used, x, y, l1=l1, l2=l2)
            ref_loss, ref_gw, ref_gb = textbook_gradients(model, x, y, l1=l1, l2=l2)
            assert bits(loss) == bits(ref_loss)
            for got, ref in zip(gw + gb, ref_gw + ref_gb):
                assert np.array_equal(bits(got), bits(ref))

    @pytest.mark.parametrize("sizes", [[271, 217, 217, 217, 181], [182, 182, 182, 182, 272]])
    def test_train_is_the_textbook_loop(self, sizes):
        # reference widths, batch 64 over 150 rows: minibatches of 64, 64 and 22
        rng = np.random.default_rng(sizes[0])
        x, y = rng.normal(size=(150, sizes[0])), rng.normal(size=(150, sizes[-1]))
        xv, yv = rng.normal(size=(40, sizes[0])), rng.normal(size=(40, sizes[-1]))
        cfg = TrainConfig(max_epochs=3, patience=2, batch_size=64, l1=1e-4, l2=1e-3, seed=9)
        model0 = init_model(sizes, seed=4)
        trained, history = train(model0, x, y, xv, yv, cfg)
        snapshots, losses = textbook_train(model0, x, y, xv, yv, cfg)
        assert [(r.train_loss, r.val_loss) for r in history] == losses
        best = min(range(3), key=lambda e: losses[e][1])
        assert trained.meta["best_epoch"] == best + 1
        for got, ref in zip(trained.weights + trained.biases, snapshots[best]):
            assert np.array_equal(bits(got), bits(ref))


class TestTrain:
    @staticmethod
    def _linear_data(seed, n=400):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=(n, 1))
        y = 2.0 * x + 1.0
        return x[: n // 2], y[: n // 2], x[n // 2:], y[n // 2:]

    def test_fits_affine_function(self):
        x_tr, y_tr, x_va, y_va = self._linear_data(0)
        cfg = TrainConfig(max_epochs=500, patience=100, l1=0.0, l2=0.0,
                          batch_size=32, learning_rate=1e-2, seed=1)
        model, history = train(init_model([1, 8, 1], seed=1), x_tr, y_tr, x_va, y_va, cfg)
        assert mse(forward(model, x_va), y_va) < 1e-3
        assert history[0].val_loss > history[-1].val_loss

    def test_seed_bitwise_determinism(self):
        x_tr, y_tr, x_va, y_va = self._linear_data(2)
        cfg = TrainConfig(max_epochs=20, patience=5, seed=7)
        m1, h1 = train(init_model([1, 6, 1], seed=7), x_tr, y_tr, x_va, y_va, cfg)
        m2, h2 = train(init_model([1, 6, 1], seed=7), x_tr, y_tr, x_va, y_va, cfg)
        for w1, w2 in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(w1, w2)
        assert [r.val_loss for r in h1] == [r.val_loss for r in h2]

    def test_returns_best_validation_epoch(self):
        x_tr, y_tr, x_va, y_va = self._linear_data(3)
        cfg = TrainConfig(max_epochs=60, patience=20, seed=3)
        model, history = train(init_model([1, 6, 1], seed=3), x_tr, y_tr, x_va, y_va, cfg)
        best = min(r.val_loss for r in history)
        assert mse(forward(model, x_va), y_va) == pytest.approx(best, rel=1e-12)
        assert model.meta["best_epoch"] == min(
            r.epoch for r in history if r.val_loss == best)

    def test_patience_zero_stops_at_first_non_improvement(self):
        x_tr, y_tr, x_va, y_va = self._linear_data(4)
        cfg = TrainConfig(max_epochs=200, patience=0, seed=4)
        _, history = train(init_model([1, 6, 1], seed=4), x_tr, y_tr, x_va, y_va, cfg)
        losses = [r.val_loss for r in history]
        if len(losses) < 200:
            # every epoch but the last improved on the running best
            best = math.inf
            for loss in losses[:-1]:
                assert loss < best
                best = loss
            assert losses[-1] >= best

    def test_initial_model_not_mutated(self):
        x_tr, y_tr, x_va, y_va = self._linear_data(5)
        init = init_model([1, 4, 1], seed=5)
        snapshot = init.copy_params()
        train(init, x_tr, y_tr, x_va, y_va, TrainConfig(max_epochs=5, patience=2, seed=5))
        for w0, w1 in zip(snapshot[0], init.weights):
            np.testing.assert_array_equal(w0, w1)

    def test_train_loss_is_the_row_weighted_minibatch_objective(self, monkeypatch):
        x_tr, y_tr, x_va, y_va = self._linear_data(6, n=250)
        x_va, y_va = x_va[:40], y_va[:40]
        cfg = TrainConfig(max_epochs=4, patience=3, batch_size=32, seed=6)
        model0 = init_model([1, 6, 1], seed=6)
        seen, objectives = [], []

        def recording_loss(model, bx, by, l1, l2):
            loss, grads = loss_and_gradients(model, bx, by, l1, l2)
            objectives.append((loss, len(bx)))
            return loss, grads

        def recording_forward(model, batch):
            seen.append(len(batch))
            return forward(model, batch)

        monkeypatch.setattr(net, "loss_and_gradients", recording_loss)
        monkeypatch.setattr(net, "forward", recording_forward)
        _, history = train(model0, x_tr, y_tr, x_va, y_va, cfg)
        # 125 training rows: minibatches of 32, 32, 32 and 29 per epoch
        assert [rows for _, rows in objectives] == [32, 32, 32, 29] * 4
        for epoch, record in enumerate(history):
            total = 0.0
            for loss, rows in objectives[4 * epoch:4 * epoch + 4]:
                total += loss * rows
            assert record.train_loss == total / 125
        # one forward per epoch, over the 40 validation rows only
        assert seen == [40] * 4

    @pytest.mark.parametrize("arrays, message", [
        ({"x_train": np.zeros(10)}, r"x_train must be a 2-D matrix .*got shape \(10,\)"),
        ({"y_val": np.zeros((3, 2, 1))}, r"y_val must be a 2-D matrix .*got shape \(3, 2, 1\)"),
        ({"x_val": np.zeros((3, 4))}, "x_val has 4 columns, the model's input width is 3"),
        ({"y_val": np.zeros((3, 1))}, "y_val has 1 columns, the model's output width is 2"),
        ({"y_train": np.zeros((10, 1))}, "y_train has 1 columns, the model's output width is 2"),
        ({"y_val": np.zeros((1, 2))}, "y_val has 1 rows, x_val has 3"),
        ({"y_train": np.zeros((12, 2))}, "y_train has 12 rows, x_train has 10"),
        # a NaN validation target made every val_loss NaN, so no epoch ever
        # improved and the untrained initial model came back
        ({"y_val": np.array([[0.0, 0.0], [0.0, np.nan], [0.0, 0.0]])},
         "y_val contains non-finite values"),
        ({"x_train": np.full((10, 3), np.inf)}, "x_train contains non-finite values"),
    ])
    def test_bad_arrays_rejected(self, monkeypatch, arrays, message):
        given = {"x_train": np.zeros((10, 3)), "y_train": np.zeros((10, 2)),
                 "x_val": np.zeros((3, 3)), "y_val": np.zeros((3, 2)), **arrays}

        def no_step(*args):
            raise AssertionError("a training step ran before the input checks")

        monkeypatch.setattr(net, "loss_and_gradients", no_step)
        with pytest.raises(ValueError, match=message):
            train(init_model([3, 4, 2], seed=0), cfg=TrainConfig(max_epochs=2, patience=1),
                  **given)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            train(init_model([1, 1], seed=0), np.zeros((0, 1)), np.zeros((0, 1)),
                  np.zeros((1, 1)), np.zeros((1, 1)), TrainConfig())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(max_epochs=10, patience=10)

    @pytest.mark.parametrize("field", ["learning_rate", "l1", "l2"])
    def test_nan_rate_or_regularization_rejected(self, field):
        with pytest.raises(ValueError, match="nan"):
            TrainConfig(**{field: math.nan})

    @pytest.mark.parametrize("fields, message", [
        ({"learning_rate": math.inf}, "learning_rate must be finite, got inf"),
        ({"beta1": math.nan}, r"beta1 and beta2 must lie in \[0, 1\), got nan and 0.999"),
        ({"beta2": 1.0}, r"beta1 and beta2 must lie in \[0, 1\), got 0.9 and 1.0"),
        ({"beta1": -0.1}, r"beta1 and beta2 must lie in \[0, 1\), got -0.1 and 0.999"),
        ({"eps": -1.0}, "eps must be finite and > 0, got -1.0"),
        ({"eps": math.inf}, "eps must be finite and > 0, got inf"),
        ({"eps": math.nan}, "eps must be finite and > 0, got nan"),
    ])
    def test_infinite_rate_and_bad_adam_constants_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**fields)

    def test_negative_patience_rejected(self):
        with pytest.raises(ValueError, match="patience -3 is below 0"):
            TrainConfig(max_epochs=5, patience=-3)

    def test_no_epochs_rejected(self):
        # a patience below the epoch count must not let a run of no epochs through
        with pytest.raises(ValueError, match="max_epochs 0 is below 1"):
            TrainConfig(max_epochs=0, patience=-1)


class TestMemorization:
    def test_reference_net_memorizes_small_toy_set(self, small_grid, consts):
        """Unregularized reference-size net driven to near-zero error on a
        tiny fixed sample, as a capacity and optimizer sanity check."""
        profiles = generate_profiles(100, small_grid, seed=0)
        schema = schema_for_grid("lw", small_grid)
        x = build_input_matrix(profiles, schema, consts)
        y = build_target_vector(toy_truth(profiles, consts).lw, schema)
        norm_in = fit_normalization(x)
        norm_out = fit_normalization(y)
        xn, yn = norm_in.apply(x), norm_out.apply(y)
        model = reference_model(schema, seed=0)
        initial = mse(forward(model, xn), yn)
        cfg = TrainConfig(max_epochs=400, patience=399, l1=0.0, l2=0.0,
                          batch_size=100, seed=0)
        trained, _ = train(model, xn, yn, xn, yn, cfg)
        final = mse(forward(trained, xn), yn)
        assert final < 1e-4 * initial


class TestGridSearch:
    @staticmethod
    def _dataset(seed, n_in=3, n_out=2, n=120):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(n_out, n_in))
        x = rng.uniform(-1, 1, size=(n, n_in))
        y = x @ w.T
        identity = Normalization(mean=np.zeros(n_out), scale=np.ones(n_out))
        return GridDataset(x_train=x[:80], y_train=y[:80], x_val=x[80:], y_val=y[80:],
                           norm_out=identity)

    def test_run_seed_formula(self):
        assert run_seed(5, 3, 2) == 5 * 1_000_003 + 3 * 1_009 + 2

    def test_bookkeeping_counts(self):
        spec = GridSearchSpec(input_variants=(6,), hidden_layer_counts=(1, 2),
                              width_multipliers=(0.5, 1.0), reg_factors=(1e-5,),
                              repeats=2)
        cfg = TrainConfig(max_epochs=3, patience=1, seed=0)
        report = grid_search(spec, {6: self._dataset(0)}, cfg)
        assert len(report.rows) == 4
        assert all(len(r.val_maes) + len(r.errors) == 2 for r in report.rows)
        widths = {(r.n_layers, r.multiplier): r.width for r in report.rows}
        assert widths[(1, 0.5)] == 2 and widths[(1, 1.0)] == 3

    def test_single_configuration_selected(self):
        spec = GridSearchSpec(input_variants=(6,), hidden_layer_counts=(2,),
                              width_multipliers=(1.0,), reg_factors=(1e-6,), repeats=1)
        cfg = TrainConfig(max_epochs=3, patience=1, seed=0)
        report = grid_search(spec, {6: self._dataset(1)}, cfg)
        assert report.selected == 0

    def test_simplicity_wins_within_tolerance(self):
        spec = GridSearchSpec(input_variants=(6,), hidden_layer_counts=(1, 3),
                              width_multipliers=(1.0,), reg_factors=(1e-6,), repeats=1)
        cfg = TrainConfig(max_epochs=3, patience=1, seed=0)
        # with an enormous tolerance every row is a candidate; the simplest
        # (fewest layers) must win regardless of MAE
        report = grid_search(spec, {6: self._dataset(2)}, cfg,
                             simplicity_tolerance=1e9)
        assert report.rows[report.selected].n_layers == 1

    def test_zero_tolerance_picks_lowest_mae(self):
        spec = GridSearchSpec(input_variants=(6,), hidden_layer_counts=(1, 2),
                              width_multipliers=(1.0,), reg_factors=(1e-6,), repeats=2)
        cfg = TrainConfig(max_epochs=5, patience=2, seed=0)
        report = grid_search(spec, {6: self._dataset(3)}, cfg)
        best = min(r.mean_mae for r in report.rows)
        assert report.rows[report.selected].mean_mae == best

    def test_missing_variant_dataset_rejected(self):
        spec = GridSearchSpec(input_variants=(6, 7), hidden_layer_counts=(1,),
                              width_multipliers=(1.0,), reg_factors=(1e-6,), repeats=1)
        with pytest.raises(ValueError, match="variant 7"):
            grid_search(spec, {6: self._dataset(4)}, TrainConfig(max_epochs=2, patience=1))

    def test_negative_reg_factor_rejected(self):
        with pytest.raises(ValueError, match="regularization factor -1e-05 is below 0"):
            GridSearchSpec(reg_factors=(1e-5, -1e-5))

    @pytest.mark.parametrize("axes, message", [
        ({"width_multipliers": (1.0, math.nan)}, "width multiplier nan is not a number"),
        ({"reg_factors": (math.nan,)}, "regularization factor nan is not a number"),
        ({"hidden_layer_counts": (1, math.nan)}, "hidden layer count nan is not a number")])
    def test_nan_axis_value_rejected(self, axes, message):
        with pytest.raises(ValueError, match=message):
            GridSearchSpec(**axes)

    @pytest.mark.parametrize("axes, message", [
        ({"input_variants": (6, 7, 6)}, "grid axis input_variants repeats the value 6"),
        ({"hidden_layer_counts": (1, 1)}, "grid axis hidden_layer_counts repeats the value 1"),
        ({"width_multipliers": (0.5, 1.0, 1)}, "grid axis width_multipliers repeats the value 1"),
        ({"reg_factors": (0.0, -0.0)}, "grid axis reg_factors repeats the value -0.0")])
    def test_repeated_axis_value_rejected(self, axes, message):
        # each configuration runs once: a repeated value would run it again under another seed
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridSearchSpec(**axes)

    @pytest.mark.parametrize("tolerance, variants, message", [
        (-1.0, (6,), "simplicity tolerance -1.0 is not >= 0"),
        (math.nan, (6,), "simplicity tolerance nan is not >= 0"),
        (0.0, (6, 7), "no dataset supplied for input variant 7")])
    def test_bad_arguments_rejected_before_any_training(self, monkeypatch, tolerance, variants, message):
        trained = []
        monkeypatch.setattr(net, "train", lambda *args: trained.append(args))
        spec = GridSearchSpec(input_variants=variants, hidden_layer_counts=(1,),
                              width_multipliers=(1.0,), reg_factors=(1e-6,), repeats=1)
        with pytest.raises(ValueError, match=message):
            grid_search(spec, {6: self._dataset(5)}, TrainConfig(max_epochs=2, patience=1),
                        simplicity_tolerance=tolerance)
        assert trained == []


class TestPredictDigests:
    """The bits of `predict_flux_effects` at host-model block sizes: the
    first 64 of 2000 generated profiles in calls of 1, 8 and 32 rows, and
    all 2000 in one call. The rows hit both caps, and the shortwave's night
    rows the degenerate branch. A one-row call runs a TILE-column GEMM,
    not a GEMV, so its rows have the bits they have in larger calls."""

    DIGESTS = {
        1: "8c6ef05f73041e00d03ba5f4323ab36dad08a073a752b9d0b053c87e042143d0",
        8: "737aa6261a27b659fc13fae21528922bed30ee75a4a52eb58b3f5031c0a5c103",
        32: "f8e18448467dc74b8f0a585f647eb876b1a93f1c7855dc57fd08bc442d33a9bc",
        2000: "ca3ef78618a331bc989fed39773e241aaf1e4afaad6940b5dd00420ffef383cb",
    }

    @pytest.fixture(scope="class")
    def setup(self):
        # Reference-width LW and SW models, He-uniform weights of seed 3 and
        # normalization fitted on 200 generated profiles and their toy truth.
        consts = PhysConsts()
        grid = make_reference_grid()
        profiles = generate_profiles(200, grid, seed=3)
        truth = toy_truth(profiles, consts)
        models = []
        for component in ("lw", "sw"):
            schema = schema_for_grid(component, grid, consts.p_trunc)
            model = net.reference_model(schema, 3)
            model.norm_in = fit_normalization(build_input_matrix(profiles, schema, consts))
            model.norm_out = fit_normalization(build_target_vector(getattr(truth, component), schema))
            models.append(model)
        return models, generate_profiles(2000, grid, seed=11), consts

    @pytest.mark.parametrize("block", sorted(DIGESTS))
    def test_bits_pinned(self, setup, block):
        (lw, sw), profiles, consts = setup
        n = len(profiles) if block == 2000 else 64
        h = hashlib.sha256()
        for s in range(0, n, block):
            effects = predict_flux_effects(lw, sw, profiles[s:s + block], consts)
            for component in ("lw", "sw"):
                for name in sorted(effects[component]):
                    h.update(np.ascontiguousarray(effects[component][name], dtype="<f8").tobytes())
        assert h.hexdigest() == self.DIGESTS[block]

    @pytest.mark.parametrize("calls", [1, 5, 17, 32, "permuted"])
    def test_a_rows_bits_are_its_own(self, setup, calls):
        # Every delivered LW and SW row of 160 profiles, in calls of a few
        # rows or in another order, has the bits of one whole-batch call.
        (lw, sw), profiles, consts = setup
        profiles = profiles[:160]
        whole = predict_flux_effects(lw, sw, profiles, consts)
        if calls == "permuted":
            order = np.random.default_rng(0).permutation(len(profiles))
            effects = predict_flux_effects(lw, sw, [profiles[int(i)] for i in order], consts)
            whole = {c: {name: m[order] for name, m in e.items()} for c, e in whole.items()}
        else:
            parts = [predict_flux_effects(lw, sw, profiles[s:s + calls], consts)
                     for s in range(0, len(profiles), calls)]
            effects = {c: {name: np.concatenate([p[c][name] for p in parts]) for name in whole[c]}
                       for c in whole}
        for c in ("lw", "sw"):
            for name, m in whole[c].items():
                assert np.array_equal(bits(effects[c][name]), bits(m)), (c, name)


class TestPredictEffects:
    @staticmethod
    def _models(grid, consts, seed=0):
        models = {}
        for comp in ("lw", "sw"):
            schema = schema_for_grid(comp, grid)
            model = init_model([schema.input_len, 8, schema.output_len],
                               seed=seed, schema=schema)
            x = build_input_matrix(generate_profiles(10, grid, seed=seed), schema, consts)
            model.norm_in = fit_normalization(x)
            rng = np.random.default_rng(seed + 1)
            model.norm_out = fit_normalization(rng.normal(size=(10, schema.output_len)))
            models[comp] = model
        return models["lw"], models["sw"]

    def test_night_profiles_have_zero_sw_effect(self, small_grid, consts):
        lw, sw = self._models(small_grid, consts)
        profiles = generate_profiles(6, small_grid, seed=2)
        night = [type(p)(grid=p.grid, T=p.T, f_c=p.f_c, q_l=p.q_l, q_i=p.q_i,
                         r_l=p.r_l, r_i=p.r_i, T_s=p.T_s, alpha=p.alpha,
                         mu0=-0.1, q=p.q, pid=p.pid)
                 for p in profiles]
        e_sw = predict_flux_effects(lw, sw, night, consts)["sw"]
        assert np.all(e_sw["up"] + e_sw["down"] == 0.0)
        assert np.all(e_sw["heat"] == 0.0)
        assert np.all(e_sw["direct_down"] == 0.0)

    def test_effects_zero_above_window(self, small_grid, consts):
        # Above the window the down, direct and heating effects are zero and
        # the up effect is held at its value at the window top.
        lw, sw = self._models(small_grid, consts)
        profiles = generate_profiles(3, small_grid, seed=3)
        i0 = small_grid.window_start(consts.p_trunc)
        effects = predict_flux_effects(lw, sw, profiles, consts)
        for e in effects.values():
            assert np.all(e["down"][:, :i0] == 0.0)
            assert np.all(e["heat"][:, :i0] == 0.0)
            assert np.all(e["up"][:, :i0] == e["up"][:, i0:i0 + 1])
        assert np.all(effects["sw"]["direct_down"][:, :i0] == 0.0)

    def test_effects_are_writable_window_extensions(self, small_grid, consts):
        # The same extension as extend_to_full, bit for bit, in writable
        # matrices; the longwave has no direct_down.
        lw, sw = self._models(small_grid, consts)
        profiles = generate_profiles(4, small_grid, seed=3)
        i0 = small_grid.window_start(consts.p_trunc)
        effects = predict_flux_effects(lw, sw, profiles, consts)
        assert set(effects["lw"]) == {"up", "down", "heat"}
        assert set(effects["sw"]) == {"up", "down", "heat", "direct_down"}
        for e in effects.values():
            direct = e["direct_down"][:, i0:] if "direct_down" in e else None
            full = extend_to_full(e["up"][:, i0:], e["down"][:, i0:], direct, e["heat"][:, i0:],
                                  small_grid, consts.p_trunc)
            for name, m in e.items():
                assert m.flags.writeable
                assert np.array_equal(m.view(np.int64), getattr(full, name).view(np.int64))

    def test_window_and_optical_depth_computed_once(self, small_grid, consts, monkeypatch):
        # Both components' input rows come from one window truncation and one
        # cloud optical depth, with the bits of build_input_matrix.
        lw, sw = self._models(small_grid, consts)
        profiles = ProfileBatch.from_profiles(generate_profiles(7, small_grid, seed=9))
        calls, inputs = [], {}
        for name in ("truncate_profile", "compute_cloud_optical_depth"):
            def counted(*args, _fn=getattr(features, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(features, name, counted)
        window_effects = net._window_effects

        def recorded(model, x, *args):
            inputs[model.schema.component] = x
            return window_effects(model, x, *args)

        monkeypatch.setattr(net, "_window_effects", recorded)
        predict_flux_effects(lw, sw, profiles, consts)
        assert sorted(calls) == ["compute_cloud_optical_depth", "truncate_profile"]
        monkeypatch.undo()
        for model in (lw, sw):
            expected = build_input_matrix(profiles, model.schema, consts)
            assert np.array_equal(bits(inputs[model.schema.component]), bits(expected))

    def test_batch_composition_independence(self, small_grid, consts):
        lw, sw = self._models(small_grid, consts)
        profiles = generate_profiles(5, small_grid, seed=4)
        together = predict_flux_effects(lw, sw, profiles, consts)
        for i, p in enumerate(profiles):
            alone = predict_flux_effects(lw, sw, [p], consts)
            np.testing.assert_allclose(alone["lw"]["up"][0] + alone["lw"]["down"][0],
                                       together["lw"]["up"][i] + together["lw"]["down"][i],
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(alone["sw"]["heat"][0], together["sw"]["heat"][i],
                                       rtol=1e-12, atol=1e-14)

    def test_component_mismatch_rejected(self, small_grid, consts):
        lw, sw = self._models(small_grid, consts)
        profiles = generate_profiles(1, small_grid, seed=5)
        with pytest.raises(features.ModelMismatch, match="expected a 'lw' model, got 'sw'") as caught:
            predict_flux_effects(sw, lw, profiles, consts)
        assert (caught.value.component, caught.value.profiles) == ("lw", False)

    def test_grid_with_other_window_pressures_rejected(self, small_grid, consts):
        # same window size, one window pressure moved
        lw, sw = self._models(small_grid, consts)
        p_hl = small_grid.p_hl.copy()
        p_hl[-2] = 70000.0
        other = VerticalGrid(p_hl)
        assert other.window(consts.p_trunc).n_fl == small_grid.window(consts.p_trunc).n_fl
        profiles = generate_profiles(2, other, seed=6)
        with pytest.raises(ValueError, match=r"^the profiles' window \(6 full levels\) is not the one the lw "
                                             r"model was trained on \(6 full levels\): their half-level "
                                             r"pressures differ$"):
            predict_flux_effects(lw, sw, profiles, consts)
        for model in (lw, sw):
            with pytest.raises(ValueError, match=f"the one the {model.schema.component} model was trained on"):
                build_input_matrix(profiles, model.schema, consts)
        predict_flux_effects(lw, sw, generate_profiles(2, small_grid, seed=6), consts)

    def test_sw_model_on_another_window_fails_before_any_forward(self, small_grid, consts, monkeypatch):
        # Both schemas are checked before the LW network runs.
        lw, sw = self._models(small_grid, consts)
        sw.schema = dataclasses.replace(sw.schema, p_hl_window=sw.schema.p_hl_window * 1.001)
        calls = []
        monkeypatch.setattr(net, "forward", lambda *args: calls.append(args) or forward(*args))
        with pytest.raises(features.ModelMismatch, match="is not the one the sw model was trained on") as caught:
            predict_flux_effects(lw, sw, generate_profiles(2, small_grid, seed=6), consts)
        assert (caught.value.component, caught.value.profiles) == ("sw", True)
        assert calls == []

    def test_model_without_training_window_cannot_be_made(self, small_grid, consts):
        # so no model checks the profiles' window by its size only
        lw, _ = self._models(small_grid, consts)
        with pytest.raises(ValueError, match="^p_hl_window is no window grid"):
            dataclasses.replace(lw.schema, p_hl_window=None)
        with pytest.raises(TypeError, match="p_hl_window"):
            features.FeatureSchema("lw")

    def test_mixed_grids_rejected(self, small_grid, consts):
        lw, sw = self._models(small_grid, consts)
        other = VerticalGrid(small_grid.p_hl * 1.001)
        profiles = list(generate_profiles(2, small_grid, seed=6)) + list(generate_profiles(1, other, seed=7))
        with pytest.raises(ValueError, match="one vertical grid; profile 2"):
            predict_flux_effects(lw, sw, profiles, consts)
