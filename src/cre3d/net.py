"""Framework-free multilayer perceptron for the two emulators.

Batched forward pass with ELU hidden activations and a linear output
(feature-major over blocks of ROW_CHUNK rows at inference, the blocks on one
thread per CPU while the process runs no other thread; sample-major in
training), reverse-mode gradients for MSE + L1/L2 weight regularization, Adam,
early-stopped training, a hyperparameter grid search, and the inference
pipeline that turns profiles into extended 3D-effect targets.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import rowblocks
from .column import (
    AtmosphericProfile,
    PhysConsts,
    ProfileBatch,
    VerticalGrid,
    _extend,
)
from .features import FeatureSchema, ModelMismatch, Normalization, build_input_matrix
from .postproc import LW, SW, postprocess_batch

REFERENCE_HIDDEN_LAYERS = 3
REFERENCE_HIDDEN_WIDTH = {LW: 217, SW: 182}
ELU_BLOCK = 32768  # elements per in-place pass of ELU and of the L1/L2 gradient
TILE = 16  # inference GEMMs run on a multiple of this many columns (see `forward`)


@dataclass(eq=False)
class MlpModel:
    """Dense network: weights[k] is (out, in), biases[k] is (out,).

    Hidden layers use ELU; the output layer is linear. Normalization
    statistics and the feature schema travel with the parameters so a
    model file is self-describing.
    """

    weights: List[np.ndarray]
    biases: List[np.ndarray]
    schema: Optional[FeatureSchema] = None
    norm_in: Optional[Normalization] = None
    norm_out: Optional[Normalization] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("need matching, non-empty weight and bias lists")
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            if w.ndim != 2 or b.ndim != 1 or b.size != w.shape[0]:
                raise ValueError(f"layer {k}: weight must be (out, in) and bias (out,)")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {k}: parameters contain non-finite values")
            if k > 0 and w.shape[1] != self.weights[k - 1].shape[0]:
                raise ValueError(f"layer {k}: input width {w.shape[1]} does not chain")
            self.weights[k] = w
            self.biases[k] = b

    @property
    def input_len(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_len(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def layer_sizes(self) -> List[int]:
        return [self.input_len] + [w.shape[0] for w in self.weights]

    def copy_params(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        return [w.copy() for w in self.weights], [b.copy() for b in self.biases]


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 1000
    patience: int = 50
    l1: float = 1e-5
    l2: float = 1e-5
    learning_rate: float = 1e-3
    batch_size: int = 256
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs {self.max_epochs} is below 1")
        if self.patience < 0:
            raise ValueError(f"patience {self.patience} is below 0")
        if self.patience >= self.max_epochs:
            raise ValueError("patience must be smaller than max_epochs")
        # `not x > 0` and `not x >= 0` reject NaN as well
        if not self.learning_rate > 0 or self.batch_size < 1:
            raise ValueError(f"learning_rate must be > 0 and batch_size >= 1, got "
                             f"{self.learning_rate!r} and {self.batch_size!r}")
        if math.isinf(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate!r}")
        if not (self.l1 >= 0 and self.l2 >= 0):
            raise ValueError(f"regularization factors must be >= 0, got l1={self.l1!r}, l2={self.l2!r}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError(f"Adam's beta1 and beta2 must lie in [0, 1), got {self.beta1!r} and {self.beta2!r}")
        if not 0 < self.eps < math.inf:
            raise ValueError(f"Adam's eps must be finite and > 0, got {self.eps!r}")


def elu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """max(x, 0) + expm1(min(x, 0)): the bits of where(x > 0, x, expm1(min(x, 0))),
    +-0.0 included, over `out` (C-contiguous; may be `x`) block by block."""
    if out is None:
        out = np.array(x, dtype=float, order="C")
    elif not out.flags.c_contiguous:
        raise ValueError("elu: out must be C-contiguous")
    elif out is not x:
        np.copyto(out, x)
    flat = out.reshape(-1)
    scratch = np.empty(min(ELU_BLOCK, flat.size))
    for s in range(0, flat.size, ELU_BLOCK):
        v = flat[s:s + ELU_BLOCK]
        t = scratch[:v.size]
        np.minimum(v, 0.0, out=t)
        np.expm1(t, out=t)
        np.maximum(v, 0.0, out=v)
        v += t
    return out


def elu_grad(x: np.ndarray) -> np.ndarray:
    g = np.minimum(x, 0.0)  # exp(0.0) is exactly the 1.0 of x > 0
    return np.exp(g, out=g)


def init_model(layer_sizes: Sequence[int], seed: int,
               schema: Optional[FeatureSchema] = None) -> MlpModel:
    """He-uniform weights, zero biases, keyed by seed."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    if min(layer_sizes) < 1:
        raise ValueError(f"layer size {min(layer_sizes)} is below 1 in {list(layer_sizes)}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases, schema=schema, meta={"seed": seed})


def reference_model(schema: FeatureSchema, seed: int) -> MlpModel:
    """The chosen architecture: 3 hidden layers, 217 (LW) / 182 (SW) units."""
    width = REFERENCE_HIDDEN_WIDTH[schema.component]
    sizes = [schema.input_len] + [width] * REFERENCE_HIDDEN_LAYERS + [schema.output_len]
    return init_model(sizes, seed, schema=schema)


def _forward(weights, biases, x: np.ndarray):
    """Training forward pass, sample-major (`h @ w.T + b` per layer): the
    output, each hidden layer's ELU slope and each layer's input."""
    h, slopes, inputs = x, [], [x]
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = h @ w.T
        z += b
        if k == len(weights) - 1:
            return z, slopes, inputs
        slopes.append(elu_grad(z))
        h = elu(z, out=z)
        inputs.append(h)


def _forward_rows(model: MlpModel, x: np.ndarray, out: np.ndarray, rows: slice,
                  z0: np.ndarray, z1: np.ndarray) -> None:
    """`forward`'s block: run the rows of one block through the buffers z0
    and z1 in turn, as the first of `TILE`-rounded columns, and write them
    into their rows of `out`."""
    c = rows.stop - rows.start
    cols = -(-c // TILE) * TILE
    h = x[rows]
    if cols != c:  # zero rows after the block's, in the layout of x's rows
        h = np.concatenate([h, np.zeros((cols - c, h.shape[1]))])
    h = h.T
    last = len(model.weights) - 1
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        # the first width * cols elements, so a short last block stays C-contiguous
        z = (z0, z1)[k % 2][:w.shape[0] * cols].reshape(w.shape[0], cols)
        np.matmul(w, h, out=z)
        z += b[:, None]
        h = z if k == last else elu(z, out=z)
    out[rows] = h[:, :c].T


def forward(model: MlpModel, batch) -> np.ndarray:
    """Deterministic batched forward pass.

    Feature-major over blocks of ROW_CHUNK rows: for h = x[s:s+c].T, each
    layer is `w @ h` into a (width, c') buffer, then `+= b[:, None]` and ELU
    in place, the layers alternating between two buffers of the largest
    width. c' is c rounded up to a multiple of TILE: a block of another size
    runs with zero columns after its rows, and only its own c columns are
    copied back, transposed, into their rows of one C-contiguous (n, out)
    matrix. A batch in another layout is read through a C-ordered copy, so
    its bits do not depend on the layout.

    `rowblocks.run_blocks` cuts the rows into these blocks, the same at
    every worker count, and runs them on its workers, each with its own two
    buffers; every worker is joined before this returns or raises the first
    exception a worker raised. A block's operations do not depend on the
    worker that runs it, so the bits do not depend on the worker count.

    With the BLAS on one thread, as every `cre3d` command runs it, a row's
    bits depend on that row alone: not on its block's size, its place in
    the block or the other rows. The GEMM takes the columns of a block in
    tiles, and OpenBLAS runs a partial last tile through another kernel
    (the last c mod 8 columns), or a lone column through GEMV; with every
    block a whole number of TILE columns, each real column goes through the
    same kernel at any call size. Tests check this bit for bit for calls of
    1 to 32 rows and permuted batches. A library caller whose BLAS runs
    several threads gets bits that may also depend on that thread count.
    """
    x = np.asarray(batch, dtype=float, order="C")
    if x.ndim != 2:
        raise ValueError("batch must be a 2-D matrix (rows are samples)")
    if x.shape[1] != model.input_len:
        raise ValueError(f"batch width {x.shape[1]} != model input width {model.input_len}")
    if not np.all(np.isfinite(x)):
        raise ValueError("batch contains non-finite values")
    n = x.shape[0]
    out = np.empty((n, model.output_len))
    size = max(w.shape[0] for w in model.weights) * -(-min(rowblocks.ROW_CHUNK, n) // TILE) * TILE
    rowblocks.run_blocks(n, functools.partial(_forward_rows, model, x, out),
                         lambda: (np.empty(size), np.empty(size)))
    return out


def mse(prediction: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((prediction - target) ** 2))


def loss_and_gradients(model: MlpModel, batch_x, batch_y, l1: float, l2: float):
    """Objective MSE + l1*sum|W| + l2*sum(W^2) (weights only) and its
    exact gradients with respect to all parameters."""
    x = np.asarray(batch_x, dtype=float)
    y = np.asarray(batch_y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("batch must be a non-empty 2-D matrix")
    if y.shape != (x.shape[0], model.output_len):
        raise ValueError("target shape does not match (batch, output_len)")

    # A weight in another layout is read through a C-ordered copy: the GEMMs
    # and sums, and so the bits, do not depend on the layout.
    weights = [np.ascontiguousarray(w) for w in model.weights]
    pred, slopes, inputs = _forward(weights, model.biases, x)
    err = pred - y
    loss = float(np.mean(err ** 2))
    for w in weights:
        loss += l1 * float(np.abs(w).sum()) + l2 * float((w ** 2).sum())

    n_layers = len(weights)
    grad_w: List[np.ndarray] = [None] * n_layers
    grad_b: List[np.ndarray] = [None] * n_layers
    g = err  # 2 * err / err.size, in place
    g *= 2.0
    g /= err.size
    for k in range(n_layers - 1, -1, -1):
        grad_w[k] = g.T @ inputs[k]
        grad_b[k] = g.sum(axis=0)
        if k > 0:
            g = g @ weights[k]
            g *= slopes[k - 1]
    # grad_w += l1 * sign(w) + (2 * l2) * w, in place over flat ELU_BLOCK-element
    # slices with two scratch buffers, as in `elu`. grad_w[k] is a matmul output,
    # C-contiguous, so gw.reshape(-1) is a view: a copy would drop the term.
    size = min(ELU_BLOCK, max(w.size for w in weights))
    t_flat, u_flat = np.empty(size), np.empty(size)
    for w, gw in zip(weights, grad_w):
        w, gw = w.reshape(-1), gw.reshape(-1)
        for s in range(0, w.size, ELU_BLOCK):
            v, gv = w[s:s + ELU_BLOCK], gw[s:s + ELU_BLOCK]
            t, u = t_flat[:v.size], u_flat[:v.size]
            np.sign(v, out=t)
            t *= l1
            np.multiply(v, 2.0 * l2, out=u)
            t += u
            gv += t
    return loss, (grad_w, grad_b)


class AdamState:
    """First/second moment accumulators for one parameter set."""

    def __init__(self, model: MlpModel):
        self.m_w = [np.zeros_like(w) for w in model.weights]
        self.v_w = [np.zeros_like(w) for w in model.weights]
        self.m_b = [np.zeros_like(b) for b in model.biases]
        self.v_b = [np.zeros_like(b) for b in model.biases]
        self.t = 0


def adam_step(model: MlpModel, grads, state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update of every parameter, in place, array by array:
    m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * g**2 and
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), each operation in this order."""
    grad_w, grad_b = grads
    state.t += 1
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(model.weights + model.biases, grad_w + grad_b,
                          state.m_w + state.m_b, state.v_w + state.v_b):
        m *= b1
        m += g * (1.0 - b1)
        v *= b2
        v += np.square(g) * (1.0 - b2)
        p -= m / bc1 * cfg.learning_rate / (np.sqrt(v / bc2) + cfg.eps)


@dataclass
class EpochRecord:
    """One epoch of `train`.

    train_loss is the row-weighted mean of the epoch's minibatch objectives
    (MSE plus the L1/L2 terms, each at the parameters before its step), as
    `loss_and_gradients` returns them: sum(loss * rows) over the minibatches,
    in order, divided by the training rows. val_loss is the validation MSE
    after the epoch's last step.
    """

    epoch: int
    train_loss: float
    val_loss: float


def train(model_init: MlpModel, x_train, y_train, x_val, y_val,
          cfg: TrainConfig) -> Tuple[MlpModel, List[EpochRecord]]:
    """Mini-batch Adam with early stopping on validation MSE.

    Returns a model holding the parameters of the best validation epoch;
    stops after `patience` epochs without improvement. Fully deterministic
    given cfg.seed (fixed init is the caller's, fixed shuffle order ours).
    The x arrays must be (rows, input_len) and the y arrays (rows,
    output_len), with as many y rows as x rows in each split, and finite.
    """
    widths = {"x": ("input", model_init.input_len), "y": ("output", model_init.output_len)}
    arrays = []
    named = (("x_train", x_train), ("y_train", y_train), ("x_val", x_val), ("y_val", y_val))
    for name, a in named:
        a = np.asarray(a, dtype=float)
        side, width = widths[name[0]]
        if a.ndim != 2:
            raise ValueError(f"{name} must be a 2-D matrix (rows are samples), got shape {a.shape}")
        if a.shape[1] != width:
            raise ValueError(f"{name} has {a.shape[1]} columns, the model's {side} width is {width}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} contains non-finite values")
        arrays.append(a)
    x_train, y_train, x_val, y_val = arrays
    for split, x, y in (("train", x_train, y_train), ("val", x_val, y_val)):
        if len(y) != len(x):
            raise ValueError(f"y_{split} has {len(y)} rows, x_{split} has {len(x)}")
    if x_train.shape[0] == 0 or x_val.shape[0] == 0:
        raise ValueError("training and validation sets must be non-empty")

    weights, biases = model_init.copy_params()
    model = MlpModel(weights=weights, biases=biases, schema=model_init.schema,
                     norm_in=model_init.norm_in, norm_out=model_init.norm_out,
                     meta=dict(model_init.meta))
    state = AdamState(model)
    rng = np.random.default_rng(cfg.seed)
    n = x_train.shape[0]

    best_val = math.inf
    best_params = model.copy_params()
    best_epoch = 0
    wait = 0
    history: List[EpochRecord] = []

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        objective = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = loss_and_gradients(model, x_train[idx], y_train[idx], cfg.l1, cfg.l2)
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"training diverged at epoch {epoch} (loss={loss!r}); "
                    f"lr={cfg.learning_rate}, batch_size={cfg.batch_size}")
            adam_step(model, grads, state, cfg)
            objective += loss * len(idx)
        val_loss = mse(forward(model, x_val), y_val)
        history.append(EpochRecord(epoch=epoch, train_loss=objective / n, val_loss=val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_params = model.copy_params()
            best_epoch = epoch
            wait = 0
        else:
            wait += 1
            if wait > cfg.patience:
                break

    best_w, best_b = best_params
    meta = dict(model.meta)
    meta.update({
        "seed": cfg.seed,
        "epochs_run": history[-1].epoch if history else 0,
        "best_epoch": best_epoch,
        "val_loss": best_val,
    })
    trained = MlpModel(weights=best_w, biases=best_b, schema=model.schema,
                       norm_in=model.norm_in, norm_out=model.norm_out, meta=meta)
    return trained, history


# ---------------------------------------------------------------------------
# Grid search


@dataclass(frozen=True)
class GridSearchSpec:
    """Cartesian axes of the hyperparameter search."""

    input_variants: Tuple[int, ...] = (6,)
    hidden_layer_counts: Tuple[int, ...] = (1, 2, 3, 4, 5)
    width_multipliers: Tuple[float, ...] = (0.5, 1.0, 2.0)
    reg_factors: Tuple[float, ...] = (1e-6, 1e-5, 1e-4)
    repeats: int = 10

    def __post_init__(self) -> None:
        for name in ("input_variants", "hidden_layer_counts", "width_multipliers", "reg_factors"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"grid axis {name} must be non-empty")
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:  # the configuration would run twice, under two seeds
                raise ValueError(f"grid axis {name} repeats the value {repeated[0]}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        # `not ok(v)`, so that NaN fails too
        for what, values, ok, rule in (
                ("hidden layer count", self.hidden_layer_counts, lambda v: v >= 0, "is below 0"),
                ("width multiplier", self.width_multipliers, lambda v: v > 0, "is not above 0"),
                ("regularization factor", self.reg_factors, lambda v: v >= 0, "is below 0")):
            bad = [v for v in values if not ok(v)]
            if bad:
                raise ValueError(f"{what} {bad[0]} {rule if bad[0] == bad[0] else 'is not a number'}")

    def configurations(self):
        return list(itertools.product(self.input_variants, self.hidden_layer_counts,
                                      self.width_multipliers, self.reg_factors))


@dataclass
class GridDataset:
    """Normalized train/validation matrices for one input variant; `norm_out`
    puts the selection metric in physical units."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    norm_out: Normalization


@dataclass
class GridSearchRow:
    input_variant: int
    n_inputs: int
    n_layers: int
    multiplier: float
    width: int
    reg: float
    val_maes: List[float]
    mean_mae: float  # of val_maes; inf where every run failed
    errors: List[str]


@dataclass
class GridSearchReport:  # fields in the order of the report file (`dataclasses.asdict`)
    selected: int  # index into rows
    rows: List[GridSearchRow]


def run_seed(base_seed: int, config_index: int, repeat: int) -> int:
    return base_seed * 1_000_003 + config_index * 1_009 + repeat


def grid_search(spec: GridSearchSpec, datasets: Dict[int, GridDataset],
                base_cfg: TrainConfig = TrainConfig(),
                simplicity_tolerance: float = 0.0) -> GridSearchReport:
    """Train every configuration `repeats` times and pick the winner.

    Selection: among configurations whose mean validation MAE (physical
    units) is within `simplicity_tolerance` (relative) of the lowest, the
    simplest wins -- fewer inputs, then fewer layers, then fewer neurons,
    then lower MAE. Per-run failures are recorded, not fatal.
    """
    if not simplicity_tolerance >= 0:
        raise ValueError(f"simplicity tolerance {simplicity_tolerance} is not >= 0")
    for variant in spec.input_variants:
        if variant not in datasets:
            raise ValueError(f"no dataset supplied for input variant {variant}")
    rows: List[GridSearchRow] = []
    for cfg_idx, (variant, n_layers, mult, reg) in enumerate(spec.configurations()):
        data = datasets[variant]
        n_in = data.x_train.shape[1]
        n_out = data.y_train.shape[1]
        width = max(1, int(round(mult * n_in)))
        val_maes, errors = [], []
        for rep in range(spec.repeats):
            seed = run_seed(base_cfg.seed, cfg_idx, rep)
            cfg = replace(base_cfg, l1=reg, l2=reg, seed=seed)
            sizes = [n_in] + [width] * n_layers + [n_out]
            try:
                model, _ = train(init_model(sizes, seed), data.x_train, data.y_train,
                                 data.x_val, data.y_val, cfg)
                pred = data.norm_out.invert(forward(model, data.x_val))
                truth = data.norm_out.invert(data.y_val)
                val_maes.append(float(np.mean(np.abs(pred - truth))))
            except (FloatingPointError, ValueError) as exc:
                errors.append(str(exc))
        rows.append(GridSearchRow(input_variant=variant, n_inputs=n_in, n_layers=n_layers,
                                  multiplier=mult, width=width, reg=reg, val_maes=val_maes,
                                  mean_mae=float(np.mean(val_maes)) if val_maes else math.inf,
                                  errors=errors))

    best_mae = min(row.mean_mae for row in rows)
    if not math.isfinite(best_mae):
        raise ValueError("every grid-search configuration failed")
    candidates = [i for i, row in enumerate(rows)
                  if row.mean_mae <= best_mae * (1.0 + simplicity_tolerance)]
    selected = min(candidates, key=lambda i: (rows[i].n_inputs, rows[i].n_layers,
                                              rows[i].width, rows[i].mean_mae))
    return GridSearchReport(selected=selected, rows=rows)


# ---------------------------------------------------------------------------
# Inference pipeline


def _check_model(model: MlpModel, component: str) -> None:
    """`model` must be a fitted `component` model; a ModelMismatch names `component`."""
    if model.schema is None or model.norm_in is None or model.norm_out is None:
        raise ModelMismatch(component, "model lacks schema or normalization statistics")
    if model.schema.component != component:
        raise ModelMismatch(component, f"expected a {component!r} model, got {model.schema.component!r}")


STAGES = ("normalize", "inference", "denormalize", "postprocess")


def _window_effects(model: MlpModel, x, alpha, mu0, grid: VerticalGrid, consts: PhysConsts,
                    clock: Optional[list] = None) -> Dict[str, np.ndarray]:
    """Raw input rows of one component to energy-consistent window flux
    effects: normalize, forward, denormalize, zero the shortwave at night
    (mu0 <= 0) and postprocess. Returns a dict of (n, m) matrices. A
    `clock` list receives a perf_counter reading at the end of each of STAGES."""
    clock = [] if clock is None else clock
    component = model.schema.component
    y = model.norm_in.apply(x)
    clock.append(time.perf_counter())
    y = forward(model, y)
    clock.append(time.perf_counter())
    y = model.norm_out.invert(y)
    clock.append(time.perf_counter())
    s = model.schema.output_slices()
    if component == SW:
        y[mu0 <= 0] = 0.0
    up, down, heat = postprocess_batch(component, y[:, s["scalar"]], y[:, s["heat"]], grid, consts,
                                       alpha=alpha if component == SW else None)
    out = {"up": up, "down": down, "heat": heat}
    if component == SW:
        out["direct_down"] = y[:, s["direct_down"]]
    clock.append(time.perf_counter())
    return out


def predict_flux_effects(model_lw: MlpModel, model_sw: MlpModel,
                         profiles: Union[ProfileBatch, Sequence[AtmosphericProfile]],
                         consts: PhysConsts):
    """Full pipeline: inference, energy-consistent postprocessing and
    extension to the full grid, for a ProfileBatch or a sequence of
    profiles on one grid. Shortwave effects are zero at night (mu0 <= 0);
    above the window the down and heating effects are zero and the up
    effect is held at its window-top value. Returns per-profile matrices
    packed as a dict of (n, n_hl) / (n, n_fl) arrays per component."""
    profiles = ProfileBatch.from_profiles(profiles)
    grid = profiles.grid
    _check_model(model_lw, LW)
    _check_model(model_sw, SW)
    i0 = grid.window_start(consts.p_trunc)
    effects = {}
    inputs = build_input_matrix(profiles, [model_lw.schema, model_sw.schema], consts)
    for model in (model_lw, model_sw):
        # popped, so LW's input rows are freed before SW runs
        window = _window_effects(model, inputs.pop(0), profiles.alpha, profiles.mu0, grid, consts)
        effects[model.schema.component] = _extend(window, i0)
    return effects


def stage_seconds(model_lw: MlpModel, model_sw: MlpModel, x_lw, x_sw, alpha, mu0,
                  grid: VerticalGrid, consts: PhysConsts) -> Dict[str, float]:
    """Run the window pipeline of both components on raw input rows (from
    `build_input_matrix` with both schemas) and return the wall-clock seconds
    of each of STAGES, summed over the two, from `_window_effects`'s clock."""
    seconds = dict.fromkeys(STAGES, 0.0)
    for component, model, x in ((LW, model_lw, x_lw), (SW, model_sw, x_sw)):
        _check_model(model, component)
        clock = [time.perf_counter()]
        _window_effects(model, x, alpha, mu0, grid, consts, clock)
        for stage, start, end in zip(STAGES, clock, clock[1:]):
            seconds[stage] += end - start
    return seconds
