"""Framework-free multilayer perceptron for the two emulators.

Batched forward pass with ELU hidden activations and a linear output
(feature-major over blocks of ROW_CHUNK rows at inference, sample-major in
training), reverse-mode gradients for MSE + L1/L2 weight regularization, Adam,
early-stopped training, a hyperparameter grid search, and the inference
pipeline that turns profiles into extended 3D-effect targets.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .column import (
    AtmosphericProfile,
    PhysConsts,
    ProfileBatch,
    VerticalGrid,
    _extend,
)
from .features import (
    FeatureSchema,
    Normalization,
    build_input_matrices,
    build_input_matrix,  # noqa: F401  (net.build_input_matrix is a name perfbench's tracer wraps)
)
from .postproc import LW, SW, postprocess_batch

REFERENCE_HIDDEN_LAYERS = 3
REFERENCE_HIDDEN_WIDTH = {LW: 217, SW: 182}
ELU_BLOCK = 32768  # elements per ELU pass; its scratch stays in cache
ROW_CHUNK = 1024  # samples per feature-major block of the inference forward pass


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
        if self.patience >= self.max_epochs:
            raise ValueError("patience must be smaller than max_epochs")
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise ValueError("learning_rate must be > 0 and batch_size >= 1")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("regularization factors must be >= 0")


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
    for v in np.split(flat, range(ELU_BLOCK, flat.size, ELU_BLOCK)):
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


def _forward(model: MlpModel, x: np.ndarray):
    """Training forward pass, sample-major (`h @ w.T + b` per layer): the
    output, each hidden layer's ELU slope and each layer's input."""
    h, slopes, inputs = x, [], [x]
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T
        z += b
        if k == len(model.weights) - 1:
            return z, slopes, inputs
        slopes.append(elu_grad(z))
        h = elu(z, out=z)
        inputs.append(h)


def forward(model: MlpModel, batch) -> np.ndarray:
    """Deterministic, row-independent batched forward pass.

    Feature-major over blocks of ROW_CHUNK rows: for h = x[s:s+c].T, each
    layer is `w @ h` into a (width, c) buffer of this call, then `+= b[:, None]`
    and ELU in place. Each block's output is copied back, transposed, into
    one C-contiguous (n, out) matrix. A batch in another layout is read
    through a C-ordered copy, so its bits do not depend on the layout.
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
    store = [np.empty(w.shape[0] * min(ROW_CHUNK, n)) for w in model.weights]
    last = len(model.weights) - 1
    for s in range(0, n, ROW_CHUNK):
        h = x[s:s + ROW_CHUNK].T
        for k, (w, b) in enumerate(zip(model.weights, model.biases)):
            # the first width * c elements, so a short last block stays C-contiguous
            z = store[k][:w.shape[0] * h.shape[1]].reshape(w.shape[0], h.shape[1])
            np.matmul(w, h, out=z)
            z += b[:, None]
            h = z if k == last else elu(z, out=z)
        out[s:s + ROW_CHUNK] = h.T
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

    pred, slopes, inputs = _forward(model, x)
    err = pred - y
    loss = float(np.mean(err ** 2))
    for w in model.weights:
        loss += l1 * float(np.abs(w).sum()) + l2 * float((w ** 2).sum())

    n_layers = len(model.weights)
    grad_w: List[np.ndarray] = [None] * n_layers
    grad_b: List[np.ndarray] = [None] * n_layers
    g = 2.0 * err / err.size
    for k in range(n_layers - 1, -1, -1):
        grad_w[k] = g.T @ inputs[k]
        grad_b[k] = g.sum(axis=0)
        if k > 0:
            g = (g @ model.weights[k]) * slopes[k - 1]
    for k, w in enumerate(model.weights):
        grad_w[k] += l1 * np.sign(w) + 2.0 * l2 * w
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
    grad_w, grad_b = grads
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for params, gs, ms, vs in ((model.weights, grad_w, state.m_w, state.v_w),
                               (model.biases, grad_b, state.m_b, state.v_b)):
        for p, g, m, v in zip(params, gs, ms, vs):
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g ** 2
            p -= cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float


def train(model_init: MlpModel, x_train, y_train, x_val, y_val,
          cfg: TrainConfig) -> Tuple[MlpModel, List[EpochRecord]]:
    """Mini-batch Adam with early stopping on validation MSE.

    Returns a model holding the parameters of the best validation epoch;
    stops after `patience` epochs without improvement. Fully deterministic
    given cfg.seed (fixed init is the caller's, fixed shuffle order ours).
    """
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    x_val = np.asarray(x_val, dtype=float)
    y_val = np.asarray(y_val, dtype=float)
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
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = loss_and_gradients(model, x_train[idx], y_train[idx], cfg.l1, cfg.l2)
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"training diverged at epoch {epoch} (loss={loss!r}); "
                    f"lr={cfg.learning_rate}, batch_size={cfg.batch_size}")
            adam_step(model, grads, state, cfg)
        train_loss = mse(forward(model, x_train), y_train)
        val_loss = mse(forward(model, x_val), y_val)
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss, val_loss=val_loss))
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
            if not getattr(self, name):
                raise ValueError(f"grid axis {name} must be non-empty")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")

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
    errors: List[str]

    @property
    def mean_mae(self) -> float:
        return float(np.mean(self.val_maes)) if self.val_maes else math.inf


@dataclass
class GridSearchReport:
    rows: List[GridSearchRow]
    selected: int  # index into rows


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
    rows: List[GridSearchRow] = []
    for cfg_idx, (variant, n_layers, mult, reg) in enumerate(spec.configurations()):
        if variant not in datasets:
            raise ValueError(f"no dataset supplied for input variant {variant}")
        data = datasets[variant]
        n_in = data.x_train.shape[1]
        n_out = data.y_train.shape[1]
        width = max(1, int(round(mult * n_in)))
        row = GridSearchRow(input_variant=variant, n_inputs=n_in, n_layers=n_layers,
                            multiplier=mult, width=width, reg=reg, val_maes=[], errors=[])
        for rep in range(spec.repeats):
            seed = run_seed(base_cfg.seed, cfg_idx, rep)
            cfg = replace(base_cfg, l1=reg, l2=reg, seed=seed)
            sizes = [n_in] + [width] * n_layers + [n_out]
            try:
                model, _ = train(init_model(sizes, seed), data.x_train, data.y_train,
                                 data.x_val, data.y_val, cfg)
                pred = data.norm_out.invert(forward(model, data.x_val))
                truth = data.norm_out.invert(data.y_val)
                row.val_maes.append(float(np.mean(np.abs(pred - truth))))
            except (FloatingPointError, ValueError) as exc:
                row.errors.append(str(exc))
        rows.append(row)

    best_mae = min(row.mean_mae for row in rows)
    if not math.isfinite(best_mae):
        raise ValueError("every grid-search configuration failed")
    candidates = [i for i, row in enumerate(rows)
                  if row.mean_mae <= best_mae * (1.0 + simplicity_tolerance)]
    selected = min(candidates, key=lambda i: (rows[i].n_inputs, rows[i].n_layers,
                                              rows[i].width, rows[i].mean_mae))
    return GridSearchReport(rows=rows, selected=selected)


# ---------------------------------------------------------------------------
# Inference pipeline


def _check_model(model: MlpModel, component: str, grid: VerticalGrid, consts: PhysConsts) -> None:
    if model.schema is None or model.norm_in is None or model.norm_out is None:
        raise ValueError("model lacks schema or normalization statistics")
    if model.schema.component != component:
        raise ValueError(f"expected a {component!r} model, got {model.schema.component!r}")
    if model.schema.n_fl_window != grid.n_fl_window(consts.p_trunc):
        raise ValueError("model schema window does not match the profile grid")
    window = model.schema.p_hl_window
    if window is not None and not np.array_equal(grid.p_hl[-window.size:], window):
        raise ValueError("the profile grid's window pressures differ from those the model was trained on")


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
    _check_model(model_lw, LW, grid, consts)
    _check_model(model_sw, SW, grid, consts)
    i0 = grid.window_start(consts.p_trunc)
    effects = {}
    models = (model_lw, model_sw)
    for model, x in zip(models, build_input_matrices(profiles, [m.schema for m in models], consts)):
        window = _window_effects(model, x, profiles.alpha, profiles.mu0, grid, consts)
        effects[model.schema.component] = _extend(window, i0)
    return effects


def make_staged_runner(model_lw: MlpModel, model_sw: MlpModel,
                       grid: VerticalGrid, consts: PhysConsts):
    """Benchmark runner over pre-built raw input matrices.

    The returned callable takes (x_lw, x_sw, alphas, mu0), runs the
    inference pipeline and returns wall-clock seconds per stage:
    normalize, inference, denormalize, postprocess.
    """
    _check_model(model_lw, LW, grid, consts)
    _check_model(model_sw, SW, grid, consts)

    def runner(batch):
        x_lw, x_sw, alphas, mu0 = batch
        seconds = dict.fromkeys(STAGES, 0.0)
        for model, x in ((model_lw, x_lw), (model_sw, x_sw)):
            clock = [time.perf_counter()]
            try:
                _window_effects(model, x, alphas, mu0, grid, consts, clock)
            except Exception as exc:
                raise RuntimeError(f"benchmark stage '{STAGES[len(clock) - 1]}' failed: {exc}") from exc
            for stage, start, end in zip(STAGES, clock, clock[1:]):
                seconds[stage] += end - start
        return seconds

    return runner
