"""Fixed parameters of the benchmark, shared by run.py and worker.py.

Changing any value here changes what the benchmark measures; compare two
commits only with identical values.
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("predict-files", "couple", "kernel", "synth-train")

# BLAS and OpenMP pools are pinned to one thread in every process the
# benchmark starts, whatever the machine's core count.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = "1"

# Reference models: predict-files, couple and kernel run them, and every
# workload scores them. They are trained once per checkout by `cre3d synth` +
# `cre3d train` from a fixed seed, which does not depend on --seed, and cached
# under WORK.
MODEL_SEED = 20210322
MODEL_PROFILES = 2000
MODEL_EPOCHS = 30
MODEL_BATCH = 64

PREDICT_PROFILES = 2000   # profiles per `cre3d predict` call
COUPLE_POOL = 4096        # columns a host model hands over per pass
COUPLE_CHUNK = 32         # columns per predict_flux_effects call
KERNEL_UNIQUE = 4000      # distinct columns behind the kernel matrices
KERNEL_TILE = 5           # kernel call size = KERNEL_UNIQUE * KERNEL_TILE
CHUNK_CHECK_COLUMNS = 256 # kernel columns re-run chunked for the chunking check

SYNTH_PROFILES = 600      # profiles per `cre3d synth` call
HELDOUT_PROFILES = 2000   # columns synth-train scores the reference models on
TRAIN_EPOCHS = 10         # epochs per `cre3d train` call (early stop disabled)
TRAIN_BATCH = 64
TRAIN_FRACTION = 0.6      # the CLI's fixed 60/20/20 split

SETUP_REPEATS = 5         # fresh processes timed per run for setup_s

# The development machine's speed swings by up to 2x within a minute (other
# tenants), in phases longer than a run. Times behind the gated metrics are therefore
# rescaled to reference seconds: t * CALIBRATION_REF_S / c, where c is the
# time of a fixed calibration loop (worker.calibrate) run next to them.
# CALIBRATION_REF_S is the loop's typical time on the development machine.
CALIBRATION_REF_S = 0.020

# Per-workload offsets keep the inputs of different workloads distinct for
# one --seed.
SEED_OFFSET = {"predict-files": 0, "couple": 1, "kernel": 2, "synth-train": 3,
               "synth-train-heldout": 4}


def workload_seed(workload: str, seed: int) -> int:
    return seed * 16 + SEED_OFFSET[workload]


def pin_blas_threads() -> None:
    """Call before numpy is imported; child processes inherit the setting."""
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
