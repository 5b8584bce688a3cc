# Importing the CLI pins the BLAS to one thread before numpy first loads,
# as the `cre3d` command runs: the session then runs one OS thread, so io
# forks its parts and net starts its row workers here too.
import cre3d.cli  # noqa: F401, I001  (first: numpy must not load before it)

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from cre3d.augment import make_reference_grid
from cre3d.column import AtmosphericProfile, PhysConsts, VerticalGrid


@pytest.fixture(scope="session")
def consts():
    return PhysConsts()


@pytest.fixture(scope="session")
def ref_grid():
    return make_reference_grid()


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    threads = []

    class Counted(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()
    monkeypatch.setattr(threading, "Thread", Counted)
    return threads


def os_threads() -> int:
    """How many OS threads this process lists."""
    return len(os.listdir("/proc/self/task"))


def settle(timeout: float = 2.0) -> int:
    """Wait until this process lists one OS thread, or `timeout` seconds: a
    joined thread's OS thread can stay listed for a few ms. The count."""
    end = time.monotonic() + timeout
    while os_threads() > 1 and time.monotonic() < end:
        time.sleep(0.001)
    return os_threads()


def run_python(code: str, env=None, *args) -> None:
    """Run `code` with `args` in a new Python that imports cre3d from this
    checkout and sets the BLAS thread variables of `env` and no others;
    fails on its error."""
    full = {var: value for var, value in os.environ.items() if not var.endswith("_THREADS")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(cre3d.cli.__file__)))
    full.update(env or {}, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=full,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.fixture(autouse=True)
def _one_os_thread():
    """Each test starts once the threads of the one before have left
    `/proc/self/task`, so its forks and row workers do not depend on them."""
    settle(0.1)


@pytest.fixture
def small_grid():
    # 10 full levels, 4 of them above the 50 hPa window boundary.
    return VerticalGrid(np.array([100.0, 500.0, 1000.0, 2000.0, 4000.0,
                                  6500.0, 9000.0, 20000.0, 50000.0, 80000.0, 101325.0]))


def make_profile(grid, seed=0, mu0=0.6, alpha=0.2):
    rng = np.random.default_rng(seed)
    n = grid.n_fl
    q_l = np.where(rng.random(n) < 0.4, rng.uniform(1e-5, 4e-4, n), 0.0)
    q_i = np.where(rng.random(n) < 0.3, rng.uniform(1e-5, 2e-4, n), 0.0)
    return AtmosphericProfile(
        grid=grid,
        T=rng.uniform(210.0, 290.0, n),
        f_c=rng.uniform(0.0, 1.0, n),
        q_l=q_l,
        q_i=q_i,
        r_l=np.full(n, 1e-5),
        r_i=np.full(n, 4e-5),
        T_s=290.0,
        alpha=alpha,
        mu0=mu0,
        q=rng.uniform(0.0, 0.01, n),
        pid=f"t{seed}",
    )


@pytest.fixture
def small_profile(small_grid):
    return make_profile(small_grid, seed=1)
