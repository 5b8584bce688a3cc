"""Row blocks on one thread per CPU.

Every row-wise stage of inference (normalize, the forward pass, denormalize,
postprocess) runs its rows through `run_blocks`, in blocks of ROW_CHUNK rows
on `forward_workers(n)` workers: the calling thread, and one started thread
per further worker. This is the one place in cre3d that cuts rows into
blocks and the one place that starts a thread. It imports nothing from
cre3d, so every module may import it. `io.map_profiles` (`cre3d predict`)
maps its records in blocks of ROW_CHUNK, so each of its inference calls is
one block, which runs on the calling thread.
"""

from __future__ import annotations

import collections
import os
import threading
import time
from typing import Callable

import numpy as np

ROW_CHUNK = 1024  # rows per block of every inference stage, at any worker count
LISTED_BOUND = 0.005  # seconds `run_blocks` waits for a joined thread to leave /proc/self/task


def usable_cpus() -> int:
    """How many workers this process may run at once: one per CPU in its
    affinity mask while it runs one OS thread (`/proc/self/task`). One
    where either is unknown (outside Linux), or while other OS threads run,
    whoever started them (a BLAS thread pool, a host model, a worker that
    is still exiting): they need CPU time of their own, and a fork copies
    only the calling thread, so a lock another thread holds would stay held
    in the child."""
    try:
        alone = len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc/self/task: not Linux
        return 1
    return len(os.sched_getaffinity(0)) if alone else 1


def forward_workers(n_rows: int) -> int:
    """How many threads `run_blocks` runs `n_rows` rows on: one per usable
    CPU (`usable_cpus`), each with at least two ROW_CHUNK blocks."""
    most = -(-n_rows // ROW_CHUNK) // 2
    if most < 2:  # the cheapest test first: a host model's small blocks never read /proc
        return 1
    return min(usable_cpus(), most)


def _wait_until_gone(threads) -> None:
    """Wait until no joined thread of `threads` is listed in
    /proc/self/task, or LISTED_BOUND seconds: its OS thread can outlive
    `Thread.join` for a few ms, and while it is listed `usable_cpus`, and
    so the next stage and every fork, would find this process not alone."""
    listed = [f"/proc/self/task/{t.native_id}" for t in threads]
    end = time.monotonic() + LISTED_BOUND
    while any(os.path.exists(p) for p in listed) and time.monotonic() < end:
        time.sleep(0.0001)


def run_blocks(n_rows: int, block: Callable[..., None], scratch: Callable[[], tuple] = tuple) -> None:
    """Run `block(rows, *scratch())` once per ROW_CHUNK block of the rows
    0..n_rows-1, where `rows` is the slice of one block (the last may be
    shorter) and `block` writes only the outputs of its rows.

    `block` gets the same slices at every worker count, so a row's block,
    and with it its bits, does not depend on the worker count. With one
    worker (`forward_workers(n_rows)`), the calling thread runs the blocks in
    order with one `scratch()` and starts no thread. Otherwise each worker
    calls `scratch()` once and then takes blocks in turn from a shared
    queue. Each started thread runs under the caller's numpy error state
    (`np.geterr`), which numpy keeps per thread. Every started thread is
    joined, and waited for until it has left /proc/self/task (at most
    LISTED_BOUND seconds), before this returns or raises the first
    exception a worker raised.
    """
    k = forward_workers(n_rows)
    if k == 1:
        state = scratch()
        for s in range(0, n_rows, ROW_CHUNK):
            block(slice(s, min(s + ROW_CHUNK, n_rows)), *state)
        return
    # each worker stops at the first None it pops, after every block is taken
    starts = collections.deque([*range(0, n_rows, ROW_CHUNK), *[None] * k])
    errstate = np.geterr()
    errors: list = []

    def worker() -> None:
        try:
            with np.errstate(**errstate):
                state = scratch()
                for s in iter(starts.popleft, None):  # a deque pops atomically
                    block(slice(s, min(s + ROW_CHUNK, n_rows)), *state)
        except BaseException as exc:  # noqa: BLE001 - re-raised below, after every join
            errors.append(exc)

    started = []
    try:
        for _ in range(k - 1):
            t = threading.Thread(target=worker)
            t.start()
            started.append(t)
        worker()
    finally:
        for t in started:
            t.join()
        _wait_until_gone(started)
    if errors:
        raise errors[0]
