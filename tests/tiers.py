"""What tier tests share: the one equality of results, and a broker's workers."""

from __future__ import annotations

import dataclasses
import multiprocessing as mp

import numpy as np

from repro.distributed import run_worker
from repro.resilience import RetryPolicy

_CTX = mp.get_context("fork")

#: Transport retries for a run under a fault plan or against a dead
#: broker: tight, so injected refusals and drops cost milliseconds.
FAST_RETRY = RetryPolicy(attempts=6, base_delay_s=0.02, max_delay_s=0.1)


def assert_same_result(got, want) -> None:
    """Every ``SpreadResult`` field but ``meta`` equal, arrays in dtype and shape."""
    for field in dataclasses.fields(want):
        if field.name == "meta":
            continue
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), field.name
            assert a.dtype == b.dtype, (field.name, a.dtype, b.dtype)
            assert a.shape == b.shape, (field.name, a.shape, b.shape)
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, (field.name, a, b)


def spawn_workers(address: str, plans=(None, None), **kwargs) -> list:
    """One forked worker process per fault plan (None: a healthy one)."""
    procs = [
        _CTX.Process(target=run_worker, args=(address,), daemon=True,
                     kwargs={"poll_interval": 0.05, "faults": plan, **kwargs})
        for plan in plans
    ]
    for proc in procs:
        proc.start()
    return procs


def reap(procs) -> None:
    """Terminate and join worker processes."""
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join(timeout=5)
