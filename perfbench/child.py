"""One workload in one fresh interpreter: set up, measure, trace, tear down.

Started by ``run.py``; not meant to be run by hand.  Protocol on
standard output: one ``READY {phase timings}`` line as soon as the
inputs are ready (the parent times setup up to that line), one
``CALIB {seconds}`` line with the host speed measured right after, then,
unless ``--setup-only``, one JSON result line.  Diagnostics go to
standard error.

The CPU speed of the host changes by up to a third over minutes (the
vCPUs share physical cores with other tenants), which moves every
timing with it.  Timings are therefore scaled to a reference host
speed: :class:`Calibration` times a fixed Python-and-numpy kernel on
each CPU right before and right after every iteration, and each
iteration's wall and CPU time are multiplied by
``REFERENCE_S / calibration``.  The raw figures go to the context line.

Iterations run while the next one is expected to end within
``--seconds`` (at least :data:`MIN_ITERATIONS` run).  An iteration that
raises, or whose output differs from the first iteration's, counts all
of its runs as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".perfbench_work"

MIN_ITERATIONS = 3

#: Wall time of the calibration kernel on the reference host (one vCPU
#: of a 2-vCPU Xeon VM in its usual speed regime).  Only ratios between
#: runs matter; this constant keeps scaled figures near raw ones.
REFERENCE_S = 0.008

#: Test hook: ``Class.method=seconds`` sleeps before every call of that
#: method, to check that a workload's end-to-end metric notices a slow
#: layer.  Only ``Graph`` and ``GraphSequence`` methods can be slowed.
INJECT_ENV = "PERFBENCH_INJECT_SLEEP"


def _check_origin() -> None:
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"perfbench: imported repro from {origin}, not from {ROOT / 'src'}")


def _inject_sleep(spec: str) -> None:
    from repro.dynamics.sequence import GraphSequence
    from repro.graphs.graph import Graph

    target, delay = spec.split("=")
    cls_name, method = target.split(".")
    owner = {"Graph": Graph, "GraphSequence": GraphSequence}[cls_name]
    original = getattr(owner, method)
    delay = float(delay)

    def slowed(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    setattr(owner, method, slowed)


class Calibration:
    """Times a fixed kernel: a Python loop plus a numpy sort."""

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._array = np.random.default_rng(0).random(300_000)

    def _kernel(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(150_000):
            total += i
        self._np.sort(self._array)
        return time.perf_counter() - start

    def __call__(self) -> float:
        """Kernel wall time, median of 3 per CPU, averaged over our CPUs."""
        cpus = os.sched_getaffinity(0)
        walls = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                walls.append(statistics.median(self._kernel() for _ in range(3)))
        finally:
            os.sched_setaffinity(0, cpus)
        return statistics.mean(walls)


def _context(wl) -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": has_numba,
        "kernel_backend": wl.kernel_backend(),
    }


def _timed_phase(wl, seconds: float, calibrate: Calibration) -> dict:
    from workloads import Mismatch

    walls, speeds, rates, cpu_per_run, raw_cpu_per_run = [], [], [], [], []
    attempted = failed = 0
    reference = None
    correct = True
    start = time.perf_counter()
    # Start another iteration only if it is expected to end in time.
    while (
        len(walls) < MIN_ITERATIONS
        or time.perf_counter() - start + statistics.median(walls) <= seconds
    ):
        wl.before_iteration()
        calibration = calibrate()
        cpu0 = wl.cpu_seconds()
        t0 = time.perf_counter()
        try:
            outcome = wl.iteration()
        except Mismatch:
            traceback.print_exc()
            outcome, correct = None, False
        except Exception:
            traceback.print_exc()
            outcome = None
        wall = time.perf_counter() - t0
        cpu = wl.cpu_seconds() - cpu0
        speed = REFERENCE_S / ((calibration + calibrate()) / 2)
        wl.after_iteration()
        if outcome is not None:
            if reference is None:
                reference = outcome.digest
            elif outcome.digest != reference:
                print(f"perfbench: digest {outcome.digest} != {reference}", file=sys.stderr)
                outcome, correct = None, False
        lost = wl.runs if outcome is None else outcome.failed
        delivered = wl.runs - lost
        attempted += wl.runs
        failed += lost
        walls.append(wall)
        speeds.append(speed)
        rates.append(delivered / (wall * speed))
        if delivered:
            raw_cpu_per_run.append(cpu * 1000.0 / delivered)
            cpu_per_run.append(raw_cpu_per_run[-1] * speed)
    return {
        "walls": walls,
        "speeds": speeds,
        "raw_cpu_per_run": raw_cpu_per_run,
        "runs_per_s": statistics.median(rates),
        "cpu_ms_per_run": statistics.median(cpu_per_run) if cpu_per_run else 0.0,
        "attempted": attempted,
        "failed": failed,
        "correct": correct and reference is not None,
        "reference": reference,
    }


def _measure(wl, seconds: float, trace: bool, calibrate: Calibration) -> dict:
    timed = _timed_phase(wl, seconds, calibrate)
    # Read before the traced pass, which runs the work in this process.
    e2e = {
        "runs_per_s": timed["runs_per_s"],
        "cpu_ms_per_run": timed["cpu_ms_per_run"],
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    result = {
        "correct": timed["correct"],
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "samples": {
            "iteration_walls_s": [round(w, 4) for w in timed["walls"]],
            "iteration_cpu_ms_per_run": [round(c, 4) for c in timed["raw_cpu_per_run"]],
            "iteration_host_speed": [round(v, 4) for v in timed["speeds"]],
        },
        "e2e": e2e,
        "context": _context(wl),
    }
    if trace:
        traced = wl.trace(statistics.median(timed["walls"]))
        for got in traced.digests:
            if got != timed["reference"]:
                print(f"perfbench: traced digest {got} != {timed['reference']}", file=sys.stderr)
                result["correct"] = False
        result["layers"] = {
            **traced.layers,
            "trace.overhead_frac": traced.traced_wall / traced.untraced_wall - 1.0,
            "trace.unattributed_s": traced.unattributed,
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "small"), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _check_origin()
    from workloads import WORKLOADS

    if os.environ.get(INJECT_ENV):
        _inject_sleep(os.environ[INJECT_ENV])
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=WORKDIR) as workdir:
        wl = WORKLOADS[args.workload](args.seed, args.size, Path(workdir))
        try:
            phases = wl.setup()
            print("READY " + json.dumps(phases), flush=True)
            calibrate = Calibration()
            print(f"CALIB {calibrate()!r}", flush=True)
            if args.setup_only:
                return 0
            result = _measure(wl, args.seconds, bool(args.trace), calibrate)
        finally:
            wl.teardown()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
