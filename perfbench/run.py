"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cobra-pool --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one extra traced pass and prints the per-layer
metrics instead.  The last line of standard output is the result
object; the line before it is the machine context.  Exits non-zero,
without a result, when the checkout has no ``src/repro`` to measure.

Each workload runs in fresh interpreters (``child.py``): several that
only set up, then one that sets up and measures.  ``setup_s`` is the
median over all of them of the time from spawn to the child's ``READY``
line, each scaled to the reference host speed the child measured right
after (see ``child.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import REFERENCE_S  # noqa: E402

#: Fresh interpreters timed for ``setup_s``, the measuring one included.
SETUP_SAMPLES = {"full": 5, "small": 2}

#: Fresh ``import repro`` interpreters timed for ``setup.import_s``.
IMPORT_SAMPLES = 3

#: Wall-clock budget for the whole run; children still alive are killed.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child_env() -> dict:
    # Settings that change what the library does are cleared, so every
    # run measures the defaults; the result cache is handed over
    # explicitly where a workload uses one.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = "off"
    return env


def _run_child(args, deadline: float, *, setup_only: bool) -> tuple[float, dict, dict | None]:
    """Spawn one child; returns (raw setup seconds, phases, result).

    ``phases`` holds the child's setup phase timings and the host
    ``speed`` measured right after setup.
    """
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        calib = proc.stdout.readline()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not ready.startswith("READY ") or not calib.startswith("CALIB "):
        raise BenchError(f"{args.workload} child exited with {code}")
    phases = json.loads(ready[len("READY "):])
    phases["speed"] = REFERENCE_S / float(calib[len("CALIB "):])
    if setup_only:
        return setup_s, phases, None
    return setup_s, phases, json.loads(rest.strip().splitlines()[-1])


def _import_s(deadline: float) -> float:
    walls = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro"],
            env=_child_env(), cwd=ROOT, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def measure(args) -> tuple[dict, dict]:
    """Run the workload; returns (result object, machine context)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; expected one of {names}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S

    setups, phases = [], []
    for _ in range(SETUP_SAMPLES[args.size] - 1):
        setup_s, phase, _ = _run_child(args, deadline, setup_only=True)
        setups.append(setup_s)
        phases.append(phase)
    setup_s, phase, child = _run_child(args, deadline, setup_only=False)
    setups.append(setup_s)
    phases.append(phase)

    scaled = [s * p["speed"] for s, p in zip(setups, phases)]
    values = {**child["e2e"], "setup_s": statistics.median(scaled)}
    wanted = bench["end_to_end"]
    if args.trace:
        values = {
            **child["layers"],
            "setup.import_s": _import_s(deadline),
            "setup.graph_s": statistics.median(p["graph_s"] for p in phases),
            "setup.fleet_s": statistics.median(p["fleet_s"] for p in phases),
            "failed_frac": child["failed"] / child["attempted"],
        }
        wanted = bench["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"workload reported no value for {missing}")
    result = {
        "correct": bool(child["correct"]),
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    context = {
        **child["context"],
        **child["samples"],
        "setup_walls_s": [round(s, 4) for s in setups],
        "setup_host_speed": [round(p["speed"], 4) for p in phases],
    }
    return result, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full",
        help="small: the same shapes at a fraction of the cost (self-tests)",
    )
    args = parser.parse_args(argv)
    try:
        result, context = measure(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
