"""The three benchmark workloads, driven only through repro's public API.

Each workload builds its inputs in :meth:`Workload.setup`, then runs
identical iterations (every iteration reuses the run's seed, so every
iteration must return the same digest), and finally, in traced runs,
one extra untimed pass under timing wrappers (:meth:`Workload.trace`).
Work that normally runs in child processes is traced in-process, which
is bit-identical by contract; the traced pass must reproduce the timed
digest.

``SIZES["small"]`` keeps each workload's shape (rule, graph family,
tier, several shards) at a fraction of the cost, for the self-tests.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import resource
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layers import Instrumentation, layer_metrics

#: Worker idle-poll interval for every fleet the benchmark starts.  The
#: library default (0.5 s) would add up to half a second of idle wait
#: to each cold call and dominate its spread.
POLL_INTERVAL_S = 0.05

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class Mismatch(Exception):
    """An output differed from the one it must equal."""


@dataclass
class Outcome:
    """What one iteration delivered: its output digest and capped runs."""

    digest: str
    failed: int


@dataclass
class TraceResult:
    """Per-layer metrics of the traced pass and the health of the breakdown."""

    layers: dict
    digests: list[str]
    traced_wall: float
    untraced_wall: float
    unattributed: float


def digest(*arrays: np.ndarray) -> str:
    """sha256 over the arrays' shapes, dtypes and bytes."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.shape}{arr.dtype}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _proc_cpu_s(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _unattributed(wall: float, inst: Instrumentation) -> float:
    return max(0.0, wall - inst.tracer.attributed())


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


class Workload:
    """Common process accounting; subclasses define the work."""

    name = ""
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = int(seed)
        self.params = dict(self.SIZES[size])
        self.runs = int(self.params["runs"])
        self.workdir = workdir

    # -- hooks ----------------------------------------------------------
    def setup(self) -> dict:
        """Build the inputs; returns the setup phase timings in seconds."""
        raise NotImplementedError

    def iteration(self) -> Outcome:
        raise NotImplementedError

    def trace(self, timed_wall: float) -> TraceResult:
        raise NotImplementedError

    def kernel_backend(self) -> str:
        """The backend one shard's engine run resolves to."""
        from repro.kernels.dispatch import resolve

        shard = min(self.runs, self.params["max_shard"])
        return resolve(self.engine.rule, n=self.graph.n, runs=shard).backend

    def before_iteration(self) -> None:
        """Untimed preparation of one iteration."""

    def after_iteration(self) -> None:
        """Untimed cleanup after one iteration."""

    def teardown(self) -> None:
        """Stop everything :meth:`setup` started."""

    def fleet_pids(self) -> list[int]:
        """Live worker processes that :meth:`setup` started."""
        return []

    def _build(self, rule=None) -> float:
        """Build the fixed graph, and an engine for ``rule`` started at vertex 0.

        Returns the generator call's wall time.
        """
        from repro import random_regular_graph
        from repro.engine import SpreadEngine

        p = self.params
        graph_s, self.graph = _timed(
            lambda: random_regular_graph(p["n"], p["degree"], rng=1)
        )
        if rule is not None:
            self.engine = SpreadEngine(rule, self.graph)
            self.state = np.zeros((self.runs, self.graph.n), dtype=bool)
            self.state[:, 0] = True
        return graph_s

    # -- accounting -----------------------------------------------------
    def cpu_seconds(self) -> float:
        """CPU of this process, its reaped children and its live fleet."""
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
        return total + sum(_proc_cpu_s(pid) for pid in self.fleet_pids())

    def peak_rss_mb(self) -> float:
        """Peak RSS over this process, its reaped children and its fleet."""
        peaks = [
            resource.getrusage(who).ru_maxrss / 1024.0
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ]
        peaks += [_proc_peak_rss_mb(pid) for pid in self.fleet_pids()]
        return max(peaks)


class CobraPool(Workload):
    """COBRA b=2 cover from vertex 0 through ``run_sharded(workers=2)``."""

    name = "cobra-pool"
    SIZES = {
        "full": {"n": 16384, "degree": 8, "runs": 512, "max_shard": 256},
        "small": {"n": 2048, "degree": 8, "runs": 64, "max_shard": 32},
    }
    workers = 2

    def setup(self) -> dict:
        from repro.core import make_policy
        from repro.engine import CobraRule

        return {"graph_s": self._build(CobraRule(make_policy(2))), "fleet_s": 0.0}

    def _run(self, workers: int):
        return self.engine.run_sharded(
            self.state, self.seed, workers=workers, max_shard=self.params["max_shard"]
        )

    def iteration(self) -> Outcome:
        res = self._run(self.workers)
        return Outcome(digest(res.finish_times), int((res.finish_times < 0).sum()))

    def trace(self, timed_wall: float) -> TraceResult:
        # Driver-side layers (plan, shared-memory export, pool dispatch,
        # merge) in the timed configuration; everything else in-process.
        with Instrumentation(["parallel"]) as driver:
            wall_pool, pooled = _timed(lambda: self._run(self.workers))
        twin_wall, twin = _timed(lambda: self._run(1))
        with Instrumentation() as main:
            wall_serial, serial = _timed(lambda: self._run(1))
        return TraceResult(
            layers=layer_metrics(main, driver),
            digests=[digest(r.finish_times) for r in (pooled, twin, serial)],
            traced_wall=wall_pool + wall_serial,
            untraced_wall=timed_wall + twin_wall,
            unattributed=_unattributed(wall_pool, driver)
            + _unattributed(wall_serial, main),
        )


class BipsBroker(Workload):
    """BIPS b=2 size trajectories through a broker fleet, cold then warm."""

    name = "bips-broker"
    SIZES = {
        "full": {"n": 4096, "degree": 8, "runs": 512, "max_shard": 16},
        "small": {"n": 512, "degree": 8, "runs": 64, "max_shard": 8},
    }
    fleet_size = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.broker = None
        self.procs: list = []

    def setup(self) -> dict:
        from repro.core import make_policy
        from repro.engine import BipsRule
        from repro.parallel import plan_shards

        graph_s = self._build(BipsRule(make_policy(2), 0))
        self.shards = len(
            plan_shards(
                self.engine.rule, self.runs, self.graph.n,
                max_shard=self.params["max_shard"],
            )
        )
        fleet_s, _ = _timed(self._start_fleet)
        return {"graph_s": graph_s, "fleet_s": fleet_s}

    def _start_fleet(self) -> None:
        from repro.distributed import Broker, run_worker

        self.broker = Broker().start_in_thread()
        ctx = mp.get_context("fork")
        self.procs = [
            ctx.Process(
                target=run_worker,
                args=(self.broker.address,),
                kwargs={"poll_interval": POLL_INTERVAL_S},
                daemon=True,
            )
            for _ in range(self.fleet_size)
        ]
        for proc in self.procs:
            proc.start()
        self._await_workers()

    def _await_workers(self) -> None:
        """Run tiny jobs until every fleet worker has completed a shard."""
        from repro import random_regular_graph
        from repro.core import make_policy
        from repro.distributed import broker_status
        from repro.engine import BipsRule, SpreadEngine

        probe = SpreadEngine(BipsRule(make_policy(2), 0), random_regular_graph(64, 4, rng=1))
        state = np.zeros((4 * self.fleet_size, 64), dtype=bool)
        state[:, 0] = True
        for attempt in range(200):
            probe.run_distributed(
                state, attempt, endpoint=self.broker.address, max_shard=1, cache=None
            )
            workers = broker_status(self.broker.address)["metrics"]["workers"]
            if len(workers) >= self.fleet_size:
                return
        raise RuntimeError("fleet workers never all completed a probe shard")

    def fleet_pids(self) -> list[int]:
        return [proc.pid for proc in self.procs if proc.is_alive()]

    def teardown(self) -> None:
        # Workers first (terminate, then join), then the broker, so no
        # worker is left dialling a broker that is gone.
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.procs = []
        if self.broker is not None:
            self.broker.shutdown()
            self.broker = None

    # -- one cold + warm call pair ----------------------------------------
    def _new_store(self):
        from repro.distributed import ResultCache

        root = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        return root, ResultCache(root, max_bytes=None)

    def _call(self, endpoint, store):
        return self.engine.run_distributed(
            self.state,
            self.seed,
            endpoint=endpoint,
            record_sizes=True,
            max_shard=self.params["max_shard"],
            cache=store,
        )

    def _cold_warm(self, endpoint, store) -> dict:
        """Cold call (fleet computes, cache written), then warm (cache only)."""
        start = time.perf_counter()
        cold = self._call(endpoint, store)
        mid = time.perf_counter()
        cold_lookups = store.hits + store.misses
        cold_hits = store.hits
        warm = self._call(endpoint, store)
        end = time.perf_counter()
        warm_hits = store.hits - cold_hits
        warm_lookups = store.hits + store.misses - cold_lookups
        if cold_hits != 0 or warm_hits != warm_lookups or warm_lookups != self.shards:
            raise Mismatch(
                f"cache hits: cold {cold_hits}/{cold_lookups}, "
                f"warm {warm_hits}/{warm_lookups} (expected 0 then {self.shards})"
            )
        same = (
            cold.rounds_run == warm.rounds_run
            and np.array_equal(cold.finish_times, warm.finish_times)
            and np.array_equal(cold.sizes, warm.sizes)
        )
        if not same:
            raise Mismatch("warm call differs from cold call")
        return {
            "result": cold,
            "wall": end - start,
            "warm_s": end - mid,
            "cold_hit_ratio": cold_hits / cold_lookups,
            "warm_hit_ratio": warm_hits / warm_lookups,
        }

    def before_iteration(self) -> None:
        self._store_root, self._store = self._new_store()

    def after_iteration(self) -> None:
        shutil.rmtree(self._store_root, ignore_errors=True)

    def iteration(self) -> Outcome:
        res = self._cold_warm(self.broker.address, self._store)["result"]
        return Outcome(
            digest(res.finish_times, res.sizes), int((res.finish_times < 0).sum())
        )

    def _in_process_pass(self, traced: bool):
        """Cold + warm against a fresh broker served by one worker thread."""
        from repro.distributed import Broker, broker_status, run_worker

        broker = Broker().start_in_thread()
        worker = threading.Thread(
            target=run_worker,
            args=(broker.address,),
            kwargs={"max_tasks": self.shards, "poll_interval": POLL_INTERVAL_S},
            daemon=True,
        )
        worker.start()
        root, store = self._new_store()
        inst = None
        try:
            if traced:
                with Instrumentation() as inst:
                    out = self._cold_warm(broker.address, store)
            else:
                out = self._cold_warm(broker.address, store)
            worker.join(timeout=60)
            if worker.is_alive():
                raise RuntimeError("in-process worker did not finish its shards")
            out["status"] = broker_status(broker.address)
        finally:
            broker.shutdown()
            shutil.rmtree(root, ignore_errors=True)
        return out, inst

    def trace(self, timed_wall: float) -> TraceResult:
        twin, _ = self._in_process_pass(traced=False)
        traced, inst = self._in_process_pass(traced=True)
        metrics = traced["status"]["metrics"]
        layers = layer_metrics(inst)
        layers.update(
            {
                "distributed.queue_wait_s_p50": (metrics["wait_s"] or {}).get("p50", 0.0),
                "distributed.exec_s_p50": (metrics["exec_s"] or {}).get("p50", 0.0),
                "distributed.retries": metrics["requeues"]
                + metrics["decode_rejects"]
                + metrics["worker_errors"],
                "cache.hit_ratio_cold": traced["cold_hit_ratio"],
                "cache.hit_ratio_warm": traced["warm_hit_ratio"],
                "cache.warm_s": traced["warm_s"],
            }
        )
        return TraceResult(
            layers=layers,
            digests=[
                digest(out["result"].finish_times, out["result"].sizes)
                for out in (twin, traced)
            ],
            traced_wall=traced["wall"],
            untraced_wall=twin["wall"],
            unattributed=_unattributed(traced["wall"], inst),
        )


class AdversaryRewire(Workload):
    """COBRA b=2 cover under a greedy-cut adversary, one run at a time."""

    name = "adversary-rewire"
    SIZES = {
        "full": {"n": 1024, "degree": 4, "runs": 16, "budget": 8},
        "small": {"n": 256, "degree": 4, "runs": 4, "budget": 8},
    }

    def setup(self) -> dict:
        graph_s = self._build()
        self.swaps = round(0.1 * self.graph.m)
        return {"graph_s": graph_s, "fleet_s": 0.0}

    def _factory(self, topology_seed):
        from repro.adversary import AdversarialSequence, make_adversary

        return AdversarialSequence(
            self.graph,
            make_adversary("greedy-cut", self.params["budget"]),
            topology_seed,
            swaps_per_round=self.swaps,
        )

    def _samples(self) -> np.ndarray:
        from repro import dynamic_cover_time_samples

        return dynamic_cover_time_samples(self._factory, self.runs, seed=self.seed)

    def kernel_backend(self) -> str:
        from repro.core import make_policy
        from repro.engine import CobraRule
        from repro.kernels.dispatch import resolve

        # The per-run sampler drives one engine run per realisation.
        return resolve(CobraRule(make_policy(2)), n=self.graph.n, runs=1).backend

    def iteration(self) -> Outcome:
        # The sampler raises when a run hits the round cap.
        return Outcome(digest(self._samples()), 0)

    def trace(self, timed_wall: float) -> TraceResult:
        with Instrumentation() as inst:
            wall, times = _timed(self._samples)
        return TraceResult(
            layers=layer_metrics(inst),
            digests=[digest(times)],
            traced_wall=wall,
            untraced_wall=timed_wall,
            unattributed=_unattributed(wall, inst),
        )


WORKLOADS = {cls.name: cls for cls in (CobraPool, BipsBroker, AdversaryRewire)}
