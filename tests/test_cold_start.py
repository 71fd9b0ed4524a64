"""What a fresh process pays: the modules it imports (for ``import
repro``, the engine path, the CLI and a pool child's shard), and the
allocator's steady state across engine runs.

Every CLI call, pool or broker worker and benchmark child starts a new
interpreter, so these are checked in a subprocess rather than in the
test process, whose ``sys.modules`` and heap the rest of the suite has
already shaped.  The lazy package namespaces and the generated graphs'
digests are checked in-process.
"""

import importlib
import json
import os
import pkgutil
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def _fresh(code: str):
    """Run ``code`` in a new interpreter on this ``repro``; its JSON stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_import_repro_loads_no_scipy_and_no_http_stack():
    # scipy.stats alone costs about a second per process; ks_compare,
    # mean_ci, the spectral helpers and adjacency_matrix import what
    # they need when called.  The HTTP modules load only with the
    # metrics server or the /statusz scraper.
    loaded = _fresh(
        "import json, sys, repro\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m.partition('.')[0] == 'scipy'\n"
        "    or m in ('urllib.request', 'http.server'))))"
    )
    assert loaded == []


_FAULTS_PER_RUN = """
import json, resource, sys
import numpy as np
from repro.core.branching import make_policy
from repro.engine import BipsRule, CobraRule, SpreadEngine
from repro.graphs import random_regular_graph

def faults_per_run(rule, graph, runs):
    engine = SpreadEngine(rule, graph)
    state = np.zeros((runs, graph.n), dtype=bool)
    state[:, 0] = True
    engine.run(state, np.random.default_rng(1))  # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    engine.run(state, np.random.default_rng(1))
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults = {
    "bips b=2": faults_per_run(
        BipsRule(make_policy(2), 0), random_regular_graph(4096, 8, rng=1), 16
    ),
}
small = random_regular_graph(1024, 8, rng=1)
faults["cobra b=2"] = faults_per_run(CobraRule(make_policy(2)), small, 32)
faults["cobra b=1.5"] = faults_per_run(CobraRule(make_policy(1.5)), small, 32)
faults["cobra lazy b=2"] = faults_per_run(
    CobraRule(make_policy(2), lazy=True), small, 32
)
print(json.dumps({"faults": faults, "scipy": "scipy" in sys.modules}))
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="glibc's adaptive mmap threshold"
)
def test_engine_rounds_reuse_the_heap_after_one_run():
    # A round's temporaries are 256 KiB to a few MiB.  Below glibc's
    # mmap threshold they are reused from the heap; above it every
    # round maps them, faults their pages in and unmaps them again
    # (thousands of minor faults per run).  The engine raises the
    # threshold once at import.  The process must not import scipy,
    # whose import raises the threshold too and would hide a missing
    # warm-up.
    measured = _fresh(_FAULTS_PER_RUN)
    assert all(count <= 64 for count in measured["faults"].values()), measured
    assert not measured["scipy"]


def _loaded(code: str) -> list:
    """The ``repro`` and numpy modules loaded once ``code`` has run fresh."""
    return _fresh(
        code + "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "    if m.partition('.')[0] in ('repro', 'numpy'))))"
    )


def test_import_repro_loads_no_submodule_and_no_numpy():
    # Every package namespace is lazy; _version is bound eagerly and
    # _lazy is the helper the namespaces are built with.
    loaded = _loaded("import repro")
    assert loaded == ["repro", "repro._lazy", "repro._version"]


def test_engine_entry_imports_load_only_the_engine_path():
    # The imports a cobra-pool benchmark child makes before its first
    # round.
    loaded = _loaded(
        "from repro import random_regular_graph\n"
        "from repro.engine import SpreadEngine, CobraRule\n"
        "from repro.core import make_policy"
    )
    unused = (
        "repro.experiments", "repro.theory", "repro.analysis",
        "repro.baselines", "repro.dynamics", "repro.adversary",
        "repro.distributed", "repro.telemetry.live",
        "repro.telemetry.summarize",
    )
    assert [m for m in loaded if m.startswith(unused)] == []
    assert "repro.kernels.dispatch" in loaded


_CLI = """
import contextlib, io
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main({argv!r})
    except SystemExit:
        pass
"""


@pytest.mark.parametrize(
    "argv, experiments",
    [
        (["--help"], []),
        (["list"], []),
        (["run", "E4", "--scale", "smoke"], ["repro.experiments.e04_duality"]),
    ],
    ids=["help", "list", "run-E4"],
)
def test_cli_imports_only_the_experiment_it_runs(argv, experiments):
    loaded = _loaded(_CLI.format(argv=argv))
    assert [m for m in loaded if m.startswith("repro.experiments.e")] == experiments


_POOL_CHILD_IMPORTS = """
import json, os, sys
import numpy as np
from repro import random_regular_graph
from repro.core import make_policy
from repro.engine import CobraRule, SpreadEngine
from repro.parallel import sharding

run_shard = sharding.run_shard

def recording_run_shard(task):
    before = set(sys.modules)
    result = run_shard(task)
    imported = sorted(set(sys.modules) - before)
    if imported:
        raise RuntimeError(imported)
    result.meta["shard"]["recorded_in"] = os.getpid()
    return result

sharding.run_shard = recording_run_shard
engine = SpreadEngine(CobraRule(make_policy(2)), random_regular_graph(256, 8, rng=1))
state = np.zeros((32, 256), dtype=bool)
state[:, 0] = True
try:
    result = engine.run_sharded(state, 1, workers=2, max_shard=8)
    imported = []
    recorded_in = [shard.get("recorded_in") for shard in result.meta["shards"]]
except RuntimeError as exc:
    imported, recorded_in = exc.args[0], []
print(json.dumps({"imported": imported, "recorded_in": recorded_in, "parent": os.getpid()}))
"""


def test_forked_pool_child_imports_nothing_during_a_shard():
    # Whatever a shard needs is imported before the pool forks, so a
    # child pays no import inside any call.  The wrapper must be what
    # the pool runs: every shard ran through it, in a child process.
    seen = _fresh(_POOL_CHILD_IMPORTS)
    assert seen["imported"] == []
    assert len(seen["recorded_in"]) == 4
    assert None not in seen["recorded_in"]
    assert seen["parent"] not in seen["recorded_in"]


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


@pytest.mark.parametrize("package", list(_packages()), ids=lambda p: p.__name__)
def test_lazy_namespace_resolves_every_exported_name(package):
    listed = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_star_import_binds_all_of_repro_all():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


#: ``Graph.digest`` of generated graphs, computed before the generators
#: handed ``Graph`` an edge array instead of a list of tuples.
_GENERATED_DIGESTS = [
    ("random_regular_graph", (16384, 8), {"rng": 1},
     "5ac9708baa4f0f15906f8de157b649746fa2be94df62c9bcd486c388547735f3"),
    ("random_regular_graph", (1024, 4), {"rng": 1},
     "82005f776ca1ce79c950b2936fca326fcf5baebb101660acd59220c53efe5ce0"),
    ("random_regular_graph", (100, 3), {"rng": 7},
     "a56c3a8c37968d97ba58fea15b41c51121497ac9af9e8959703360ace8393c0a"),
    ("erdos_renyi_graph", (64,), {"rng": 1},
     "efecfc898e84546f5aeb1bd07868b644c549855d71f1878075cf0f182f340222"),
    ("erdos_renyi_graph", (200, 0.05), {"rng": 3},
     "9235979ac6228379a089bbc0e55c944c135a6d2eb1f9f9c3e066222f70fe5c9e"),
    ("erdos_renyi_graph", (30, 0.1), {"rng": 5, "connected": False},
     "529013391229a6010a0cccddccd2a53f2a9be5968d97f2c6ff5dd9a55ab419be"),
]


@pytest.mark.parametrize(
    "generator, args, kwargs, expected",
    _GENERATED_DIGESTS,
    ids=[f"{g}{a}{k}" for g, a, k, _ in _GENERATED_DIGESTS],
)
def test_generated_graph_digests_are_pinned(generator, args, kwargs, expected):
    graph = getattr(repro.graphs, generator)(*args, **kwargs)
    assert graph.digest == expected
