"""What a fresh process pays: the imports of ``import repro``, and the
allocator's steady state across engine runs.

Every CLI call, pool or broker worker and benchmark child starts a new
interpreter, so both are checked in a subprocess rather than in the
test process, whose ``sys.modules`` and heap the rest of the suite has
already shaped.
"""

import json
import os
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
