"""End-to-end chaos acceptance: the fault matrix and recovery drills.

This drives the same harness as ``repro chaos``: every fault class runs
serial/sharded/distributed and must be bit-identical to the fault-free
reference; a dead broker degrades to local execution; a client killed
mid-job resumes from the result cache without recomputing the shards
it had stored.
"""

import pytest

from repro.resilience import chaos
from repro.resilience.chaos import (
    FAULT_CLASSES,
    cache_resume_drill,
    chaos_case,
    fallback_drill,
    format_report,
)


@pytest.mark.parametrize("fault", FAULT_CLASSES)
def test_fault_class_matrix(fault):
    report = chaos_case(fault, seed=0)
    assert report == {"serial": True, "sharded": True, "distributed": True}


def test_fallback_local_on_dead_broker():
    report = fallback_drill(seed=0)
    assert report["ok"]
    assert report["fallbacks"] >= 1


def test_killed_client_resumes_from_checkpoint():
    report = cache_resume_drill(seed=0)
    assert report["crashed"], "the injected client crash must fire"
    assert report["resumed_from_cache"] >= 2, (
        "resume must serve the stored shards from cache, not recompute"
    )
    assert report["ok"]


def test_smoke_report_shape():
    report = chaos.run_chaos_smoke(seed=2)
    assert report["ok"]
    assert set(report["cases"]) == {
        "worker-kill",
        "frame-drop",
        "fallback-local",
        "cache-resume",
    }
    text = format_report(report)
    assert "ALL GREEN" in text
    assert "cache-resume" in text
