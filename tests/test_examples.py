"""Smoke tests: every example script runs to completion as a subprocess.

Examples are the README's promises; these tests keep them executable.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
SRC = str(Path(repro.__file__).resolve().parent.parent)


def _run_example(script: str) -> subprocess.CompletedProcess:
    """Run one example on this ``repro``, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )


def test_examples_directory_populated():
    assert len(EXAMPLES) >= 4, EXAMPLES
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    proc = _run_example(script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example produced no output"


def test_quickstart_mentions_bounds():
    proc = _run_example("quickstart.py")
    assert "SPAA'17" in proc.stdout
    assert "lower bound" in proc.stdout
