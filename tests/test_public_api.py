"""Public API surface tests: the names README/docs promise must exist,
and every name a package exports has a caller."""

import ast
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
# Code that can call an exported name; anything under a ``tests``
# directory cannot.
CALLER_CODE = ("src", "examples", "benchmarks", "perfbench")
CALLER_TEXT = ("README.md", ".github/workflows/ci.yml")

# Exported names no code outside tests/ calls, each kept because a test
# uses it to check other code.
ALLOWED = {
    "fixed_set": "the paper's B_fix, which tests check candidate_set against",
    "exact_cover_expectation": "the exact oracle for cover_time_samples",
    "transition_matrix": "the reference for cobra_hit_survival_exact at b = 1",
    "conductance_of_cut": "the reference for sweep_conductance",
    "connected_components": "the reference for Graph.is_connected",
    "restart_expectation_bound": "a one-sided check of cover_time_samples",
    "MemorySink": "the sink tests trace into",
    "petersen_graph": "the suite's small graph",
    "same_distribution": "test_rho1_vs_b2's oracle, which fails if b is off by one",
    "cobra_complete_meanfield_trajectory": "an oracle for the COBRA simulator on K_n",
    "bips_complete_meanfield_trajectory": "an oracle for the BIPS simulator on K_n",
    "meanfield_rounds_to_cover": "an oracle for the COBRA cover time on K_n",
}


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_snippet_runs(self):
        # The exact snippet from the package docstring.
        import numpy as np

        g = repro.hypercube_graph(4)
        times = repro.cover_time_samples(
            g, start=0, runs=10, lazy=True, rng=np.random.default_rng(1)
        )
        assert times.shape == (10,)
        assert times.mean() >= 4.0  # log2(16)

    def test_subpackages_importable(self):
        import repro.adversary
        import repro.baselines
        import repro.core
        import repro.distributed
        import repro.dynamics
        import repro.engine
        import repro.experiments
        import repro.graphs
        import repro.kernels
        import repro.parallel
        import repro.resilience
        import repro.stats
        import repro.telemetry
        import repro.theory

        for mod in (
            repro.adversary,
            repro.baselines,
            repro.core,
            repro.distributed,
            repro.dynamics,
            repro.engine,
            repro.experiments,
            repro.graphs,
            repro.kernels,
            repro.parallel,
            repro.resilience,
            repro.stats,
            repro.telemetry,
            repro.theory,
        ):
            assert mod.__all__


def _attach_table(init: Path) -> dict[str, list[str]]:
    """The ``{submodule: [names]}`` table ``init`` passes to ``attach``."""
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "attach":
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{init} has no attach table")


def _names_used(tree: ast.AST, skip: str = "") -> set[str]:
    """Identifiers and attributes that ``tree``'s code reads, and the
    names it imports.

    The definition named ``skip`` is left out, so a function's own body
    does not count as its caller.  Assignment and annotation targets
    (a dataclass field, a local variable) are not reads.  An attribute
    read counts by its name alone, so ``summary.diameter`` would keep an
    exported ``diameter()`` alive; so would an import nothing uses.
    """
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _names_without_caller() -> set[str]:
    """Names a subpackage's attach table exports that nothing calls.

    A name has a caller if its own module uses it, if code outside that
    module and outside ``tests`` names it, if README or CI names it, or
    if the root ``repro`` table re-exports it.
    """
    trees = {
        path: ast.parse(path.read_text())
        for top in CALLER_CODE
        for path in (ROOT / top).rglob("*.py")
        if "tests" not in path.relative_to(ROOT).parts
    }
    used = {path: _names_used(tree) for path, tree in trees.items()}
    text = "\n".join((ROOT / name).read_text() for name in CALLER_TEXT)
    public = {n for names in _attach_table(PACKAGE / "__init__.py").values() for n in names}
    orphans = set()
    for init in PACKAGE.glob("*/__init__.py"):
        for module, names in _attach_table(init).items():
            home = init.parent / f"{module}.py"
            for name in names:
                if not (
                    name in public
                    or any(name in found for path, found in used.items() if path != home)
                    or re.search(rf"\b{name}\b", text)
                    or name in _names_used(trees[home], skip=name)
                ):
                    orphans.add(name)
    return orphans


def test_every_export_has_a_caller():
    orphans = _names_without_caller()
    unlisted = sorted(orphans - ALLOWED.keys())
    assert not unlisted, f"no caller outside tests/ (delete, or add to ALLOWED): {unlisted}"
    stale = sorted(ALLOWED.keys() - orphans)
    assert not stale, f"ALLOWED entries that have a caller or are not exported: {stale}"
