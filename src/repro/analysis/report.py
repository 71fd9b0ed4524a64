"""EXPERIMENTS.md generation: paper-vs-measured, mechanically produced.

``generate_report`` runs (or is handed) the E1..E17 results and renders
the reproduction record: per experiment, the paper's claim, the shape
criterion, the measured outcome, every table, and the pass/fail
verdicts.  The checked-in EXPERIMENTS.md is this module's output for a
``full``-scale run, so the document can never drift from the code.
"""

from __future__ import annotations

import datetime
import time
from dataclasses import dataclass

from ..experiments.config import ExperimentConfig
from ..experiments.registry import EXPERIMENTS
from ..experiments.runner import ExperimentResult

__all__ = ["PAPER_CLAIMS", "generate_report", "render_experiment_section"]


@dataclass(frozen=True)
class PaperClaim:
    """What the paper asserts, in the form the experiment checks."""

    anchor: str
    claim: str
    shape_criterion: str


PAPER_CLAIMS: dict[str, PaperClaim] = {
    "E1": PaperClaim(
        anchor="Section 1, hypercube discussion",
        claim="On the hypercube (n = 2^d) the successive bounds are "
        "O(log^8 n) [SPAA'16], O(log^4 n) [PODC'16], O(log^3 n) [this "
        "paper]; the truth is conjectured Θ(log n).",
        shape_criterion="Bound ordering holds at every dimension; measured "
        "cover time sits below all three; fitted polylog exponent ≪ 3.",
    ),
    "E2": PaperClaim(
        anchor="Theorem 1.1",
        claim="cover(u) = O(m + dmax² log n) w.h.p. for every connected "
        "graph (improving O(n^{11/4} log n)).",
        shape_criterion="One constant ≤ 8 dominates all irregular-family "
        "instances; measured/bound ratio does not grow with n.",
    ),
    "E3": PaperClaim(
        anchor="Theorem 1.2",
        claim="cover(u) = O((r/(1−λ) + r²) log n) w.h.p. for connected "
        "r-regular graphs with 1−λ > C√(log n / n).",
        shape_criterion="One constant ≤ 8 dominates all regular instances; "
        "expander sweep shows polylog cover (n-exponent ≈ 0).",
    ),
    "E4": PaperClaim(
        anchor="Theorem 1.3 (duality)",
        claim="P̂(Hit(v) > T | C₀=C) = P(C ∩ A_T = ∅ | A₀={v}) for every "
        "v, C, T, and branching parameter b.",
        shape_criterion="Exact subset-chain evaluation agrees to ≤ 1e-9 on "
        "every tiny-graph case; Monte-Carlo sides agree within 4 joint "
        "standard errors at scale.",
    ),
    "E5": PaperClaim(
        anchor="Lemma 3.1 / Theorem 1.4",
        claim="d(A_t) ≥ d(v) + k after t(k) = 4k + C′ dmax² log n rounds, "
        "w.h.p.; with k = 2m − d(v) this is Theorem 1.4's infection bound.",
        shape_criterion="Calibrated C′ ≤ 8 suffices on every irregular "
        "family, including the full-infection endpoint.",
    ),
    "E6": PaperClaim(
        anchor="Lemmas 4.1 / 4.2",
        claim="E[|A_{t+1}| | A_t] ≥ |A_t|(1 + ρ(1−λ²)(1 − |A_t|/n)).",
        shape_criterion="Bucketed conditional means dominate the bound "
        "(within 4 SEM) for b = 2 and b = 1+ρ on all regular instances.",
    ),
    "E7": PaperClaim(
        anchor="Corollary 5.2",
        claim="|C_t| ≥ |A_{t−1}|(1−λ)/2 whenever |A_{t−1}| ≤ n/2.",
        shape_criterion="Per-sample domination (the proof's inequality is "
        "deterministic given A_{t−1}) and bucketed-mean domination.",
    ),
    "E8": PaperClaim(
        anchor="Section 6",
        claim="With branching b = 1 + ρ (0 < ρ ≤ 1 constant) the b = 2 "
        "bounds hold with schedules multiplied by 1/ρ².",
        shape_criterion="Cover time decreases in ρ; slowdown T(ρ)/T(1) "
        "stays within a constant times 1/ρ².",
    ),
    "E9": PaperClaim(
        anchor="Section 1 (motivation)",
        claim="COBRA propagates fast with ≤ b transmissions per vertex per "
        "round and one round of memory; b = 1 degenerates to a random walk "
        "with Ω(n log n) cover; max{log₂ n, Diam} lower-bounds every run.",
        shape_criterion="COBRA ≥ 10× faster than a single walk on the "
        "expander; flooding is the floor; the lower bound is respected.",
    ),
    "E10": PaperClaim(
        anchor="Lemma 2.1 / Corollary 2.2",
        claim="Supermartingale tails: P(S_q > δ√q) < e^{−δ²/2}; uniformly, "
        "P(∃q ≥ q₀: S_q > α(q−q₀) + δ√q₀) < q₀e^{−δ²/4} + (16/α²)e^{−α²q₀/4}.",
        shape_criterion="Empirical tails never exceed the analytic bounds, "
        "on synthetic supermartingales and on real serialised-BIPS Z_l "
        "streams.",
    ),
    "E11": PaperClaim(
        anchor="Section 1 (cited results)",
        claim="K_n covers in O(log n); constant-degree expanders in "
        "polylog; D-dimensional grids in Θ~(n^{1/D}).",
        shape_criterion="Fitted exponents: complete/expander below 1/3 "
        "(polylog); torus-2D ≈ 0.5 and torus-3D ≈ 1/3 (±0.18).",
    ),
    "E12": PaperClaim(
        anchor="Lemma 5.4 / Theorem 1.5",
        claim="From κ₀ = 1/(1−λ) + (C′r/4)log n at t₀ = 8rκ₀, infection "
        "doubles each 16r/(1−λ) rounds until n/4, then completes in "
        "O(log n/(1−λ)) more rounds.",
        shape_criterion="The schedule (C′ = 1) dominates every measured "
        "phase; full infection lands within schedule + O(log n/(1−λ)).",
    ),
    "E13": PaperClaim(
        anchor="Remark before Theorem 1.2 (ablation, not a paper table)",
        claim="Bipartite graphs have eigenvalue gap 0; the lazy variant "
        "(each selection stays put w.p. 1/2) restores a positive gap at "
        "the cost of wasting half the selections.",
        shape_criterion="Lazy slowdown ≈ 2× on non-bipartite instances; "
        "plain gap exactly 0 vs positive lazy gap on an even cycle.",
    ),
    "E14": PaperClaim(
        anchor="Section 1 parameter choice (ablation, not a paper table)",
        claim="The literature fixes b = 2: b = 1 is a random walk "
        "(Ω(n log n) cover), while b > 2 only compresses the doubling "
        "log-base at double the transmission budget.",
        shape_criterion="Rounds decrease in b; the 1→2 speedup dwarfs "
        "the 2→4 speedup (diminishing returns).",
    ),
    "E15": PaperClaim(
        anchor="Conclusions (open question, not a paper table)",
        claim="No graph with COBRA cover time ω(n log n) is known; the "
        "worst case is conjectured to be O(n log n).",
        shape_criterion="Across the adversarial families the normalised "
        "ratio T/(n ln n) stays bounded and does not grow with n.",
    ),
    "E16": PaperClaim(
        anchor="Extension: evolving graphs (not a paper table)",
        claim="The paper's processes are defined on static graphs; on "
        "time-evolving topologies (degree-preserving rewiring) COBRA "
        "stays fast on expanders, a rewired cycle covers faster than a "
        "static one, and the rate-0 dynamics coincide with the static "
        "engines exactly.",
        shape_criterion="Frozen-sequence runs match the static engines "
        "sample-for-sample; dynamic expander means stay within 3× "
        "static; the top-rate cycle mean drops below 0.9× static.",
    ),
    "E17": PaperClaim(
        anchor="Extension: adversarial dynamics (not a paper table)",
        claim="E16's topologies evolve obliviously; the worst case is "
        "an adaptive adversary rewiring against the observed frontier. "
        "A budgeted greedy cut severing frontier→uninformed edges "
        "(degree- and connectivity-preserving) slows COBRA cover "
        "monotonically in its budget, and the budget-0 adversary is "
        "the oblivious baseline itself.",
        shape_criterion="Budget-0 samples equal the oblivious rewiring "
        "samples bit-for-bit; mean cover is non-decreasing in the "
        "budget (small sampling slack) with the top budget ≥ 1.25× "
        "oblivious on the expander and the torus.",
    ),
}


def render_experiment_section(result: ExperimentResult) -> str:
    """Render one experiment's markdown section."""
    claim = PAPER_CLAIMS[result.experiment_id]
    lines = [
        f"## {result.experiment_id} — {result.title}",
        "",
        f"**Paper anchor.** {claim.anchor}",
        "",
        f"**Paper claim.** {claim.claim}",
        "",
        f"**Shape criterion.** {claim.shape_criterion}",
        "",
        "**Measured.**",
        "",
    ]
    for table in result.tables:
        lines.append("```")
        lines.append(table.render())
        lines.append("```")
        lines.append("")
    lines.append("**Verdicts.**")
    lines.append("")
    for check in result.checks:
        mark = "✅" if check.passed else "❌"
        lines.append(f"- {mark} {check.name} — {check.detail}")
    if result.notes:
        lines.append("")
        lines.append("**Notes.**")
        lines.append("")
        for note in result.notes:
            lines.append(f"- {note}")
    lines.append("")
    return "\n".join(lines)


def generate_report(
    config: ExperimentConfig,
    *,
    experiment_ids: list[str] | None = None,
    results: dict[str, ExperimentResult] | None = None,
) -> str:
    """Produce the full EXPERIMENTS.md text.

    Pass ``results`` to render pre-computed outcomes; otherwise each
    experiment is run under ``config``.
    """
    ids = experiment_ids or sorted(EXPERIMENTS, key=lambda k: int(k[1:]))
    sections = []
    summary_rows = []
    for experiment_id in ids:
        if results and experiment_id in results:
            result = results[experiment_id]
            elapsed = None
        else:
            started = time.perf_counter()
            result = EXPERIMENTS[experiment_id].run(config)
            elapsed = time.perf_counter() - started
        sections.append(render_experiment_section(result))
        n_pass = sum(c.passed for c in result.checks)
        elapsed_cell = "-" if elapsed is None else f"{elapsed:.1f}s"
        summary_rows.append(
            f"| {experiment_id} | {EXPERIMENTS[experiment_id].paper_anchor} "
            f"| {n_pass}/{len(result.checks)} "
            f"| {'PASS' if result.all_passed else 'FAIL'} "
            f"| {elapsed_cell} |"
        )
    today = datetime.date.today().isoformat()
    header = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Reproduction record for *Improved Cover Time Bounds for the "
        "Coalescing-Branching Random Walk on Graphs* (Cooper, Radzik, "
        "Rivera; SPAA 2017).",
        "",
        f"Generated by `repro report` on {today} at scale "
        f"`{config.scale}` with master seed {config.seed}.  The paper "
        "contains no printed tables/figures (it is a theory paper); the "
        "experiment set below is the canonical per-theorem suite registered "
        "in `repro.experiments.registry` (`repro list`).  Regenerate any row "
        f"with `python -m repro run <id> --scale {config.scale}`.",
        "",
        "| id | paper anchor | checks | verdict | runtime |",
        "|----|--------------|--------|---------|---------|",
        *summary_rows,
        "",
    ]
    return "\n".join(header) + "\n" + "\n".join(sections)
