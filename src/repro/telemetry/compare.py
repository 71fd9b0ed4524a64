"""Cross-entry BENCH regression analytics: pair, diff, gate, render.

The analysis half of the perf dashboard: where
:mod:`repro.telemetry.baseline` loads and normalises the committed
``BENCH_*.json`` trajectories, this module turns successive entries
into a typed :class:`RegressionReport`:

* **Pairing** — the latest entry of a trajectory is compared against
  the most recent *comparable* earlier entry (same machine cpus, at
  least one shared row identity), or against an explicit reference
  (``--against`` takes an entry index or a timestamp prefix).  Rows
  pair by :func:`~repro.telemetry.baseline.row_key` — same
  bench/mode/n/runs/backend/machine-cpus — and rows without a
  counterpart are *skipped*, never errors.
* **Headline diff** — ``seconds`` / ``seconds_per_round`` per paired
  row, flagged when the relative change exceeds
  :attr:`Thresholds.regress_pct` *and* the absolute change exceeds
  :attr:`Thresholds.noise_floor_s` (sub-tenth-second jitter on shared
  CI containers is noise, not regression).
* **Digest diff** — the attached telemetry digests are flattened to
  dotted paths; latency-like summaries (per-round percentiles, shard
  wall, queue wait/exec, shard skew) flag on relative regression over
  a tiny absolute floor, and error-ish counters (errors, requeues,
  rejects, fallbacks) flag on any increase.
* **Gates** — the per-bench one-off assertions (≥3x sharding speedup
  on 4+ cpus, ≥10x numba kernels, <5% resilience overhead) live here
  as :func:`evaluate_gates`, so the bench scripts and the CI
  ``bench-regress`` leg share one implementation.

Surfaced as ``repro bench compare / report / migrate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .baseline import (
    HEADLINE_KEYS,
    Bench,
    BenchEntry,
    load_bench,
    row_key,
)
from .summarize import fill_bar, histogram_bar

__all__ = [
    "Thresholds",
    "Finding",
    "RegressionReport",
    "compare_bench",
    "compare_all",
    "evaluate_gates",
    "load_benches",
    "render_report",
    "render_trends",
    "resolve_against",
    "SHARDING_SPEEDUP_FLOOR",
    "SHARDING_MIN_CPUS",
    "KERNEL_SPEEDUP_FLOOR",
    "KERNEL_GATE_N",
    "RESILIENCE_OVERHEAD_MAX",
    "LIVE_OVERHEAD_MAX",
]

#: Sharded execution must beat the batched baseline by this factor...
SHARDING_SPEEDUP_FLOOR = 3.0
#: ...but only on machines with at least this many CPUs (a 1-CPU
#: container *loses* to serial and the gate would be noise).
SHARDING_MIN_CPUS = 4
#: The numba cobra stepper must beat numpy by this factor...
KERNEL_SPEEDUP_FLOOR = 10.0
#: ...at problem sizes at least this large (JIT warm-up dominates below).
KERNEL_GATE_N = 100_000
#: An inert resilience plan may cost at most this fraction of runtime.
RESILIENCE_OVERHEAD_MAX = 0.05
#: A running metrics exporter may cost at most this fraction of runtime
#: over the same run with the live plane off.
LIVE_OVERHEAD_MAX = 0.05

#: Substrings marking a counter whose *increase* is a regression.
_WORSE_COUNTERS = ("error", "requeue", "reject", "fallback", "fastfail", "fault")


@dataclass(frozen=True)
class Thresholds:
    """Regression thresholds and noise floors for the comparator.

    ``regress_pct`` / ``noise_floor_s`` govern headline seconds (both
    must be exceeded to flag); ``digest_regress_pct`` /
    ``digest_noise_floor`` govern latency-like digest paths.  The 0.1s
    seconds floor is deliberate: the committed smoke trajectories
    jitter ±50% at the 0.03–0.15s scale across CI containers, and a
    sub-tenth-second absolute change is never a real regression.
    """

    regress_pct: float = 20.0
    noise_floor_s: float = 0.1
    digest_regress_pct: float = 25.0
    digest_noise_floor: float = 1e-3


@dataclass(frozen=True)
class Finding:
    """One comparator observation (a regression, improvement, or gate)."""

    bench: str
    kind: str  # "seconds" | "digest" | "counter" | "gate"
    key: str
    before: float | None
    after: float | None
    change_pct: float | None
    regressed: bool
    note: str = ""


@dataclass
class RegressionReport:
    """A typed comparison outcome: findings plus pairing bookkeeping."""

    findings: list = field(default_factory=list)
    compared: int = 0
    skipped: list = field(default_factory=list)

    @property
    def regressions(self) -> list:
        """The findings that actually flag (drive the nonzero exit)."""
        return [f for f in self.findings if f.regressed]

    @property
    def ok(self) -> bool:
        """True when nothing regressed."""
        return not self.regressions

    def merge(self, other: "RegressionReport") -> "RegressionReport":
        """Fold another report into this one (returns self)."""
        self.findings.extend(other.findings)
        self.compared += other.compared
        self.skipped.extend(other.skipped)
        return self


def _fmt_key(key: tuple) -> str:
    return " ".join(f"{k}={v}" for k, v in key) or "(no parameters)"


def resolve_against(
    bench: Bench, against: str = "last"
) -> tuple[BenchEntry, BenchEntry] | None:
    """Pick the ``(before, after)`` entry pair for one trajectory.

    ``after`` is always the latest entry.  ``against="last"`` selects
    the most recent earlier entry recorded on the same cpu count that
    shares at least one row identity; an integer (negative allowed)
    indexes ``bench.entries``; any other string matches a timestamp
    prefix.  Returns None when no comparable pair exists (a
    single-entry trajectory, a machine change) — a *skip*, not an
    error.
    """
    entries = bench.entries
    if len(entries) < 2:
        return None
    after = entries[-1]
    if against == "last":
        after_keys = set(after.row_map())
        for candidate in reversed(entries[:-1]):
            if candidate.cpus != after.cpus:
                continue
            if after_keys & set(candidate.row_map()):
                return candidate, after
        return None
    try:
        index = int(against)
    except ValueError:
        matches = [
            e for e in entries[:-1] if e.timestamp.startswith(str(against))
        ]
        if not matches:
            return None
        return matches[-1], after
    try:
        before = entries[:-1][index] if index >= 0 else entries[index - 1]
    except IndexError:
        return None
    return before, after


def _diff_value(
    report: RegressionReport,
    bench: str,
    kind: str,
    key: str,
    before,
    after,
    *,
    pct: float,
    floor: float,
) -> None:
    """Diff one paired numeric value into the report (may add a finding)."""
    if before is None or after is None:
        return
    before = float(before)
    after = float(after)
    if before <= 0:
        return
    delta = after - before
    change_pct = delta / before * 100.0
    if delta > floor and change_pct > pct:
        report.findings.append(
            Finding(
                bench=bench,
                kind=kind,
                key=key,
                before=before,
                after=after,
                change_pct=change_pct,
                regressed=True,
                note=f"+{change_pct:.1f}% (threshold {pct:g}%, floor {floor:g})",
            )
        )
    elif -delta > floor and change_pct < -pct:
        report.findings.append(
            Finding(
                bench=bench,
                kind=kind,
                key=key,
                before=before,
                after=after,
                change_pct=change_pct,
                regressed=False,
                note=f"improved {change_pct:.1f}%",
            )
        )


def _flatten(obj, prefix: str = "") -> dict[str, float]:
    """Flatten nested digest dicts to dotted-path → float leaves."""
    out: dict[str, float] = {}
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            out.update(_flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, bool):
        pass
    elif isinstance(obj, (int, float)) and obj == obj:  # skip NaN
        out[prefix[:-1]] = float(obj)
    return out


def _latency_path(path: str) -> bool:
    """Is this digest path a latency-like summary leaf worth gating?

    Percentile/mean/max leaves of histograms whose name mentions
    seconds, wall or queue wait/exec — plus shard-skew scalars.  Counts
    and occupancy summaries are excluded: bigger is not slower.
    """
    if path.endswith("skew"):
        return True
    head, _, leaf = path.rpartition(".")
    if leaf not in ("p50", "p90", "p99", "mean", "max"):
        return False
    return (
        "seconds" in head
        or "wall" in head
        or ".wait" in head
        or ".exec" in head
        or head.endswith("_s")
    )


def _compare_digests(
    report: RegressionReport,
    bench: str,
    before: BenchEntry,
    after: BenchEntry,
    thresholds: Thresholds,
) -> None:
    if not before.telemetry or not after.telemetry:
        if after.telemetry and not before.telemetry:
            report.skipped.append(
                f"{bench}: baseline entry has no telemetry digest"
            )
        return
    flat_before = _flatten(before.telemetry)
    flat_after = _flatten(after.telemetry)
    for path, value in flat_after.items():
        prev = flat_before.get(path)
        if prev is None:
            continue
        if _latency_path(path):
            _diff_value(
                report,
                bench,
                "digest",
                path,
                prev,
                value,
                pct=thresholds.digest_regress_pct,
                floor=thresholds.digest_noise_floor,
            )
        elif path.startswith("counters.") and any(
            marker in path for marker in _WORSE_COUNTERS
        ):
            if value > prev:
                report.findings.append(
                    Finding(
                        bench=bench,
                        kind="counter",
                        key=path,
                        before=prev,
                        after=value,
                        change_pct=(
                            (value - prev) / prev * 100.0 if prev else None
                        ),
                        regressed=True,
                        note="error-class counter increased",
                    )
                )


def compare_bench(
    bench: Bench,
    *,
    against: str = "last",
    thresholds: Thresholds | None = None,
) -> RegressionReport:
    """Compare one trajectory's latest entry against its baseline."""
    thresholds = thresholds or Thresholds()
    report = RegressionReport()
    pair = resolve_against(bench, against)
    if pair is None:
        report.skipped.append(
            f"{bench.name}: no comparable baseline entry (against={against!r})"
        )
        return report
    before, after = pair
    report.compared += 1
    before_rows = before.row_map()
    for row in after.rows:
        key = row_key(row)
        prev = before_rows.get(key)
        if prev is None:
            report.skipped.append(
                f"{bench.name}: no baseline row for {_fmt_key(key)}"
            )
            continue
        for metric in HEADLINE_KEYS:
            if metric in row and metric in prev:
                _diff_value(
                    report,
                    bench.name,
                    "seconds",
                    f"{metric} {_fmt_key(key)}",
                    prev[metric],
                    row[metric],
                    pct=thresholds.regress_pct,
                    floor=thresholds.noise_floor_s,
                )
    _compare_digests(report, bench.name, before, after, thresholds)
    return report


def evaluate_gates(bench: Bench) -> list[Finding]:
    """The per-bench absolute gates, evaluated on the latest entry.

    Migrated from the bench scripts' inline assertions so every future
    entry inherits them: sharding speedup (cpus-gated), kernel numba
    speedup (skipped when numba was unavailable at record time), and
    resilience inert-plan overhead.  Passing gates yield non-regressed
    findings so reports show them; inapplicable gates yield nothing.
    """
    entry = bench.latest
    if entry is None:
        return []
    findings: list[Finding] = []

    def gate(key: str, value, limit, ok: bool, note: str) -> None:
        findings.append(
            Finding(
                bench=bench.name,
                kind="gate",
                key=key,
                before=float(limit),
                after=None if value is None else float(value),
                change_pct=None,
                regressed=not ok,
                note=note,
            )
        )

    if bench.name == "sharding":
        cpus = entry.cpus
        if cpus is not None and cpus >= SHARDING_MIN_CPUS:
            speedups = [
                row["speedup_vs_batch"]
                for row in entry.rows
                if row.get("speedup_vs_batch") is not None
            ]
            best = max(speedups) if speedups else None
            gate(
                f"sharded speedup >= {SHARDING_SPEEDUP_FLOOR:g}x",
                best,
                SHARDING_SPEEDUP_FLOOR,
                best is not None and best >= SHARDING_SPEEDUP_FLOOR,
                f"best speedup {best!r} on {cpus} cpus",
            )
    elif bench.name == "kernels":
        rows = [
            row
            for row in entry.rows
            if row.get("backend") == "numba"
            and row.get("rule") == "cobra"
            and int(row.get("n", 0)) >= KERNEL_GATE_N
            and row.get("speedup_vs_numpy") is not None
        ]
        if rows:
            best = max(row["speedup_vs_numpy"] for row in rows)
            gate(
                f"numba cobra speedup >= {KERNEL_SPEEDUP_FLOOR:g}x "
                f"at n>={KERNEL_GATE_N}",
                best,
                KERNEL_SPEEDUP_FLOOR,
                best >= KERNEL_SPEEDUP_FLOOR,
                f"best speedup {best:g}x",
            )
    elif bench.name == "resilience":
        overhead = entry.meta.get("overhead_fraction")
        if overhead is not None:
            gate(
                f"inert-plan overhead < {RESILIENCE_OVERHEAD_MAX:.0%}",
                overhead,
                RESILIENCE_OVERHEAD_MAX,
                float(overhead) < RESILIENCE_OVERHEAD_MAX,
                f"overhead {float(overhead):.2%}",
            )
        live = entry.meta.get("live_overhead_fraction")
        if live is not None:
            gate(
                f"live exporter overhead < {LIVE_OVERHEAD_MAX:.0%}",
                live,
                LIVE_OVERHEAD_MAX,
                float(live) < LIVE_OVERHEAD_MAX,
                f"overhead {float(live):.2%}",
            )
    return findings


def compare_all(
    paths,
    *,
    against: str = "last",
    thresholds: Thresholds | None = None,
    gates: bool = True,
) -> RegressionReport:
    """Compare every trajectory in ``paths`` into one merged report."""
    report = RegressionReport()
    for path in paths:
        bench = load_bench(path)
        report.merge(
            compare_bench(bench, against=against, thresholds=thresholds)
        )
        if gates:
            report.findings.extend(evaluate_gates(bench))
    return report


def render_report(report: RegressionReport) -> str:
    """Render a comparison report as text (regressions first)."""
    lines = [
        f"BENCH comparison: {report.compared} pair(s) compared, "
        f"{len(report.findings)} finding(s), "
        f"{len(report.regressions)} regression(s)"
    ]
    ordered = sorted(report.findings, key=lambda f: not f.regressed)
    for finding in ordered:
        tag = "REGRESS" if finding.regressed else "ok"
        values = ""
        if finding.kind == "gate":
            # For gates, ``before`` holds the limit, ``after`` the value.
            if finding.after is not None:
                values = f": {finding.after:g} (limit {finding.before:g})"
        elif finding.before is not None and finding.after is not None:
            values = f": {finding.before:g} -> {finding.after:g}"
        elif finding.after is not None:
            values = f": {finding.after:g}"
        lines.append(
            f"  [{tag:7}] {finding.bench} {finding.kind} "
            f"{finding.key}{values}  ({finding.note})"
        )
    for reason in report.skipped:
        lines.append(f"  [skip   ] {reason}")
    if not report.findings and not report.skipped:
        lines.append("  (nothing to compare)")
    return "\n".join(lines)


def render_trends(benches) -> str:
    """ASCII trend tables: per row identity, seconds across entries.

    One block per trajectory; each paired row identity lists its
    headline seconds entry by entry with a proportional
    :func:`~repro.telemetry.summarize.fill_bar`, and the latest
    telemetry digest's latency histograms render with
    :func:`~repro.telemetry.summarize.histogram_bar`.
    """
    lines: list[str] = []
    for bench in benches:
        lines.append(f"{bench.name} — {len(bench.entries)} entries ({bench.path.name})")
        series: dict[tuple, list[tuple[str, float]]] = {}
        for entry in bench.entries:
            for row in entry.rows:
                for metric in HEADLINE_KEYS:
                    if metric in row and row[metric] is not None:
                        series.setdefault(row_key(row), []).append(
                            (entry.timestamp, float(row[metric]))
                        )
                        break
        for key, samples in series.items():
            lines.append(f"  {_fmt_key(key)}")
            peak = max(value for _, value in samples)
            for timestamp, value in samples:
                bar = fill_bar(value, peak, width=24)
                lines.append(f"    {timestamp:25} {value:10.4f}s  {bar}")
        latest = bench.latest
        if latest is not None and latest.telemetry:
            summaries: dict[str, dict] = {}
            for path, stats in sorted(latest.telemetry.items()):
                if path == "histograms" and isinstance(stats, dict):
                    summaries.update(
                        {k: v for k, v in sorted(stats.items())}
                    )
                else:
                    summaries[path] = stats
            shown = False
            for path, stats in summaries.items():
                if (
                    isinstance(stats, dict)
                    and {"min", "max", "p50", "p90", "p99"} <= set(stats)
                ):
                    if not shown:
                        lines.append("  latest digest (5=p50 9=p90 +=p99):")
                        shown = True
                    lines.append(
                        f"    {path:26} [{histogram_bar(stats)}] "
                        f"p99={stats['p99']:.4g}"
                    )
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def load_benches(paths) -> list[Bench]:
    """Load several trajectories (convenience for the CLI/report path)."""
    return [load_bench(path) for path in paths]
