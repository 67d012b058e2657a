"""Plain-text table formatting for benchmark output.

The benches regenerate the paper's tables and figures as printed rows;
this keeps the harness dependency-free and diff-friendly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ConfigError


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: str = "") -> str:
    """Render rows as an aligned monospace table.

    Args:
        headers: Column names.
        rows: Row values; each must match the header count. Floats are
            rendered with four significant digits.
        title: Optional title line.

    Raises:
        ConfigError: on ragged rows.
    """
    if not headers:
        raise ConfigError("need at least one column")
    rendered: List[List[str]] = [[_cell(value) for value in headers]]
    for row in rows:
        if len(row) != len(headers):
            raise ConfigError(
                f"row {row!r} has {len(row)} cells; expected {len(headers)}"
            )
        rendered.append([_cell(value) for value in row])
    widths = [max(len(line[col]) for line in rendered)
              for col in range(len(headers))]
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    for index, line in enumerate(rendered):
        lines.append(" | ".join(cell.ljust(width)
                                for cell, width in zip(line, widths)))
        if index == 0:
            lines.append(separator)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_live_summary(snapshot) -> str:
    """Render a :class:`~repro.sim.LiveSnapshot` as a one-row table.

    The printable heartbeat of ``repro serve``: offered / completed /
    in-flight counts, sustained throughput and running latency means at
    the snapshot's simulated time.
    """
    table = format_table(
        ("sim time (s)", "offered", "completed", "in flight", "QPS",
         "mean TTFT (ms)", "mean TPOT (ms)"),
        [[snapshot.now, snapshot.offered, snapshot.completed,
          snapshot.in_flight, snapshot.throughput,
          snapshot.mean_ttft * 1e3, snapshot.mean_tpot * 1e3]],
    )
    return f"live serving summary\n{table}"


def format_fleet_breakdown(stats: Sequence[dict]) -> str:
    """Render a fleet's per-replica breakdown as an aligned table.

    Args:
        stats: :meth:`~repro.sim.fleet.FleetEngine.replica_stats`
            records -- one row per engine generation (slot, lifecycle
            state, request counters, running latency means).

    Raises:
        ConfigError: on an empty breakdown (a fleet always has at
            least one replica, so nothing-to-render is a caller bug).
    """
    if not stats:
        raise ConfigError("fleet breakdown needs at least one replica")
    table = format_table(
        ("slot", "state", "offered", "completed", "in flight", "QPS",
         "mean TTFT (ms)", "mean TPOT (ms)", "schedule"),
        [[row["slot"], row["state"], row["offered"], row["completed"],
          row["in_flight"], row["throughput"], row["mean_ttft"] * 1e3,
          row["mean_tpot"] * 1e3, row["schedule"]]
         for row in stats],
    )
    return f"per-replica breakdown\n{table}"


def format_scaling_timeline(events: Sequence[dict],
                            replica_seconds: Optional[float] = None) -> str:
    """Render an autoscaler's scaling-event timeline as a table.

    Args:
        events: :meth:`~repro.sim.autoscale.Autoscaler.timeline`
            rows -- one dict per size-changing decision (time, action,
            slots, before/after counts, reason).
        replica_seconds: Optional integrated replica-seconds to
            append as a cost footer.

    A controller that never scaled is a legitimate outcome, so an
    empty timeline renders as a one-line note instead of raising.
    """
    if not events:
        lines = ["scaling timeline: no scaling events"]
    else:
        table = format_table(
            ("sim time (s)", "action", "slots", "replicas", "reason"),
            [[event["time"], event["action"],
              "+".join(str(slot) for slot in event["slots"]),
              f"{event['replicas_before']}->{event['replicas_after']}",
              event["reason"]]
             for event in events],
        )
        lines = [f"scaling timeline ({len(events)} event(s))", table]
    if replica_seconds is not None:
        lines.append(f"replica-seconds: {replica_seconds:.1f}")
    return "\n".join(lines)


def format_serving_report(report) -> str:
    """Render a :class:`~repro.sim.ServingReport` as aligned tables.

    Sections: a one-line header, latency percentiles, SLO attainment,
    the per-stage queueing breakdown and resource utilization -- the
    printable form behind ``repro replay``.
    """
    lines: List[str] = [
        f"scenario {report.scenario}: {report.completed}/{report.offered} "
        f"requests completed over {report.duration:.2f}s "
        f"({report.throughput:.1f} QPS)"
    ]
    lines.append("")
    lines.append(format_table(
        ("metric", "mean", "p50", "p95", "p99"),
        [["TTFT (ms)"] + [report.ttft[key] * 1e3
                          for key in ("mean", "p50", "p95", "p99")],
         ["TPOT (ms)"] + [report.tpot[key] * 1e3
                          for key in ("mean", "p50", "p95", "p99")]],
    ))
    slo_rows = []
    for name, target in (("TTFT", report.slo.ttft),
                         ("TPOT", report.slo.tpot)):
        slo_rows.append([
            name,
            "-" if target is None else f"{target * 1e3:.4g} ms",
            f"{100 * report.slo_attainment[name.lower()]:.1f}%",
        ])
    slo_rows.append(["joint", "-",
                     f"{100 * report.slo_attainment['joint']:.1f}%"])
    lines.append("")
    lines.append(format_table(("SLO", "target", "attainment"), slo_rows))
    if report.queueing:
        lines.append("")
        lines.append(format_table(
            ("stage", "mean wait (ms)", "p95 wait (ms)", "max wait (ms)"),
            [[stage, stats["mean_wait"] * 1e3, stats["p95_wait"] * 1e3,
              stats["max_wait"] * 1e3]
             # Queueing rows follow the report's pipeline-stage order,
             # which is the deterministic execution order -- sorting
             # alphabetically would scramble the dataflow story.
             for stage, stats in report.queueing.items()],  # simlint: allow[unsorted-dict-iteration-in-reporting]
        ))
    if report.tiers:
        lines.append("")
        lines.append(format_table(
            ("tier", "users", "completed", "joint SLO", "p95 TTFT (ms)",
             "p95 TPOT (ms)", "worst-user p95 TTFT (ms)"),
            [[tier, stats["users"],
              f"{stats['completed']}/{stats['offered']}",
              f"{100 * stats['slo_attainment']['joint']:.1f}%",
              stats["ttft_p95"] * 1e3, stats["tpot_p95"] * 1e3,
              stats["worst_user_p95_ttft"] * 1e3]
             for tier, stats in sorted(report.tiers.items())],
        ))
    if report.fairness:
        lines.append("")
        lines.append(
            f"fairness: {report.fairness['users']:.0f} user(s), "
            f"Jain index over per-user completions "
            f"{report.fairness['jain_completions']:.3f}")
    if report.utilization:
        busiest = sorted(report.utilization.items(),
                         key=lambda item: item[1], reverse=True)
        lines.append("")
        lines.append("utilization: " + "  ".join(
            f"{name}={100 * value:.0f}%" for name, value in busiest))
    return "\n".join(lines)


def format_whatif_table(result) -> str:
    """Render a :class:`~repro.rago.whatif.WhatIfResult` as the
    capacity-planning Pareto table.

    One row per grid cell -- policy knobs, SLO attainment, p95 TTFT
    and the chip-seconds cost axis -- with frontier members starred in
    the ``pareto`` column and infeasible cells carrying their error in
    place of metrics. A footer summarizes the frontier and cache hits.
    """
    rows = []
    for row in result.rows:
        if row["error"] is not None:
            metric_cells = ["-", "-", "-", "-", row["error"]]
        else:
            metric_cells = [row["qps"],
                            f"{100 * row['attainment']:.1f}%",
                            row["p95_ttft"] * 1e3,
                            row["chip_seconds"],
                            "*" if row["pareto"] else ""]
        rows.append([
            row["schedule"],
            "auto" if row["replicas"] is None else row["replicas"],
            row["routing"] or "-",
            row["autoscale"] or "-",
        ] + metric_cells)
    table = format_table(
        ("schedule", "replicas", "routing", "autoscale", "QPS",
         "attainment", "p95 TTFT (ms)", "chip-seconds", "pareto"),
        rows, title="what-if policy grid")
    frontier = result.frontier()
    footer = (f"{len(result.cells)} cell(s): "
              f"{len(result.ok_cells)} ok, "
              f"{len(result.errors)} infeasible, "
              f"{result.cache_hits} cached; "
              f"frontier {len(frontier)} cell(s)")
    return f"{table}\n{footer}"


def format_worker_utilization(workers: Sequence[dict]) -> str:
    """Render a backend's per-worker utilization records as a table.

    Args:
        workers: :func:`repro.distrib.run_cells` worker records
            (``worker``, ``cells``).

    A fully-memoized run has no worker records; that renders as a
    one-line note instead of raising.
    """
    if not workers:
        return "worker utilization: no workers ran"
    table = format_table(
        ("worker", "cells"),
        [[row["worker"], row["cells"]] for row in workers],
    )
    return f"worker utilization\n{table}"


def format_findings(findings: Sequence[object]) -> str:
    """Render simlint findings as an aligned table.

    Args:
        findings: :class:`~repro.analysis.Finding` records, already
            sorted by the linter (path, line, rule).

    A clean tree renders as a one-line note instead of raising -- zero
    findings is the linter's success state, not a degenerate input.
    """
    if not findings:
        return "simlint: no findings"
    table = format_table(
        ("rule", "severity", "location", "message"),
        [[finding.rule_id, finding.severity, finding.location,
          finding.message] for finding in findings],
    )
    return f"simlint findings\n{table}\n{len(findings)} finding(s)"


def format_explanations(findings: Sequence[object],
                        rule_id: str) -> str:
    """Render the evidence chains behind one rule's findings
    (``repro lint --explain <rule>``).

    Each finding prints as its location + message followed by one
    indented line per witness-chain step (``path:line: who -> what``);
    rules without recorded evidence render a placeholder note so
    ``--explain`` is meaningful for the syntactic rules too.
    """
    relevant = [finding for finding in findings
                if finding.rule_id == rule_id]
    if not relevant:
        return f"--explain {rule_id}: no findings from this rule"
    lines = [f"evidence for {rule_id} "
             f"({len(relevant)} finding(s))"]
    for finding in relevant:
        lines.append(f"* {finding.location}: {finding.message}")
        if finding.evidence:
            lines.extend(f"    {step}" for step in finding.evidence)
        else:
            lines.append("    (single-site finding; the location "
                         "above is the whole evidence)")
    return "\n".join(lines)
