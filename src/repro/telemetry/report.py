"""The human-readable telemetry report.

:func:`render` turns one
:class:`~repro.telemetry.collector.TelemetryCollector` into the table
an engineer reads to find the slow kernel: per kernel × back-end ×
device launch counts, launch and block latency percentiles, occupancy,
modeled-vs-wall skew, then the cache hit rates and a span summary.

Formatting leans on the shared bench table renderer
(:func:`repro.comparison.render.render_table`), so telemetry reports
look like the paper-figure benches they sit next to.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..comparison.render import render_table
from . import spanlog
from .collector import TelemetryCollector
from .metrics import Histogram

__all__ = ["render", "summary"]


def _fmt_seconds(seconds: float) -> str:
    if seconds <= 0:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def _fmt_rate(rate: Optional[float]) -> str:
    return "-" if rate is None else f"{rate * 100:.1f} %"


def _find(collector, metric: str, **labels) -> Optional[object]:
    for inst in collector.registry.instruments(metric):
        have = dict(inst.labels)
        if all(have.get(k) == v for k, v in labels.items()):
            return inst
    return None


def _sum_counters(collector, metric: str, **labels) -> float:
    """Total over every instrument matching ``labels`` (a kernel that ran
    under several schedules owns one counter per schedule)."""
    total = 0.0
    for inst in collector.registry.instruments(metric):
        have = dict(inst.labels)
        if all(have.get(k) == v for k, v in labels.items()):
            total += inst.value
    return total


def _launch_rows(collector: TelemetryCollector) -> List[Dict[str, object]]:
    rows = []
    for kernel, backend, device in collector.kernels():
        launches = _find(
            collector, "repro_launches_total",
            kernel=kernel, backend=backend, device=device,
        )
        launch_h = _find(
            collector, "repro_launch_seconds",
            kernel=kernel, backend=backend, device=device,
        )
        block_h = _find(
            collector, "repro_block_seconds", kernel=kernel, backend=backend
        )
        occ = _find(
            collector, "repro_occupancy_ratio",
            kernel=kernel, backend=backend, device=device,
        )
        wall = _find(
            collector, "repro_launch_wall_seconds_total",
            kernel=kernel, backend=backend, device=device,
        )
        modeled = _find(
            collector, "repro_launch_modeled_seconds_total",
            kernel=kernel, backend=backend, device=device,
        )
        skew = "-"
        if wall is not None and modeled is not None and wall.value > 0:
            if modeled.value > 0:
                skew = f"{modeled.value / wall.value:.2f}x"
        row: Dict[str, object] = {
            "kernel": kernel,
            "backend": backend,
            "launches": int(_sum_counters(
                collector, "repro_launches_total",
                kernel=kernel, backend=backend, device=device,
            )) if launches else 0,
            "launch p50": _fmt_seconds(
                launch_h.percentile(50) if launch_h else 0.0
            ),
        }
        if isinstance(block_h, Histogram) and block_h.count:
            q = block_h.quantiles()
            row["block p50"] = _fmt_seconds(q["p50"])
            row["block p95"] = _fmt_seconds(q["p95"])
            row["block p99"] = _fmt_seconds(q["p99"])
        else:
            row["block p50"] = row["block p95"] = row["block p99"] = "-"
        row["occupancy"] = (
            f"{occ.mean * 100:.0f} %" if isinstance(occ, Histogram) and occ.count
            else "-"
        )
        row["modeled/wall"] = skew
        total = _sum_counters(
            collector, "repro_launches_total",
            kernel=kernel, backend=backend, device=device,
        )
        vectorised = _sum_counters(
            collector, "repro_launches_total",
            kernel=kernel, backend=backend, device=device,
            schedule="compiled",
        )
        row["compiled"] = (
            f"{int(vectorised)}/{int(total)}" if vectorised else "-"
        )
        rows.append(row)
    return rows


def _span_rows(collector: TelemetryCollector) -> List[Dict[str, object]]:
    rows = []
    for inst in collector.registry.instruments("repro_span_seconds"):
        if not isinstance(inst, Histogram) or not inst.count:
            continue
        labels = dict(inst.labels)
        q = inst.quantiles()
        rows.append(
            {
                "span": f"{labels.get('cat', '?')}/{labels.get('span', '?')}",
                "count": inst.count,
                "p50": _fmt_seconds(q["p50"]),
                "p95": _fmt_seconds(q["p95"]),
                "p99": _fmt_seconds(q["p99"]),
                "total": _fmt_seconds(inst.sum),
            }
        )
    rows.sort(key=lambda r: r["span"])
    return rows


def _graph_rows(collector: TelemetryCollector) -> List[Dict[str, object]]:
    """One row per graph track: submissions, node count, critical path
    and the copy/compute overlap ratio (the dataflow-graph scheduler's
    headline numbers)."""
    by_graph: Dict[str, Dict[str, object]] = {}
    for metric in (
        "repro_graph_submits_total",
        "repro_graph_nodes_total",
        "repro_graph_wall_seconds_total",
        "repro_graph_critical_path_seconds",
        "repro_graph_overlap_ratio",
    ):
        for inst in collector.registry.instruments(metric):
            labels = dict(inst.labels)
            key = labels.get("graph", "?")
            row = by_graph.setdefault(
                key, {"graph": key, "mode": labels.get("mode", "?")}
            )
            row[metric] = inst
    rows = []
    for key in sorted(by_graph, key=lambda g: int(g.lstrip("g") or 0)):
        r = by_graph[key]
        submits = r.get("repro_graph_submits_total")
        nodes = r.get("repro_graph_nodes_total")
        wall = r.get("repro_graph_wall_seconds_total")
        cp = r.get("repro_graph_critical_path_seconds")
        ov = r.get("repro_graph_overlap_ratio")
        n_submits = int(submits.value) if submits else 0
        rows.append(
            {
                "graph": r["graph"],
                "mode": r["mode"],
                "submits": n_submits,
                "nodes": int(nodes.value // max(1, n_submits)) if nodes else 0,
                "wall p50": _fmt_seconds(
                    wall.value / n_submits if wall and n_submits else 0.0
                ),
                "critical path p50": _fmt_seconds(
                    cp.percentile(50) if isinstance(cp, Histogram) else 0.0
                ),
                "overlap": (
                    f"{ov.mean:.2f}x"
                    if isinstance(ov, Histogram) and ov.count
                    else "-"
                ),
            }
        )
    return rows


def _serve_rows(collector: TelemetryCollector) -> List[Dict[str, object]]:
    """One row per serving tenant: admissions, rejections, latency
    percentiles — the multi-tenant gateway's fairness at a glance."""
    tenants: Dict[str, Dict[str, object]] = {}
    for inst in collector.registry.instruments("repro_serve_requests_total"):
        labels = dict(inst.labels)
        tenant = labels.get("tenant", "?")
        row = tenants.setdefault(tenant, {"tenant": tenant})
        row[labels.get("outcome", "?")] = int(inst.value)
    for inst in collector.registry.instruments("repro_serve_latency_seconds"):
        if not isinstance(inst, Histogram) or not inst.count:
            continue
        tenant = dict(inst.labels).get("tenant", "?")
        row = tenants.setdefault(tenant, {"tenant": tenant})
        q = inst.quantiles()
        row["_q"] = q
        row["_count"] = inst.count
    rows = []
    for tenant in sorted(tenants):
        r = tenants[tenant]
        q = r.get("_q", {})
        rows.append(
            {
                "tenant": tenant,
                "completed": r.get("_count", 0),
                "queued": r.get("queued", 0),
                "rejected": r.get("rejected", 0),
                "p50": _fmt_seconds(q.get("p50", 0.0)),
                "p95": _fmt_seconds(q.get("p95", 0.0)),
                "p99": _fmt_seconds(q.get("p99", 0.0)),
            }
        )
    return rows


def _counter_total(collector, metric: str) -> float:
    return sum(inst.value for inst in collector.registry.instruments(metric))


def summary(collector: TelemetryCollector) -> Dict[str, object]:
    """The report's aggregates as a plain dict (programmatic access)."""
    records, dropped = collector.window()
    return {
        "launches": int(_counter_total(collector, "repro_launches_total")),
        "copies": int(_counter_total(collector, "repro_copies_total")),
        "queue_drains": int(
            _counter_total(collector, "repro_queue_drains_total")
        ),
        "sanitizer_findings": int(
            _counter_total(collector, "repro_sanitizer_findings_total")
        ),
        "graph_submits": int(
            _counter_total(collector, "repro_graph_submits_total")
        ),
        "serve_requests": int(
            _counter_total(collector, "repro_serve_requests_total")
        ),
        "plan_cache_hit_rate": collector.plan_cache_hit_rate,
        "tuning_cache_hit_rate": collector.tuning_cache_hit_rate,
        "trace_events": len(records),
        "dropped_events": dropped,
    }


def render(collector: TelemetryCollector) -> str:
    """The full report: launch table, cache rates, span summary."""
    parts: List[str] = []
    title = "repro telemetry report"
    if collector.label:
        title += f" — {collector.label}"
    parts.append(title)
    parts.append("=" * len(title))

    agg = summary(collector)
    launch_rows = _launch_rows(collector)
    if launch_rows:
        parts.append("")
        parts.append(
            render_table(launch_rows, "Launches (per kernel x back-end)")
        )
    else:
        parts.append("")
        parts.append("No launches recorded.")

    parts.append("")
    parts.append(
        f"plan-cache hit rate:   {_fmt_rate(agg['plan_cache_hit_rate'])}"
    )
    parts.append(
        f"tuning-cache hit rate: {_fmt_rate(agg['tuning_cache_hit_rate'])}"
    )
    parts.append(
        f"launches: {agg['launches']}   copies: {agg['copies']}   "
        f"queue drains: {agg['queue_drains']}   "
        f"sanitizer findings: {agg['sanitizer_findings']}"
    )

    graph_rows = _graph_rows(collector)
    if graph_rows:
        parts.append("")
        parts.append(
            render_table(
                graph_rows, "Dataflow graphs (critical path & overlap)"
            )
        )

    serve_rows = _serve_rows(collector)
    if serve_rows:
        parts.append("")
        parts.append(
            render_table(serve_rows, "Serving (per tenant)")
        )

    span_rows = _span_rows(collector)
    if span_rows:
        parts.append("")
        parts.append(render_table(span_rows, "Spans"))

    if agg["dropped_events"]:
        parts.append("")
        parts.append(
            f"WARNING: span log wrapped — {agg['dropped_events']} record(s) "
            f"older than the last {spanlog.CAPACITY} were dropped; "
            "the exported trace is incomplete."
        )
    return "\n".join(parts)
