"""Exporters: Chrome ``trace_event`` JSON and Prometheus text format.

Two wire formats, both consumed by standard tools:

* :func:`to_chrome_trace` emits the Trace Event Format (the
  ``traceEvents`` JSON object array) that Perfetto and
  ``chrome://tracing`` load directly — spans and launches as complete
  (``"X"``) slices, queue drains and sanitizer reports as instant
  (``"i"``) markers;
* :func:`to_prometheus` renders a
  :class:`~repro.telemetry.metrics.MetricsRegistry` in the Prometheus
  text exposition format (``# HELP`` / ``# TYPE`` headers, cumulative
  ``_bucket{le=...}`` histogram series).

:func:`validate_trace` is the schema check the CI job and the test
suite run against exported traces: it accepts exactly what the Trace
Event Format requires, so a trace that validates here loads in
Perfetto.

:func:`stitch_traces` merges the per-process traces of a distributed
run (client, gateway, tuning workers) into one Perfetto-loadable
file: each input's default-pid events are remapped to that process's
real pid, and cross-process parent/child span links (the
``trace_id`` / ``span_id`` / ``parent_id`` args the collector stamps)
become flow arrows (``"s"``/``"f"`` events).
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Iterable, List, Optional, Union

from .collector import TelemetryCollector
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "to_prometheus",
    "validate_trace",
    "stitch_traces",
    "TraceValidationError",
]

#: ``pid`` of every event the exporting process writes;
#: ``otherData.pid`` records the exporter's real pid so
#: :func:`stitch_traces` can remap it.
TRACE_PID = 1

_VALID_PHASES = {"X", "i", "B", "E", "M", "C", "s", "t", "f"}
_FLOW_PHASES = {"s", "t", "f"}


class TraceValidationError(ValueError):
    """An exported trace violates the Trace Event Format."""


def to_chrome_trace(collector: TelemetryCollector) -> dict:
    """The collector's events as a Trace Event Format object.

    Returns the JSON-ready dict (``{"traceEvents": [...], ...}``);
    serialise with :func:`json.dump` or :func:`write_chrome_trace`.
    """
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": f"repro telemetry {collector.label}".strip()},
        }
    ]
    for ev in list(collector.events):
        entry = {
            "name": ev.name,
            "cat": ev.cat,
            "ph": ev.ph,
            "ts": max(0.0, ev.ts),
            "pid": TRACE_PID,
            "tid": ev.tid,
            "args": ev.args,
        }
        if ev.ph == "X":
            entry["dur"] = max(0.0, ev.dur)
        if ev.ph == "i":
            entry["s"] = "t"  # instant scope: thread
        events.append(entry)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.telemetry",
            "dropped_events": collector.dropped_events,
            "pid": os.getpid(),
        },
    }


def write_chrome_trace(collector: TelemetryCollector, path: str) -> str:
    """Serialise :func:`to_chrome_trace` to ``path``; returns the path."""
    trace = to_chrome_trace(collector)
    validate_trace(trace)
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    return path


def validate_trace(trace: Union[dict, str]) -> dict:
    """Check ``trace`` (dict or JSON string) against the Trace Event
    Format; returns the parsed dict or raises
    :class:`TraceValidationError` naming the offending event."""
    if isinstance(trace, str):
        try:
            trace = json.loads(trace)
        except ValueError as exc:
            raise TraceValidationError(f"not valid JSON: {exc}") from None
    if not isinstance(trace, dict):
        raise TraceValidationError(
            f"top level must be an object, got {type(trace).__name__}"
        )
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise TraceValidationError("missing 'traceEvents' array")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            raise TraceValidationError(f"{where}: not an object")
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            raise TraceValidationError(f"{where}: bad phase {ph!r}")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            raise TraceValidationError(f"{where}: missing event name")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise TraceValidationError(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TraceValidationError(f"{where}: bad dur {dur!r}")
        if ph in _FLOW_PHASES:
            flow_id = ev.get("id")
            if not isinstance(flow_id, (int, str)):
                raise TraceValidationError(
                    f"{where}: flow event needs an 'id' (got {flow_id!r})"
                )
        for key in ("pid", "tid"):
            if key in ev and not isinstance(ev[key], int):
                raise TraceValidationError(
                    f"{where}: {key} must be an integer"
                )
        if "args" in ev and not isinstance(ev["args"], dict):
            raise TraceValidationError(f"{where}: args must be an object")
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as exc:
        raise TraceValidationError(
            f"trace is not JSON-serialisable: {exc}"
        ) from None
    return trace


def stitch_traces(traces: Iterable[Union[dict, str]]) -> dict:
    """Merge per-process Chrome traces into one distributed trace.

    ``traces`` are :func:`to_chrome_trace`-shaped dicts (or JSON
    strings) exported by different processes — client, gateway, tuning
    workers.  Stitching does three things:

    * **pid remapping** — each input's default-pid events
      (:data:`TRACE_PID`) are rewritten to that process's real pid
      (``otherData.pid``), so every process gets its own track; events
      already carrying a real pid keep it;
    * **track naming** — one ``process_name`` metadata event survives
      per distinct pid;
    * **flow arrows** — every event whose ``args.parent_id`` resolves
      to another event's ``args.span_id`` on a *different* ``(pid,
      tid)`` grows a ``"s"``→``"f"`` flow pair, so Perfetto draws the
      cross-process/cross-thread arrows of the request.

    The result is validated before it is returned.  Timestamps are
    assumed comparable: every collector stamps ``ts`` from
    ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, one clock
    machine-wide), minus its own start — stitched positions are
    per-process-relative, which Perfetto renders fine; the arrows carry
    the causality.
    """
    merged: List[dict] = []
    meta_by_pid: Dict[int, dict] = {}
    dropped = 0
    source_pids: List[int] = []
    for idx, trace in enumerate(traces):
        trace = validate_trace(trace)
        other = trace.get("otherData") or {}
        real_pid = other.get("pid")
        if not isinstance(real_pid, int) or real_pid == 0:
            # No recorded pid: synthesize a stable stand-in per input.
            real_pid = 1_000_000 + idx
        source_pids.append(real_pid)
        dropped += int(other.get("dropped_events", 0) or 0)
        for ev in trace["traceEvents"]:
            ev = dict(ev)
            pid = ev.get("pid", TRACE_PID)
            if pid == TRACE_PID:
                pid = real_pid
            ev["pid"] = pid
            if ev.get("ph") == "M" and ev.get("name") == "process_name":
                meta_by_pid.setdefault(pid, ev)
                continue
            merged.append(ev)

    # Index span ids -> owning slice, then draw one arrow per
    # cross-track parent/child edge.
    by_span: Dict[str, dict] = {}
    for ev in merged:
        args = ev.get("args") or {}
        span_id = args.get("span_id")
        if isinstance(span_id, str) and span_id not in by_span:
            by_span[span_id] = ev
    flows: List[dict] = []
    for ev in merged:
        args = ev.get("args") or {}
        parent_id = args.get("parent_id")
        span_id = args.get("span_id")
        if not isinstance(parent_id, str) or not isinstance(span_id, str):
            continue
        parent = by_span.get(parent_id)
        if parent is None:
            continue
        same_track = (
            parent.get("pid") == ev.get("pid")
            and parent.get("tid") == ev.get("tid")
        )
        if same_track:
            continue
        flow_id = span_id  # unique per edge: one child, one arrow in
        flows.append(
            {
                "name": "trace",
                "cat": "flow",
                "ph": "s",
                "id": flow_id,
                "ts": parent.get("ts", 0.0),
                "pid": parent["pid"],
                "tid": parent.get("tid", 0),
            }
        )
        flows.append(
            {
                "name": "trace",
                "cat": "flow",
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "ts": ev.get("ts", 0.0),
                "pid": ev["pid"],
                "tid": ev.get("tid", 0),
            }
        )

    merged.sort(key=lambda e: (e.get("ts", 0.0), e.get("pid", 0)))
    events: List[dict] = [
        meta_by_pid[pid] for pid in sorted(meta_by_pid)
    ] + merged + flows
    stitched = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.telemetry",
            "stitched_from": source_pids,
            "dropped_events": dropped,
            "flow_edges": len(flows) // 2,
        },
    }
    return validate_trace(stitched)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


#: Legal exposition-format identifiers.  Names produced at runtime (a
#: kernel class name, a tenant string from the network) may contain
#: anything; the exporter must never emit a line Prometheus rejects.
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _sanitize_name(name: str, pattern: "re.Pattern") -> str:
    if pattern.match(name):
        return name
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value: str) -> str:
    # Text-format escaping for quoted label values: backslash, quote
    # and newline, in that order (escaping the escapes first).
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    # HELP lines escape only backslash and newline (quotes stay bare).
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _labels_str(labels, extra: Optional[dict] = None) -> str:
    pairs = list(labels) + sorted((extra or {}).items())
    if not pairs:
        return ""
    inner = ",".join(
        f"{_sanitize_name(str(k), _LABEL_NAME_RE)}"
        f'="{_escape_label_value(str(v))}"'
        for k, v in pairs
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render ``registry`` in the Prometheus text exposition format.

    Metric names are emitted as registered (the runtime's counters
    already follow the ``_total`` convention); histograms expand into
    cumulative ``_bucket`` series plus ``_sum`` and ``_count``.

    Conformance guarantees (the text-format spec is strict and most
    scrapers are stricter): label values escape backslash, double quote
    and newline; ``# HELP`` text escapes backslash and newline; metric
    and label names with characters outside the legal identifier set
    are rewritten with underscores; and each family's ``# HELP`` /
    ``# TYPE`` headers are emitted exactly once, before its samples.
    """
    lines: List[str] = []
    emitted_families = set()
    # One lock acquisition for the whole exposition: a scrape racing
    # concurrent registration must never see a name without its kind.
    for raw_name, kind, help_text, instruments in registry.export_snapshot():
        name = _sanitize_name(raw_name, _METRIC_NAME_RE)
        # Two registered names collapsing onto one sanitized family
        # must not repeat the headers mid-exposition.
        if name not in emitted_families:
            emitted_families.add(name)
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
        for inst in instruments:
            if isinstance(inst, (Counter, Gauge)):
                lines.append(
                    f"{name}{_labels_str(inst.labels)} {_fmt(inst.value)}"
                )
            elif isinstance(inst, Histogram):
                cumulative = inst.cumulative_buckets()
                for bound, count in cumulative:
                    lines.append(
                        f"{name}_bucket"
                        f"{_labels_str(inst.labels, {'le': _fmt(bound)})}"
                        f" {count}"
                    )
                lines.append(
                    f"{name}_bucket"
                    f"{_labels_str(inst.labels, {'le': '+Inf'})}"
                    f" {inst.count}"
                )
                lines.append(
                    f"{name}_sum{_labels_str(inst.labels)} {_fmt(inst.sum)}"
                )
                lines.append(
                    f"{name}_count{_labels_str(inst.labels)} {inst.count}"
                )
    return "\n".join(lines) + "\n" if lines else ""
