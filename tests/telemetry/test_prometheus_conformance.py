"""Prometheus text-exposition conformance.

The exporter's output must parse under the text-format grammar no
matter what strings runtime code (or a remote tenant name) put into
metric names, label values and help text: label values escape
backslash/quote/newline, HELP escapes backslash/newline, illegal name
characters are rewritten, and each family's headers appear exactly
once.
"""

from __future__ import annotations

import re

import pytest

from repro.telemetry.export import to_prometheus
from repro.telemetry.metrics import MetricsRegistry

#: One sample line: name{labels} value — the grammar a scraper parses.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\")*\})?"
    r" [^ \n]+$"
)


def _check_conformance(text: str) -> None:
    """Line-level validation of an exposition document."""
    families_seen = {"HELP": set(), "TYPE": set()}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# "):
            kind, name = line.split()[1:3]
            assert kind in ("HELP", "TYPE"), f"bad comment line: {line!r}"
            assert (
                name not in families_seen[kind]
            ), f"duplicate # {kind} for {name}"
            families_seen[kind].add(name)
            if kind == "HELP":
                body = line.split(" ", 3)[3] if len(line.split(" ", 3)) > 3 else ""
                assert "\n" not in body
                # Escaping must leave no bare backslash before an
                # unexpected character.
                assert re.fullmatch(r"(?:[^\\]|\\\\|\\n)*", body), (
                    f"unescaped backslash in HELP: {body!r}"
                )
            continue
        assert SAMPLE_RE.match(line), f"malformed sample line: {line!r}"


class TestEscaping:
    def test_label_value_backslash_quote_newline(self):
        reg = MetricsRegistry()
        reg.counter(
            "evil_total", "evil labels", tenant='a\\b"c\nd'
        ).inc()
        text = to_prometheus(reg)
        assert 'tenant="a\\\\b\\"c\\nd"' in text
        _check_conformance(text)

    def test_help_text_escaped(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "line one\nline two \\ backslash").inc()
        text = to_prometheus(reg)
        help_line = next(
            line for line in text.splitlines() if line.startswith("# HELP")
        )
        assert "\n" not in help_line
        assert "line one\\nline two \\\\ backslash" in help_line
        _check_conformance(text)

    def test_illegal_metric_name_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("weird.metric-name!").inc()
        text = to_prometheus(reg)
        assert "weird_metric_name_" in text
        _check_conformance(text)

    def test_illegal_label_name_sanitized(self):
        reg = MetricsRegistry()
        reg.counter("ok_total", **{"bad-label": "v"}).inc()
        text = to_prometheus(reg)
        assert "bad_label=" in text
        _check_conformance(text)


class TestFamilyHeaders:
    def test_headers_once_per_family(self):
        reg = MetricsRegistry()
        # Three label variants of one family must share one header pair.
        for tenant in ("a", "b", "c"):
            reg.counter(
                "repro_serve_requests_total",
                "Serving requests",
                tenant=tenant,
            ).inc()
        text = to_prometheus(reg)
        assert text.count("# HELP repro_serve_requests_total") == 1
        assert text.count("# TYPE repro_serve_requests_total") == 1
        _check_conformance(text)

    def test_headers_precede_samples(self):
        reg = MetricsRegistry()
        reg.gauge("depth", "queue depth", tenant="a").set(3)
        lines = to_prometheus(reg).splitlines()
        type_idx = next(
            i for i, l in enumerate(lines) if l.startswith("# TYPE depth")
        )
        sample_idx = next(
            i for i, l in enumerate(lines) if l.startswith("depth{")
        )
        assert type_idx < sample_idx

    def test_histogram_series_complete(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = to_prometheus(reg)
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        _check_conformance(text)


class TestWholeRegistry:
    def test_serving_metrics_export_clean(self):
        """The serve metric families (with tenant/lane/outcome labels)
        render a conformant document."""
        from repro.serve.metrics import (
            record_admission,
            record_batch,
            record_completion,
        )
        from repro.telemetry.metrics import registry, reset_registry

        reset_registry()
        try:
            record_admission("alice", "queued", depth=2)
            record_admission('we"ird\ntenant', "rejected", depth=9)
            record_completion("alice", 0.003, ok=True)
            record_batch(8, "AccCpuSerial/0", 0.002)
            text = to_prometheus(registry())
            _check_conformance(text)
            assert "repro_serve_requests_total" in text
            assert "repro_serve_batch_size_bucket" in text
        finally:
            reset_registry()

    def test_empty_registry_empty_output(self):
        assert to_prometheus(MetricsRegistry()) == ""
