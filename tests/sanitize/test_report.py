"""Reports, activation paths, observer/telemetry integration, CLI."""

from __future__ import annotations

import pytest

from repro import (
    Grid,
    QueueBlocking,
    Threads,
    WorkDivMembers,
    accelerator,
    create_task_kernel,
    fn_acc,
    get_dev_by_idx,
    get_idx,
    mem,
    observe,
)
from repro.core.errors import SanitizerError
from repro.runtime.instrument import ExecutionObserver
from repro.sanitize import SANITIZE_ENV, SanitizerReport, enabled, sanitize_active


class RacyKernel:
    @fn_acc
    def __call__(self, acc, n, out):
        bi = get_idx(acc, Grid, Threads)[0]
        out[0] = float(bi)


class CleanKernel:
    @fn_acc
    def __call__(self, acc, n, out):
        i = get_idx(acc, Grid, Threads)[0]
        if i < n:
            out[i] = float(i)


def _launch(kernel, n=4):
    acc = accelerator("AccCpuSerial")
    dev = get_dev_by_idx(acc, 0)
    q = QueueBlocking(dev)
    out = mem.alloc(dev, n)
    mem.memset(q, out, 0.0)
    wd = WorkDivMembers.make(n, 1, 1)
    q.enqueue(create_task_kernel(acc, wd, kernel, n, out))
    return out


class TestActivation:
    def test_inactive_by_default(self):
        assert not sanitize_active()

    def test_enabled_context_collects(self):
        with enabled(label="t") as report:
            assert sanitize_active()
            _launch(RacyKernel())
        assert not sanitize_active()
        assert not report.clean
        assert report.launches[0].kernel == "RacyKernel"

    def test_env_var_activates(self, monkeypatch):
        seen = []

        class Obs(ExecutionObserver):
            def on_span_end(self, span):
                if "sanitize_findings" in span.attrs:
                    seen.append(span.attrs["plan"].kernel)

        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert sanitize_active()
        with observe(Obs()):
            _launch(CleanKernel())
        assert [type(k).__name__ for k in seen] == ["CleanKernel"]

    def test_clean_launch_clean_report(self):
        with enabled() as report:
            _launch(CleanKernel())
        assert report.clean
        report.raise_if_findings()  # no-op when clean

    def test_raise_if_findings(self):
        with enabled() as report:
            _launch(RacyKernel())
        with pytest.raises(SanitizerError, match="data-race"):
            report.raise_if_findings()


def _kept_records():
    """Launch records the sanitizer's own module state holds on to."""
    from repro.sanitize import _state

    return sum(
        len(v.launches)
        for v in vars(_state).values()
        if isinstance(v, SanitizerReport)
    )


RACY_DEMO = """\
from repro import QueueBlocking, accelerator, get_dev_by_idx
from repro.sanitize.demos import DEMOS, demo_backends

build, _ = DEMOS["racy-gemm"]
acc = accelerator(next(iter(demo_backends("racy-gemm"))))
dev = get_dev_by_idx(acc, 0)
QueueBlocking(dev).enqueue(build(acc, dev))
"""


class TestBoundedState:
    """A long sanitized process must not grow: the sanitizer keeps a
    launch only where someone reads it."""

    def test_clean_launches_are_not_kept(self, monkeypatch):
        acc = accelerator("AccCpuSerial")
        dev = get_dev_by_idx(acc, 0)
        q = QueueBlocking(dev)
        out = mem.alloc(dev, 1)
        task = create_task_kernel(
            acc, WorkDivMembers.make(1, 1, 1), CleanKernel(), 1, out
        )
        before = _kept_records()
        with enabled() as report:
            for _ in range(1000):
                q.enqueue(task)
        assert len(report.launches) == 1000 and report.clean
        monkeypatch.setenv(SANITIZE_ENV, "1")
        for _ in range(1000):
            q.enqueue(task)
        assert _kept_records() == before

    def test_env_findings_still_print_at_exit(self, tmp_path):
        import os
        import subprocess
        import sys

        script = tmp_path / "racy.py"
        script.write_text(RACY_DEMO)
        repo = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        env = dict(os.environ)
        env[SANITIZE_ENV] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(repo, "src"), env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert f"[{SANITIZE_ENV} session]" in done.stderr
        assert "data-race" in done.stderr


class TestReportContents:
    def test_render_names_kernel_backend_and_site(self):
        with enabled() as report:
            _launch(RacyKernel())
        text = report.render()
        assert "RacyKernel" in text and "AccCpuSerial" in text
        assert "data-race" in text and __file__ in text
        assert "out[0] = float(bi)" in text

    def test_counts_by_kind(self):
        with enabled() as report:
            _launch(RacyKernel())
        assert set(report.counts_by_kind()) == {"data-race"}

    def test_findings_dedup_with_count(self):
        with enabled() as report:
            _launch(RacyKernel(), n=6)
        races = [f for f in report.findings if f.kind == "data-race"]
        assert len(races) == 1  # one site pair, deduplicated
        assert races[0].count == 5


class TestObserverIntegration:
    def test_on_sanitizer_report_hook_fires(self):
        """The report reaches observers as the launch span's finding
        count."""
        seen = []

        class Obs(ExecutionObserver):
            def on_span_end(self, span):
                if span.name == "launch":
                    seen.append(span.attrs.get("sanitize_findings"))

        with observe(Obs()):
            with enabled() as report:
                _launch(RacyKernel())
        assert seen == [len(report.launches[0].findings)]
        assert report.launches[0].kernel == "RacyKernel" and seen[0] > 0

    def test_timeline_records_sanitize_event(self):
        from repro import telemetry

        with telemetry.collect() as t:
            with enabled() as report:
                _launch(RacyKernel())
        events = telemetry.to_chrome_trace(t)["traceEvents"]
        ev = [e for e in events if e.get("cat") == "launch"]
        assert len(ev) == 1
        assert ev[0]["name"] == "RacyKernel"
        findings = len(report.launches[0].findings)
        assert ev[0]["args"]["sanitize_findings"] == findings > 0
        assert telemetry.summary(t)["sanitizer_findings"] == findings

    def test_launch_begin_end_still_fire_when_sanitized(self):
        from repro import CountingObserver

        with observe(CountingObserver()) as stats:
            with enabled():
                _launch(CleanKernel())
        assert stats.launches == 1


class TestCli:
    def test_kernels_subcommand_clean(self, capsys):
        from repro.sanitize.cli import main

        rc = main(["kernels", "--backend", "AccCpuSerial", "--only", "axpy"])
        assert rc == 0
        assert "kernel sweep clean" in capsys.readouterr().out

    def test_demos_subcommand_flags(self, capsys):
        from repro.sanitize.cli import main

        rc = main(["demos", "oob-stencil", "--backend", "AccCpuSerial"])
        assert rc == 0
        assert "flagged as intended" in capsys.readouterr().out

    def test_run_subcommand_on_script(self, tmp_path, capsys):
        from repro.sanitize.cli import main

        script = tmp_path / "buggy.py"
        script.write_text(
            "import numpy as np\n"
            "from repro import (QueueBlocking, WorkDivMembers, accelerator,\n"
            "    create_task_kernel, fn_acc, get_dev_by_idx, get_idx, mem,\n"
            "    Grid, Threads)\n"
            "class K:\n"
            "    @fn_acc\n"
            "    def __call__(self, acc, n, out):\n"
            "        out[0] = float(get_idx(acc, Grid, Threads)[0])\n"
            "acc = accelerator('AccCpuSerial')\n"
            "dev = get_dev_by_idx(acc, 0)\n"
            "q = QueueBlocking(dev)\n"
            "out = mem.alloc(dev, 1)\n"
            "mem.memset(q, out, 0.0)\n"
            "q.enqueue(create_task_kernel(\n"
            "    acc, WorkDivMembers.make(4, 1, 1), K(), 4, out))\n"
        )
        rc = main(["run", str(script)])
        assert rc == 1
        assert "data-race" in capsys.readouterr().out
