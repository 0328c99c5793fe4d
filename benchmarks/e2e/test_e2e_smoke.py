"""Smoke test of the benchmark itself: ``pytest benchmarks/e2e``.

Not collected by tier-1 (``testpaths = ["tests"]``).  Runs
``run.py --quick`` once and checks the contract between
``BENCHMARK.json`` and what the benchmark prints.  Set
``E2E_SMOKE_FULL=1`` to also check one full-length contract run
(``ops_attempted >= 200``).
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_spec_shape(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [e["name"] for k in ("workloads", "end_to_end", "per_layer") for e in spec[k]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for wl in spec["workloads"]:
        assert set(wl) == {"name", "why"} and len(wl["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quick_run_reports_every_metric(spec):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    with open(os.path.join(HERE, "out", "BENCH_e2e_quick.json")) as fh:
        reported = {m["name"]: m for m in json.load(fh)["metrics"]}
    for wl in spec["workloads"]:
        for m in spec["end_to_end"] + spec["per_layer"]:
            entry = reported.get(f"{wl['name']}.{m['name']}")
            assert entry is not None, (wl["name"], m["name"])
            assert entry["unit"] == m["unit"]
            assert m["name"] in done.stdout
        assert reported[f"{wl['name']}.end_to_end.ops_failed"]["value"] == 0
        # End-to-end metrics are never 0.
        for m in spec["end_to_end"]:
            assert reported[f"{wl['name']}.{m['name']}"]["value"] > 0


def test_committed_baseline_discriminates():
    """The workloads stress different layers, as read from the traced
    pass of the committed baseline."""
    with open(os.path.join(HERE, "out", "BENCH_e2e.json")) as fh:
        v = {m["name"]: m["value"] for m in json.load(fh)["metrics"]}

    def codec_share(wl):
        codec = sum(
            v[f"{wl}.protocol.{step}_ms"]
            for step in ("encode_req", "decode_req", "encode_resp", "decode_resp")
        )
        return codec / v[f"{wl}.op.p50_ms"]

    assert codec_share("serve_bulk") >= 0.30
    assert codec_share("serve_small") <= 0.10
    assert v["serve_pipelined.batcher.mean_batch"] >= 8
    assert v["serve_small.batcher.mean_batch"] == 1
    assert v["launch_compiled.compile.vectorized_share"] > 0
    assert v["launch_interp.compile.vectorized_share"] == 0
    assert (
        v["launch_compiled.scheduler.per_block_us"]
        < v["launch_interp.scheduler.per_block_us"] / 5
    )
    for wl in ("serve_small", "serve_bulk", "serve_pipelined", "launch_interp", "launch_compiled"):
        assert f"{wl}.trace.unattributed_share" in v
        assert f"{wl}.trace.overhead_share" in v
        assert v[f"{wl}.end_to_end.ops_failed"] == 0
        assert v[f"{wl}.end_to_end.ops_attempted"] >= 200


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark has nothing to measure."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "trace_*.json"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "serve_small",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


@pytest.mark.skipif(not os.environ.get("E2E_SMOKE_FULL"), reason="full-length run")
def test_full_run_reaches_200_ops(spec):
    done = subprocess.run(
        spec["command"] + [
            "--workload", "launch_interp", "--seed", "0",
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 200
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
