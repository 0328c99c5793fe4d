"""Per-request call budget of the served path.

A fresh request of a known signature should cost about what a warm
re-launch of one argument tuple costs.  Time is noisy on a shared host;
the number of Python-level calls is not.  A fresh interpreter counts,
with ``sys.setprofile`` (``call`` and ``c_call`` events), one solo
``axpy`` (n=256, fresh arrays, ``AccCpuSerial``) through
``Workload.execute`` and one lone ``Gateway.submit`` on the gateway's
loop thread, each after a warm-up of the same signature.  Run with
``-s`` to see the counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

#: Python-level calls of one solo served axpy (measured: 122).
EXECUTE_CALLS = 140
#: Python-level calls of one lone submit, execute included (measured: 310).
SUBMIT_CALLS = 330

_SCRIPT = textwrap.dedent(
    """
    import json, sys, threading
    import numpy as np
    from repro import accelerator, get_dev_by_idx
    from repro.runtime import observers
    from repro.serve import Gateway, LaunchRequest, get_workload
    from repro.telemetry import flight

    acc = accelerator("AccCpuSerial")
    dev = get_dev_by_idx(acc, 0)
    workload = get_workload("axpy")
    rng = np.random.default_rng(0)

    def fresh():
        return LaunchRequest(
            workload="axpy", params={"alpha": 2.0}, owns_arrays=True,
            arrays={"x": rng.random(256), "y": rng.random(256)},
        )

    def count(fn):
        calls = [0]

        def profile(frame, event, arg):
            if event == "call" or event == "c_call":
                calls[0] += 1

        sys.setprofile(profile)
        try:
            out = fn()
        finally:
            sys.setprofile(None)
        return calls[0], out

    assert not observers() and not flight.active()
    for _ in range(20):
        workload.execute([fresh()], acc, dev)
    request = fresh()
    # Computed first: the request owns its arrays, so y is updated in place.
    want = 2.0 * request.arrays["x"] + request.arrays["y"]
    execute, (reply,) = count(lambda: workload.execute([request], acc, dev))

    gateway = Gateway(lanes=(("AccCpuSerial", 0),))
    done = threading.Event()
    result = {}

    def on_loop():
        try:
            for _ in range(20):
                gateway.submit(fresh(), lone=True).result(0)
            result["calls"], handle = count(
                lambda: gateway.submit(fresh(), lone=True)
            )
            result["resolved"] = handle.done()
        finally:
            done.set()

    gateway._loop.call_soon_threadsafe(on_loop)
    done.wait(60)
    gateway.shutdown()
    print(json.dumps({
        "execute": execute,
        "submit": result["calls"],
        "resolved": result["resolved"],
        "bit_identical": bool(np.array_equal(reply["y"], want)),
    }))
    """
)


def _counts() -> dict:
    src = Path(__file__).resolve().parents[2] / "src"
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONPATH"
    }
    env["PYTHONPATH"] = str(src)
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_a_served_request_stays_within_its_call_budget():
    counts = _counts()
    print(
        f"\nper-request Python calls: solo execute {counts['execute']} "
        f"(budget {EXECUTE_CALLS}), lone submit {counts['submit']} "
        f"(budget {SUBMIT_CALLS})"
    )
    assert counts["bit_identical"]
    assert counts["resolved"], "a lone request runs inside its submit"
    assert counts["execute"] <= EXECUTE_CALLS
    assert counts["submit"] <= SUBMIT_CALLS
