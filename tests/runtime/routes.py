"""The four routes by which one kernel launch reaches the runtime's
Execute stage (``repro.runtime.execute_plan``).  Shared by the
route-equivalence tests in ``tests/runtime/test_instrument.py`` and the
crash-dump tests in ``tests/telemetry/test_flight.py``."""

from repro import Graph, QueueBlocking, create_task_kernel, knobs, sanitize

ROUTES = ("queue", "graph-inline", "graph-queued", "sanitized")


def launch_via(route, dev, acc_type, work_div, kernel, *args):
    """Run one launch of ``kernel`` on ``dev`` by ``route``, to completion."""
    if route in ("graph-inline", "graph-queued"):
        g = Graph(default_device=dev)
        g.launch(acc_type, work_div, kernel, *args)
        with knobs.pinned(REPRO_GRAPH_REPLAY="1" if route == "graph-inline" else "0"):
            ex = g.submit()
        assert ex.last_stats.mode == route.split("-")[1]
        return
    task = create_task_kernel(acc_type, work_div, kernel, *args)
    if route == "sanitized":
        with sanitize.enabled():
            QueueBlocking(dev).enqueue(task)
    else:
        assert route == "queue", route
        QueueBlocking(dev).enqueue(task)
