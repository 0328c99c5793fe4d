"""Serving tests; ``calls`` and the ``Slow`` test workload are shared by
the gateway and server suites."""

import threading

import numpy as np

from repro.core.errors import ServeError
from repro.serve import Workload, register_workload


def calls(obj, name):
    """A semaphore released after each call of ``obj.name`` (wrapped on
    the instance), so a test waits on the gateway's progress instead of
    polling its state."""
    done = threading.Semaphore(0)
    method = getattr(obj, name)

    def wrapped(*args, **kwargs):
        try:
            return method(*args, **kwargs)
        finally:
            done.release()

    setattr(obj, name, wrapped)
    return done


class Slow(Workload):
    """Waits a little inside execute and counts the executions that
    overlap, per device; ``params["fail"]`` makes it raise, and
    ``params["gate"]`` sets ``started`` and waits for ``gate`` instead
    of the little while.  ``threads`` lists the thread of each run."""

    name = "test_slow_overlap"
    lock = threading.Lock()
    active: dict = {}
    most = 0
    threads: list = []
    started = threading.Event()
    gate = threading.Event()

    def validate(self, req):
        pass

    def batch_key(self, req):
        return None if req.params.get("fail") else ("test_slow_overlap",)

    def execute(self, requests, acc_type, device):
        cls = type(self)
        with cls.lock:
            cls.active[device] = cls.active.get(device, 0) + 1
            cls.most = max(cls.most, cls.active[device])
            cls.threads.append(threading.get_ident())
        try:
            if requests[0].params.get("gate"):
                cls.started.set()
                assert cls.gate.wait(30)
            else:
                threading.Event().wait(0.003)
            if requests[0].params.get("fail"):
                raise RuntimeError("inline boom")
            return [{"n": np.array([len(requests)])} for _ in requests]
        finally:
            with cls.lock:
                cls.active[device] -= 1


try:
    register_workload(Slow())
except ServeError:
    pass  # registered by an earlier import
