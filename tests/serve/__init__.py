"""Serving tests; ``calls`` is shared by the gateway and online suites."""

import threading


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
