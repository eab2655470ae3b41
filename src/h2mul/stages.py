"""Wall-clock stage marks of the drivers, recorded only on request."""

import time
from contextlib import contextmanager
from contextvars import ContextVar

__all__ = ["stage", "record_stages"]

_times: ContextVar[dict | None] = ContextVar("h2mul_stages", default=None)


@contextmanager
def stage(name: str):
    """Add the block's seconds under ``name`` to the open recording."""
    times = _times.get()
    start = time.perf_counter()
    yield
    if times is not None:
        times[name] = times.get(name, 0.0) + time.perf_counter() - start


@contextmanager
def record_stages():
    """Yield a fresh dict of seconds per stage run inside the block."""
    token = _times.set({})
    try:
        yield _times.get()
    finally:
        _times.reset(token)
