"""Batch passes run with the cyclic garbage collector paused.

A configure, deploy, delta, reconcile or bus pass allocates hundreds of
thousands of container objects and frees almost none of them before it
returns.  CPython's collector counts those allocations and, as the heap
the pass is building grows, runs ever larger collections over it that
find nothing to free.  :func:`collector_paused` turns the collector off
for the duration of such a pass; whatever garbage the pass did leave is
collected as usual once it returns and allocation resumes.

The pause is re-entrant (a pass nested in another leaves the collector
off until the outermost one returns), respects a caller that switched
the collector off itself, and restores the collector's state however
the pass ends.  It is process-wide: another thread's collections wait
too (``repro`` starts no threads).  This module is the one place in
``repro`` that switches the collector off and on.
"""

from __future__ import annotations

import functools
import gc
from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def collector_paused(function: F) -> F:
    """Decorate a batch pass so it runs with the collector off.

    The collector is disabled only if it is enabled when the pass
    starts, and re-enabled in ``finally``: an exception out of the pass
    leaves :func:`gc.isenabled` as the caller had it.
    """

    @functools.wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            gc.enable()

    return paused  # type: ignore[return-value]
