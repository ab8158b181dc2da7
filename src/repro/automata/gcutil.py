"""Cyclic-GC pause for allocation-heavy kernels.

The transform kernels allocate hundreds of thousands of long-lived
containers (adjacency rows, STEs, id strings) in one burst, and the
engine's run loops (``BitsetEngine._execute`` and ``_execute_lanes``)
allocate step-table entries on every miss.  None of them form reference
cycles — automata are plain trees of dicts, lists, and immutable
values, and table entries hold only ints and tuples — so every generational
collection CPython triggers during the burst walks a multi-million-object
heap and reclaims nothing.  Measured on the squaring kernels this
overhead is around half the total runtime, and it grows with whatever
else the process has on the heap, which also made kernel timings
irreproducible between processes.

:func:`gc_paused` wraps a kernel function so the collector is off for
its duration and restored afterwards.  It is re-entrant (an inner kernel
sees the collector already off and leaves state alone) and
exception-safe, and it respects callers that run with the collector
disabled globally.
"""

import functools
import gc

__all__ = ["gc_paused"]


def gc_paused(fn):
    """Decorator: cyclic GC off while ``fn`` runs, restored on exit."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return wrapper
