"""Pause the cyclic garbage collector around allocation-heavy work.

The cycle loop and the trace generators allocate short-lived tuples and
lists at a rate that makes generation-0 collections a measurable tax,
and neither creates reference cycles: reference counting frees
everything they drop.  :func:`gc_paused` disables the collector for the
body and restores whatever state it found, also when the body raises.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def gc_paused():
    """Run the body with the cyclic collector disabled."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
