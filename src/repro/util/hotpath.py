"""Switch for the warm-path kernel optimisations (A/B and benchmarking).

The vectorized kernel hot path has several pure-optimisation fast paths:
one-pass kernel bodies for exact (integer and bool) payloads, unrolled
short-axis accumulation, reused staging scratch. Float kernels replay the
LF/cascade warp flow either way, because its association order sets
their bits; exact dtypes get the same bits from one pass per chunk. The
fast paths are bit-identical to the straightforward code for the dtypes
they engage on — which is an assertable claim, not a comment — so this
module exposes a process-wide switch that tests use to run both variants
on the same inputs (with it off, exact dtypes run the warp flow too), and
that the serving benchmark uses to price the legacy (pre-warm-path) cost
of a call.

The switch is deliberately global and not thread-safe: it exists for
tests and benchmarks, not for production control flow.
"""

from __future__ import annotations

from contextlib import contextmanager

_FAST = True


def fast_enabled() -> bool:
    """Whether the kernel fast paths are active (default: yes)."""
    return _FAST


@contextmanager
def fast_paths(enabled: bool):
    """Temporarily force the kernel fast paths on or off."""
    global _FAST
    previous = _FAST
    _FAST = enabled
    try:
        yield
    finally:
        _FAST = previous
