"""Splittable counter-based random streams.

Every sampled computation in the package is a pure function of (inputs, seed).
Streams are Philox generators keyed by (seed, stream index), so trial k of an
experiment draws from ``stream(seed, k)`` no matter how trials are scheduled
across workers.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def is_seed(x) -> bool:
    """Whether x is an integer in [-2**63, 2**63), the seeds that key distinct streams.

    stream() keys by the low 64 bits, so any integer outside this range would
    draw the same numbers as one inside it.
    """
    return isinstance(x, int) and not isinstance(x, bool) and -(2**63) <= x < 2**63


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for the given (seed, stream index) pair."""
    # A uint64 array: a list of Python ints at or above 2**63 would reach
    # Philox through a float and collide.
    key = np.array([int(seed) & _MASK64, int(index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
