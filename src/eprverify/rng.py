"""Splittable counter-based random streams.

Every sampled computation in the package is a pure function of (inputs, seed).
Streams are Philox generators keyed by (seed, stream index), so trial k of an
experiment draws from ``stream(seed, k)`` no matter how trials are scheduled
across workers.

A sampled protocol trial needs only the first Philox4x64-10 block of its
stream (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
``trial_draws`` computes that block for a chunk of consecutive trials in numpy
and turns it into the draws numpy's Generator would make, so trial t still
draws exactly what ``stream(seed, t)`` gives; a trial whose bounded draw numpy
would redraw takes its draws from the stream itself, and each chunk's first
trial is checked against the stream.  ``ProtocolRun.sample`` owns the chunks.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

_MASK64 = (1 << 64) - 1
_LO32 = 0xFFFFFFFF

# Philox4x64 multipliers and Weyl key increments, as in numpy's philox.h, as
# columns: the two products of a round are made together, on a (2, n) array.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10

# Trials whose draws are made in one trial_draws call; each chunk's first trial
# is also drawn from its stream, so this many trials share one check.
CHUNK_TRIALS = 4096


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


def _mulhilo(m: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products m * x, from 32-bit
    halves (Warren, Hacker's Delight, mulhu); m broadcasts against x.  No sum
    below reaches 2**64."""
    m_lo, m_hi = m & _LO32, m >> 32
    x_lo, x_hi = x & _LO32, x >> 32
    t = x_hi * m_lo + ((x_lo * m_lo) >> 32)
    mid = (t & _LO32) + x_lo * m_hi
    return x_hi * m_hi + (t >> 32) + (mid >> 32), x * m


def first_blocks(seed: int, start: int, n: int) -> tuple[np.ndarray, ...]:
    """The four uint64 words of the first block of stream(seed, t), for t in
    start..start+n-1.

    Philox4x64-10 keyed by (seed mod 2**64, t).  numpy's Philox starts its
    counter at 0 and increments it before making a block, so the first block
    is the one at counter (1, 0, 0, 0).  The counter words are kept as two
    lanes, (c0, c2) that a round multiplies and (c1, c3) that it does not,
    with the key words (k0, k1) beside them; integer arithmetic, so the lanes
    give every word that one array a word gives.
    """
    even = np.zeros((2, n), dtype=np.uint64)
    even[0] = 1
    odd = np.zeros((2, n), dtype=np.uint64)
    key = np.empty((2, n), dtype=np.uint64)
    key[0], key[1] = int(seed) & _MASK64, np.arange(start, start + n, dtype=np.uint64)
    for _ in range(_PHILOX_ROUNDS):
        hi, lo = _mulhilo(_PHILOX_M, even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
        key += _PHILOX_W  # wraps mod 2**64
    return even[0], odd[0], even[1], odd[1]


def bounded(u32: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's integers(n) made from 32-bit draws u32, by Lemire's method, and
    where numpy would reject the draw and draw again.

    For n = 1 numpy draws nothing; the value is then 0 and the flag False.
    """
    m = u32 * np.uint64(n)
    return (m >> 32).astype(np.int64), (m & _LO32) < (2**32 - n) % n


def uniform(u64: np.ndarray) -> np.ndarray:
    """numpy's random() made from 64-bit draws: the top 53 bits over 2**53."""
    return (u64 >> 11) * 2.0**-53


def _stream_draws(seed: int, t: int, l: int) -> tuple:
    """A sampled trial's draws, from stream(seed, t) itself."""
    g = stream(seed, t)
    return int(g.integers(l)), int(g.integers(l - 1)), int(g.integers(2)), g.random(), g.random()


def trial_draws(seed: int, start: int, n: int, l: int) -> tuple[np.ndarray, ...]:
    """The arrays (i, j, coin, u1, u2) that stream(seed, t) gives sampled trials
    t = start..start+n-1 of a protocol with l pairs: in that order
    integers(l), integers(l - 1), integers(2), random() and random().

    The integer draws take 32 bits each, low half of a word first, and
    integers(1) takes none; random() takes a whole word.  Raises RuntimeError
    if this numpy draws differently.
    """
    w = first_blocks(seed, start, n)
    halves = (w[0] & _LO32, w[0] >> 32, w[1] & _LO32)
    # integers(2) never redraws, as 2**32 is even.
    if l > 2:
        (i, again_i), (j, again_j) = bounded(halves[0], l), bounded(halves[1], l - 1)
        coin, redraw, u1, u2 = bounded(halves[2], 2)[0], again_i | again_j, w[2], w[3]
    else:
        (i, redraw), coin = bounded(halves[0], l), bounded(halves[1], 2)[0]
        j, u1, u2 = np.zeros(n, dtype=np.int64), w[1], w[2]
    draws = (i, j, coin, uniform(u1), uniform(u2))
    for k in np.flatnonzero(redraw).tolist():
        for column, value in zip(draws, _stream_draws(seed, start + k, l)):
            column[k] = value
    if tuple(column[0].item() for column in draws) != _stream_draws(seed, start, l):
        raise RuntimeError(
            f"numpy {np.__version__} draws differently from the bulk Philox draws of "
            f"trial {start} of seed {seed}; sampled trials would change"
        )
    return draws


def choose(u: np.ndarray, probs: list[float]) -> np.ndarray:
    """Index of the outcome each uniform u draws from probs, skipping zero entries.

    The edge u * sum(probs) goes to the first entry whose running sum reaches
    it; if rounding carries it past the last positive entry, that entry wins.
    With no positive entry, every draw is outcome 0.
    """
    kept = [k for k, p in enumerate(probs) if p > 0.0] or [0]
    running = list(accumulate(probs[k] for k in kept))
    at = np.minimum(np.searchsorted(running, u * sum(probs)), len(kept) - 1)
    return np.array(kept)[at]
