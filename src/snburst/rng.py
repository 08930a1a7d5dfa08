"""Deterministic 64-bit PRNG used for initial layouts and tie-breaking.

A splitmix64 generator is small enough to pin here verbatim, which keeps
layouts reproducible across platforms and Python versions (unlike relying
on whatever `random` does internally for floats).
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """The splitmix64 output function: a strong 64-bit bit mixer."""
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        out = mix64(self._state)
        self._state = (self._state + _GAMMA) & _MASK
        return out

    def next_float(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53


def hash_angle(seed: int, t: int, i: int, j: int) -> float:
    """Deterministic pseudo-random angle in [0, 2*pi) for the pair (i, j).

    Used when two vertices coincide and the direction between them is
    undefined.  Callers pass i < j and negate the direction for (j, i) so
    the two force contributions stay exactly opposite.
    """
    h = mix64(mix64(mix64(mix64(seed & _MASK) ^ (t & _MASK)) ^ i) ^ j)
    return (h >> 11) * 2.0**-53 * 2.0 * math.pi
