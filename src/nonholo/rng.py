"""Deterministic 64-bit splitmix-style random stream.

Used everywhere a seeded sample is drawn so that runs are bit-reproducible
across platforms and worker counts. Task-local streams are derived by hashing
a label into the seed (``derive``), never by sharing generator state. Draw k
is a function of state + k*gamma mod 2^64: ``next_floats`` draws a block.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_floats(self, count: int) -> np.ndarray:
        """The next ``count`` ``next_float()`` values, as one float array."""
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state)
        self._state = (self._state + count * _GAMMA) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return ((z ^ (z >> np.uint64(31))) >> np.uint64(11)) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()


def derive_seed(seed: int, label: str) -> int:
    """Seed for an independent task-local stream, keyed by a string label."""
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK
    return (seed ^ h ^ _GAMMA) & _MASK
