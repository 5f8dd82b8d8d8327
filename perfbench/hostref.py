"""A fixed reference kernel that measures how fast the host runs right now.

The kernel does the kind of work nonholo's hot paths do, without using
nonholo: scalar forward-mode duals as Python objects with tuple partials,
and small numpy solves. Its code never changes, so its time moves only with
the host.
"""

from __future__ import annotations

import time

import numpy as np


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, tuple(a + b for a, b in zip(self.d, o.d)))
        return _Dual(self.v + o, self.d)

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(
                self.v * o.v, tuple(self.v * b + o.v * a for a, b in zip(self.d, o.d))
            )
        return _Dual(self.v * o, tuple(a * o for a in self.d))

    __radd__ = __add__
    __rmul__ = __mul__


_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


def kernel() -> float:
    w = 4
    xs = [_Dual(0.1 * (i + 1), tuple(1.0 if j == i else 0.0 for j in range(w))) for i in range(w)]
    acc = 0.0
    for k in range(40):
        s = xs[0] * xs[1] + xs[2] * 0.5 + xs[3] * xs[3] + k
        acc += s.v + sum(s.d)
        b = np.array([s.v, s.d[0], s.d[1]])
        acc += float(np.linalg.solve(_A, b)[0])
    return acc


def timed(repeats: int = 3) -> float:
    """Seconds for one run of the kernel, the fastest of `repeats`."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
