"""numpy's LAPACK gufuncs, called without the public wrappers.

``np.linalg.solve``, ``inv``, ``svd(a, compute_uv=False)`` and
``lstsq(a, b, rcond=None)`` check their operands, then call one gufunc of
``numpy.linalg._umath_linalg`` under an ``np.errstate`` whose ``call`` raises
``LinAlgError``. On what the package passes (float arrays of matrices,
stacked or not) the checks change nothing, so the functions here call the
same gufunc under the same error state: the same bits, and the same errors
with the same messages, inside an outer ``np.errstate(invalid='ignore')``
too. What they leave out is the wrappers' own cost, about half of a 3 x 3
solve, which every validated point pays several times over (each accepted
state of a trajectory, each sampled candidate); and ``lstsq`` takes a stack
(LAPACK's ``dgelsd`` per matrix), where the public call takes one.

Each function is bound once, at import. Where the installed numpy has no
gufunc by the name looked up (before numpy 2.0 the values-only SVD had other
names), it is the public call, on the same kernel (per matrix for ``lstsq``).

One ``np.errstate`` per error message decorates the functions. As a
decorator it sets the error state on each call; as a context manager one
object could not be entered twice (numpy 2 refuses), and a new one per call
costs more.
"""

from __future__ import annotations

import functools

import numpy as np


def _raising(message):
    """The public wrappers' error state: LAPACK's failure flag (invalid)
    raises LinAlgError(message), every other floating-point flag is ignored."""

    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


def _lookup(name):
    """The gufunc ``name`` of numpy's LAPACK module, or None."""
    try:
        from numpy.linalg import _umath_linalg
    except ImportError:
        return None
    return getattr(_umath_linalg, name, None)


def _bind(lookup):
    """(solve, inv, singular_values, lstsq) over the gufuncs that
    ``lookup`` finds; where it finds none, the public np.linalg call."""
    singular = _raising("Singular matrix")
    solve1, solve_m = lookup("solve1"), lookup("solve")
    solve = np.linalg.solve
    if solve1 is not None and solve_m is not None:

        @singular
        def solve(a, b):
            """np.linalg.solve(a, b): b is a vector only when b.ndim == 1."""
            return (solve1 if b.ndim == 1 else solve_m)(a, b, signature="dd->d")

    inv_g, inv = lookup("inv"), np.linalg.inv
    if inv_g is not None:

        @singular
        def inv(a):
            """np.linalg.inv(a)."""
            return inv_g(a, signature="d->d")

    svd_g = lookup("svd")
    singular_values = functools.partial(np.linalg.svd, compute_uv=False)
    if svd_g is not None:

        @_raising("SVD did not converge")
        def singular_values(a):
            """np.linalg.svd(a, compute_uv=False)."""
            return svd_g(a, signature="d->d")

    lstsq_g = lookup("lstsq")
    lstsq = np.vectorize(  # the public call takes one matrix at a time
        lambda a, b: np.linalg.lstsq(a, b, rcond=None)[0],
        otypes=[float], signature="(m,n),(m,k)->(n,k)",
    )
    if lstsq_g is not None:

        @_raising("SVD did not converge in Linear Least Squares")
        def lstsq(a, b):
            """np.linalg.lstsq(a, b, rcond=None)[0] of each matrix of a stack."""
            return lstsq_g(a, b, np.finfo(float).eps * max(a.shape[-2:]), signature="ddd->ddid")[0]

    return solve, inv, singular_values, lstsq


solve, inv, singular_values, lstsq = _bind(_lookup)
