"""Pointwise metric algebra and the two projectors.

Each geometric object has one formula, written over generic scalars (floats
or duals) in the ``*_apply`` functions, ``splitting_rows`` (the splitting
matrix C) and ``dstar_chart`` (the one chart D* -> M) so that the
forward-mode engine can differentiate it. The float entry points are
validation (symmetry and positive definiteness, rank, conditioning, frame
membership) plus that formula on floats or one lift of it (C). The exception
is the Eden projection, which keeps its own numpy arithmetic because sampling
seeds every point through it; ``gamma_apply`` is its differentiable counterpart.
Validity is one rule, ``ldl``, written as source by ``emit_rule``:
``validated`` runs it compiled (``_rule``) and returns LAPACK's arrays, and
the integrator's programs (``dynamics.FieldEvaluator``) emit it inline, so
the two decide alike.
Two numpy maps have one body each: ``OnMPoint.pi``, the map M -> D*
pi = E^T p, and ``hamiltonian_vectors``, X_F = -Omega^-1 dF, which the
splitting and every numpy Hamiltonian field read.

Each validated or lifted object has one body over a leading batch axis:
``validated`` (metric, constraint rows, Gram matrix, then the residual bound
or the Eden projection), ``_frames`` (with ``default_frame_plans``, one pivot
elimination over the stack), ``dgamma``, ``tangent_splitting`` and
``almost_lie_algebroid``. A lone point runs it on float cores
(``numdiff.cores``); a list runs it once over (B,) array cores
(``on_m_point`` of a list, ``frame_batch``, the lifted data, the sampler).
A body passes or raises: a lone point its own first failed check's error, a
stack the error of any one of its failing points. So a stacked caller goes
through ``per_point``, which reruns a stack that raises one point at a time,
in index order; it is the only code that finds the first failing point.
Every array a stacked pass keeps is bitwise the per-point one.

Every dense solve, inverse and set of singular values here (the metric's
inverse, the Eden projection, frame checks and components, the splitting)
goes through ``_lapack``: numpy's LAPACK gufuncs with the public wrappers'
error state and without their cost, bitwise the ``np.linalg`` calls.

The on-manifold tolerance ON_M_TOL is the default of every operation that
requires its phase point on M; callers may override it per call.
``require_on_m`` validates a point once into an ``OnMPoint``, the one
per-point object: operations that need a point on M accept it in place of a
PhasePoint. It caches the data its readers share (frame, pi, splitting),
which a stacked ``frame_batch`` or ``tangent_splitting`` fills in; the other
lifted data (``dgamma``, ``almost_lie_algebroid``) is returned to the caller,
for one point or stacked over a list (``stacked``), by the same code.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _lapack, dsl, numdiff
from .errors import (
    DomainError,
    FrameDegenerateError,
    NonholoError,
    FrameInvalidError,
    NotOnMError,
    NotSPDError,
    RankDeficientError,
    SingularMatrixError,
    SplittingDegenerateError,
)

ON_M_TOL = 1e-8

# raised by a stacked pass, which does not tell which point failed (per_point)
BATCH_FAILURES = (NonholoError, ArithmeticError, ValueError)


@dataclass(frozen=True)
class MetricAtPoint:
    G: np.ndarray
    Ginv: np.ndarray


@dataclass(frozen=True)
class ConstraintsAtPoint:
    mu: np.ndarray  # (n-k) x n rows of constraint one-forms
    gram: np.ndarray  # mu Ginv mu^T


@dataclass(frozen=True)
class FrameAtPoint:
    E: np.ndarray  # n x k, columns span the distribution fiber
    free_cols: tuple | None  # selection used by the default construction
    pivot_tie: bool  # a pivot tie was broken deterministically here


def per_point(body, *stacks):
    """``body(*stacks)``: the results of one stacked pass over the leading
    axis of the stacks. An error raised over a stack may name any of its
    points, from any check, since every stacked caller goes through here:
    where the stacked pass raises BATCH_FAILURES, each element runs alone,
    in index order, and the first that fails raises its own error."""
    try:
        return body(*stacks)
    except BATCH_FAILURES:
        pass
    out = []
    for b in range(len(stacks[0])):
        out.extend(body(*(s[b : b + 1] for s in stacks)))
    return out


def _at(table, q):
    """The (B, r, c) values of the compiled table ``table`` (a function of
    the q scalars) at the configurations q (B, n)."""
    return numdiff.from_cores(table(numdiff.cores(q)), len(q))


def _one(v):
    """One point's vector as a stack of one row."""
    return np.asarray(v, dtype=float)[None]


def _check(fails, error):
    """Raise ``error(b)`` at the first point b where the mask ``fails`` holds
    (a list test: ``ndarray.any`` costs more than the check at B = 1)."""
    fails = fails.tolist()
    if True in fails:
        raise error(fails.index(True))


# bounds on s t (``ldl``) at every order k: kappa <= 1e8 k^2 leaves a solve the
# 8 - 2 log10(k) digits or so that ON_M_TOL asks of a residual; the metric's part
METRIC_BOUND = 1e8
ROWS_BOUND = 1e8  # mu mu^T, so kappa(mu) <= 1e4 m
GRAM_BOUND = 1e8  # mu w, w_a = G^-1 mu_a as ``_rule`` forms it


def ldl(A, bound, ops):
    """The validity rule of the symmetric A (k x k, lower triangle read) as
    source (``dsl.rule_ops``), returning its solver b -> A^-1 b. Its L D L^T
    without pivoting (no growth on SPD A: Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., ch. 10) fails where a pivot d is not > 0
    or, with a ``bound``, where s t > bound: s = max A_ii, t = max (A^-1)_jj
    = max sum_k y_k^2 / d_k, y = L^-1 e_j (kappa/k^2 <= s t <= kappa). Every
    sum runs left to right; ``l`` keeps no zero literal, whose products a sum drops."""
    N, e, l, d = range(len(A)), {}, {}, []
    for j in N:
        for i in N[j:]:
            e[i, j] = ops.minus(A[i][j], [(e[i, k], l[j, k]) for k in N[:j] if (j, k) in l])
        d.append(e[j, j])
        ops.pivot(d[j])
        l.update({(i, j): x for i in N[j + 1 :] if (x := ops.over(e[i, j], d[j])) not in dsl.ZEROS})

    def lower(b, j=0):  # L^-1 b for b zero above j, from j on
        y = {}
        for i in N[j:]:
            y[i] = ops.minus(b[i], [(l[i, k], y[k]) for k in N[j:i] if (i, k) in l])
        return y

    if bound is not None:
        ys = (lower([ops.const(i == j) for i in N], j) for j in N)
        ts = [ops.plus([(y, ops.over(y, d[k])) for k, y in yj.items()]) for yj in ys]
        ops.within([A[i][i] for i in N], ts, bound)

    def solve(b):
        y, x = lower(b), {}
        for i in reversed(N):
            x[i] = ops.minus(ops.over(y[i], d[i]), [(l[k, i], x[k]) for k in N[i + 1 :] if (k, i) in l])
        return [x[i] for i in N]

    return solve


def emit_rule(new, put, mu, G, bounds=(METRIC_BOUND, ROWS_BOUND, GRAM_BOUND), codes=("0.0",) * 4, masks=None):
    """Emit ``ldl``'s rule on references (``dsl.rule_ops``, failing with
    ``codes`` or into ``masks``): on the metric's symmetric part G (lower
    triangle read), literal or not; on mu mu^T unless its bound is None; on
    the Gram matrix mu w, w_a = G^-1 mu_a. Returns the metric's solver, w and
    the Gram matrix's solver."""

    def lower(x, y):  # x_a . y_b, b <= a
        return [[dsl.sum_source(new, "0.0", list(zip(y[b], x[a]))) for b in range(a + 1)] for a in range(len(mu))]

    solve = ldl(G, bounds[0], dsl.rule_ops(new, put, codes[:2], masks))
    w = [solve(row) for row in mu]
    if bounds[1] is not None:
        ldl(lower(mu, mu), bounds[1], dsl.rule_ops(new, put, codes[2:3] * 2, masks))
    return solve, w, ldl(lower(mu, w), bounds[2], dsl.rule_ops(new, put, codes[3:] * 2, masks))


@functools.cache
def _rule(n, m, stack=False):
    """``emit_rule`` compiled for one shape, a function of s (its ``source``):
    mu (m x n), then the metric's lower triangle. It returns one point's first
    failed check, or 0 (with ``stack``, the masks over (B,) arrays): 1 the
    metric is not positive definite, 2 ill-conditioned, 3 mu mu^T fails, 4
    the Gram matrix does."""
    em, at, masks = dsl._Emitter((), None, 1), iter(range(n * n + m * n)), {} if stack else None
    new = em.new

    def inputs(rows, cols=None):  # a lower triangle without cols
        return [[new(f"s[{next(at)}]") for _ in range(i + 1 if cols is None else cols)] for i in range(rows)]

    mu = inputs(m, n)
    emit_rule(new, em.lines.append, mu, inputs(n), codes=(1, 2, 3, 4), masks=masks)
    out = ", ".join(" | ".join(masks.get(c, ["False"])) for c in range(1, 5)) if stack else "0"
    src = "def rule(s):\n" + "".join(f"    {line}\n" for line in em.lines) + f"    return {out}\n"
    exec(compile(src, "<rule>", "exec"), em.env)
    em.env["rule"].source = src
    return em.env["rule"]


_TRIL = functools.cache(np.tril_indices)


def _codes(n, m, *parts):  # _rule's at each point of the parts (B, k), joined
    X = np.concatenate(parts, 1)
    if len(X) == 1:
        return np.array([_rule(n, m)(X[0].tolist())])
    with np.errstate(all="ignore"):  # a failed pivot divides by 0
        masks = _rule(n, m, True)(list(X.T))
    code = np.zeros(len(X), int)
    for c in (4, 3, 2, 1):  # later checks first, so that a point's first failure stays
        code[masks[c - 1]] = c
    return code


def _tril(A):  # the lower triangle of each matrix of A (B, n, n), row by row
    return A[(slice(None), *_TRIL(A.shape[1]))]


def _metric_checks(q, G):
    """The checks of the metric G (B, n, n) at q (B, n), in order: finite,
    symmetric, then ``_rule``'s. Returns its symmetric part and its inverse."""

    def failed(what):
        return lambda b: NotSPDError(f"metric {what} at q={q[b].tolist()}")

    largest = np.abs(G).max((1, 2))  # inf or NaN where an entry is
    _check(~np.isfinite(largest), failed("has non-finite entries"))
    Gt = G.swapaxes(1, 2)
    _check(np.abs(G - Gt).max((1, 2)) > 1e-9 * np.fmax(1.0, largest), failed("is not symmetric"))
    Gs = np.where(G == Gt, G, 0.5 * (G + Gt))  # an equal pair as it is, even past DBL_MAX/2
    code = _codes(G.shape[1], 0, _tril(Gs))
    _check(code == 1, failed("is not positive definite"))
    _check(code == 2, failed("is too ill-conditioned"))
    return Gs, _lapack.inv(Gs)


def _row_checks(q, mu, G):
    """The checks of the constraint rows mu (B, m, n) at q (B, n), in order:
    finite, then ``_rule``'s of mu mu^T and of the Gram matrix (G's)."""
    _check(~np.isfinite(mu).all((1, 2)), lambda b: RankDeficientError(
        f"constraint rows non-finite at q={q[b].tolist()}"))
    code = _codes(mu.shape[2], mu.shape[1], mu.reshape(len(mu), -1), _tril(G))
    for c, what in ((3, "rows are dependent"), (4, "Gram matrix is not positive definite")):
        _check(code == c, lambda b: RankDeficientError(f"constraint {what} at q={q[b].tolist()}"))


def validated(sys, q, p=None, tol=None, rows=True):
    """The one check body, over the configurations q (B, n): the metric's
    checks; with ``rows``, those of the constraint rows and their Gram
    matrix; then, with momenta p (B, n), the residual bound ``tol``, or the
    Eden projection
    p - mu^T gram^-1 mu G^-1 p. Returns LAPACK's G, Ginv, mu, gram and the
    residual norms or the projections, stacked. A failed check raises: a
    lone point its first failed check's error (so a lone point whose metric
    fails evaluates no rows), a stack one of its points' errors.
    """
    G, Ginv = _metric_checks(q, _at(sys.metric_values, q))
    if not rows:
        return G, Ginv, None, None, None
    mu = _at(sys.mu_values, q)
    _row_checks(q, mu, G)
    gram, value = mu @ Ginv @ mu.swapaxes(1, 2), None
    if p is not None and tol is not None:
        value = np.abs(residual_values(mu, Ginv, p)).max(-1)
        _check(~(value <= tol), lambda b: NotOnMError(float(value[b]), tol))
    elif p is not None:
        try:
            lam = _lapack.solve(gram, mu @ (Ginv @ p[..., None]))
        except np.linalg.LinAlgError:
            raise RankDeficientError("constraint Gram matrix is singular") from None
        value = p - (mu.swapaxes(1, 2) @ lam)[..., 0]
    return G, Ginv, mu, gram, value


def metric_at(sys, q) -> MetricAtPoint:
    """Evaluate G(q) and its inverse; fail if not symmetric positive definite."""
    G, Ginv, *_ = validated(sys, _one(q), rows=False)
    return MetricAtPoint(G=G[0], Ginv=Ginv[0])


def flat(sys, q, v) -> np.ndarray:
    """Lower the index: p = G(q) v."""
    return metric_at(sys, q).G @ np.asarray(v, dtype=float)


def constraints_at(sys, q) -> ConstraintsAtPoint:
    """Assemble the constraint rows and their cometric Gram matrix at q,
    checked after the metric's checks."""
    *_, mu, gram, _ = validated(sys, _one(q))
    return ConstraintsAtPoint(mu=mu[0], gram=gram[0])


def residual_values(mu, Ginv, p) -> np.ndarray:
    """c = mu G^-1 p over leading axes: p (..., n) gives c (..., m)."""
    return (mu @ (Ginv @ p[..., None]))[..., 0]


def velocity_constraint(sys, q, p) -> np.ndarray:
    """Residual c with c_a = mu_a . G^-1 p; p lies on M iff this vanishes."""
    _, Ginv, mu, _, _ = validated(sys, _one(q))
    return residual_values(mu[0], Ginv[0], np.asarray(p, dtype=float))


def eden_project(sys, q, p) -> np.ndarray:
    """Project a covector onto the constraint manifold along the annihilator.

    gamma(p) = p - mu^T gram^-1 mu G^-1 p; orthogonal for the cometric.
    """
    return validated(sys, _one(q), p=_one(p))[4][0]


def residual_norm(sys, q, p) -> float:
    return float(np.max(np.abs(velocity_constraint(sys, q, p))))


@dataclass(frozen=True, eq=False)
class OnMPoint:
    """A phase point on M with the data its validation produced.

    Built by ``require_on_m`` or ``on_m_point`` only: its metric, constraint
    rows and Gram matrix passed ``validated`` and its residual the caller's
    tolerance. It has the ``q``, ``p`` and ``scalars()`` of a PhasePoint, and
    caches the symplectic splitting, the distribution frame and its image pi
    in D*: built lazily, once, unless a stacked build filled them in.
    """

    sys: object = field(repr=False)
    q: np.ndarray
    p: np.ndarray
    met: MetricAtPoint = field(repr=False)
    cons: ConstraintsAtPoint = field(repr=False)
    residual: float

    def scalars(self) -> list[float]:
        return [*self.q.tolist(), *self.p.tolist()]

    @cached_property
    def splitting(self):
        """(P, Q, C) of tangent_splitting; the point is validated already."""
        return tangent_splitting(self.sys, self, on_m_tol=np.inf)

    @cached_property
    def frame(self) -> FrameAtPoint:
        return frame_at(self.sys, self.q, mu=self.cons.mu)

    @cached_property
    def pi(self) -> np.ndarray:
        """pi = E^T p, the fiber coordinates of this point's image in D*: the
        one M -> D* map, read stacked by the algebroid. E is taken as
        ``_frames`` lays it out; a contiguous copy can round differently."""
        return self.frame.E.T @ self.p

    def dstar_scalars(self) -> list[float]:
        """(q, pi), the image of this point in D*."""
        return [*self.q.tolist(), *self.pi.tolist()]


def stacked(x, name):
    """Attribute ``name`` (dotted) of one OnMPoint, or of each point of a
    sequence stacked on a new leading axis; a tuple stacks entrywise."""
    get = operator.attrgetter(name)
    if isinstance(x, OnMPoint):
        return get(x)
    values = [get(p) for p in x]
    return tuple(map(np.stack, zip(*values))) if type(values[0]) is tuple else np.stack(values)


def dgamma(x) -> np.ndarray:
    """Jacobian of the phase-space momentum projection ``gamma_hat_apply`` at
    an OnMPoint, or stacked over a sequence of them: one
    ``numdiff.jacobian_batch``, on float cores for a lone point."""
    points = [x] if isinstance(x, OnMPoint) else x
    F = functools.partial(gamma_hat_apply, points[0].sys)
    J = numdiff.jacobian_batch(F, [y.scalars() for y in points])
    return J[0] if isinstance(x, OnMPoint) else J


def almost_lie_algebroid(x):
    """(Theta, Lambda, C) of the almost Lie algebroid on D* at an OnMPoint,
    or stacked over a sequence of them (see ``stacked``).

    Theta = d(q, p)/d(q, pi) at pi = E^T p, the Jacobian J of ``dstar_chart``
    (rows q, p, frame columns): one ``numdiff.jacobian_batch`` per frame
    plan, written into the points' order. The structure functions are
    [e_a, e_b]_D = C[c, a, b] e_c; Lambda = [[0, E], [-E^T, -pi.C]] is
    the bivector of the linear almost-Poisson bracket in (q, pi).
    """
    points = [x] if isinstance(x, OnMPoint) else x
    sys, at = points[0].sys, {id(y): b for b, y in enumerate(points)}
    J = np.empty((len(points), sys.n * (2 + sys.k), sys.n + sys.k))
    for free, group in frame_plans(points).items():
        chart = functools.partial(dstar_chart, sys, free)
        rows = [at[id(y)] for y in group]
        J[rows] = numdiff.jacobian_batch(chart, [y.dstar_scalars() for y in group])
    J = J[0] if isinstance(x, OnMPoint) else J
    E, G, pi = (stacked(x, a) for a in ("frame.E", "met.G", "pi"))
    lead, (n, k) = E.shape[:-2], E.shape[-2:]
    # de[i, a, b] = (De_a e_b)^i and [e_a, e_b] = De_b e_a - De_a e_b
    de = np.einsum("...aij,...jb->...iab", J[..., 2 * n :, :n].reshape(lead + (k, n, n)), E)
    C = frame_components(G, E, de.swapaxes(-1, -2) - de)
    piC = np.einsum("...c,...cab->...ab", pi, C)
    top = np.concatenate([np.zeros(lead + (n, n)), E], -1)
    bottom = np.concatenate([-E.swapaxes(-1, -2), -piC], -1)
    return J[..., : 2 * n, :], np.concatenate([top, bottom], -2), C


def dstar_chart(sys, free_cols, s):
    """(q, pi) -> (q, p, frame columns) over generic scalars, the one D* -> M
    chart: callers read (q, p) as ``[:2n]``, p as ``[n:2n]``."""
    q_s = list(s[: sys.n])
    cols = frame_apply(sys, q_s, free_cols)
    return q_s + from_dstar_apply(sys, q_s, s[sys.n :], cols) + sum(cols, [])


def require_on_m(sys, q, p, on_m_tol: float | None = None) -> OnMPoint:
    """Validate (q, p) on M: metric, constraint rows, then the residual bound."""
    tol = ON_M_TOL if on_m_tol is None else on_m_tol
    return _on_m_points(sys, _one(q), _one(p), tol)[0]


def on_m_point(sys, x, on_m_tol: float | None = None) -> OnMPoint:
    """The phase point x validated on M at on_m_tol.

    A PhasePoint goes through ``require_on_m``. An OnMPoint is checked
    against on_m_tol by its recorded residual; nothing is evaluated again.
    A list or tuple gives its points' OnMPoints in index order, PhasePoints
    in one stacked pass (``per_point``): the first invalid point raises as it
    would alone.
    """
    tol = ON_M_TOL if on_m_tol is None else on_m_tol
    if isinstance(x, (list, tuple)):
        if not x or any(isinstance(y, OnMPoint) for y in x):
            return [on_m_point(sys, y, on_m_tol) for y in x]
        q, p = (np.array([getattr(y, a) for y in x], dtype=float) for a in "qp")
        with np.errstate(all="ignore"):
            return per_point(functools.partial(_on_m_points, sys, tol=tol), q, p)
    if not isinstance(x, OnMPoint):
        return require_on_m(sys, x.q, x.p, on_m_tol)
    if not x.residual <= tol:
        raise NotOnMError(x.residual, tol)
    return x


def _on_m_points(sys, q, p, tol):
    """The OnMPoints of the rows of q and p (B, n): ``validated`` with the
    residual bound tol."""
    G, Ginv, mu, gram, r = validated(sys, q, p=p, tol=tol)
    return [OnMPoint(sys, q[b], p[b], MetricAtPoint(G[b], Ginv[b]),
                     ConstraintsAtPoint(mu[b], gram[b]), float(r[b])) for b in range(len(q))]


# --- frames for the distribution ---------------------------------------------


def default_frame_plans(mu: np.ndarray):
    """Choose each point's pivot columns by one rank-revealing elimination
    with a fixed order over the constraint rows mu (B, m, n).

    Each constraint row pivots on its largest remaining column (ties broken
    toward the lowest index); the complementary columns index the default
    frame. Returns one (free_cols, tie_seen) per point; a failed check
    raises, a lone point its own first one.
    """
    r = np.asarray(mu, dtype=float)
    B, m, n = r.shape
    at = np.arange(B)
    scale = np.abs(r).max((1, 2))
    _check(scale == 0.0, lambda b: RankDeficientError("constraint rows vanish identically here"))
    taken, tie = np.zeros((B, n), bool), np.zeros(B, bool)
    with np.errstate(all="ignore"):  # the masked-out divisions may be 0/0
        for row in range(m):
            mags = np.abs(r[:, row])
            mags[taken] = -1.0
            col = mags.argmax(1)
            best = mags[at, col]
            _check(best <= 1e-10 * scale,
                   lambda b: RankDeficientError("constraint rows are dependent here"))
            mags[at, col] = -1.0
            tie |= (mags.max(1) if n > row + 1 else -1.0) >= best * (1.0 - 1e-9)
            taken[at, col] = True
            c = r[at, :, col]  # eliminated from each other row whose entry is not 0
            update = c != 0.0
            update[:, row] = False
            step = r - (c / c[:, row : row + 1])[..., None] * r[:, row : row + 1]
            r = np.where(update[..., None], step, r)
    return [(tuple(j for j, t in enumerate(cols) if not t), tied)
            for cols, tied in zip(taken.tolist(), tie.tolist())]


def _frames(sys, q, mu):
    """The one frame body: the FrameAtPoints of the configurations q (B, n)
    with their rows mu (B, m, n); per frame plan, one ``frame_apply`` and
    its checks, stacked: the frame stays in ker mu, then its columns are
    independent. A failed check raises, as ``validated``'s do."""
    user = sys.frame_exprs is not None
    label, invalid = ("user", FrameInvalidError) if user else ("default", FrameDegenerateError)
    plans = [(None, False)] * len(q) if user else default_frame_plans(mu)
    groups, out = {}, [None] * len(q)
    for b, (free, _) in enumerate(plans):
        groups.setdefault(free, []).append(b)
    for free, idx in groups.items():
        qs, mus = (q, mu) if len(idx) == len(q) else (q[idx], mu[idx])
        try:
            E = _at(functools.partial(frame_apply, sys, free_cols=free), qs).swapaxes(1, 2)
        except (SingularMatrixError, DomainError) as exc:
            if user:
                raise
            raise (  # dependent rows, or a column of zero norm
                RankDeficientError("constraint rows are dependent here")
                if isinstance(exc, SingularMatrixError)
                else FrameDegenerateError(f"default frame column collapsed at q={qs[0].tolist()}")
            ) from None
        scale = np.fmax(1.0, np.abs(mus).max((1, 2)) * np.abs(E).max((1, 2)))
        _check(np.abs(mus @ E).max((1, 2)) > 1e-10 * scale, lambda i: invalid(
            f"{label} frame leaves the distribution at q={qs[i].tolist()}"))
        s = _lapack.singular_values(E)  # a non-finite frame raises LinAlgError
        _check(s[:, -1] <= 1e-10 * np.fmax(1.0, s[:, 0]), lambda i: invalid(  # zero columns too
            f"{label} frame columns are dependent at q={qs[i].tolist()}"))
        for b, e in zip(idx, E):
            out[b] = FrameAtPoint(E=e, free_cols=free, pivot_tie=plans[b][1])
    return out


def frame_at(sys, q, mu=None) -> FrameAtPoint:
    """Evaluate (or construct) a frame spanning the distribution fiber at q.

    The columns come from frame_apply on floats. The default frame projects
    the free coordinate axes onto ker(mu) orthogonally and normalizes, which
    varies smoothly with q away from pivot switches. Either frame must
    satisfy mu E = 0 with independent columns; a user frame that fails raises
    FrameInvalidError, a default frame FrameDegenerateError. ``mu`` takes
    the constraint rows at q when the caller has them validated already;
    without it they are read through ``validated``, whose error comes first.
    """
    q = _one(q)
    mu = validated(sys, q)[2] if mu is None else mu[None]
    return _frames(sys, q, mu)[0]


def frame_batch(points) -> None:
    """Build the frames of OnMPoints of one system in one ``_frames`` pass
    (``per_point``), bitwise their ``frame_at``; the first point whose frame
    fails raises as it would alone."""
    if not points:
        return
    body = functools.partial(_frames, points[0].sys)
    for x, fr in zip(points, per_point(body, stacked(points, "q"), stacked(points, "cons.mu"))):
        x.__dict__["frame"] = fr


def frame_plans(points) -> dict:
    """The OnMPoints of one system grouped by frame plan (``free_cols``), in
    index order within each plan."""
    plans = {}
    for x in points:
        plans.setdefault(x.frame.free_cols, []).append(x)
    return plans


def frame_components(G, E, w) -> np.ndarray:
    """xi = (E^T G E)^-1 E^T G w, so E xi is the G-orthogonal projection of w.

    Leading axes of G (..., n, n) and E (..., n, k) are batch axes, and w
    leads with them too; the axes of w after n form one matrix right-hand
    side, and xi has shape (..., k) + those axes.
    """
    lead, (n, k) = E.shape[:-2], E.shape[-2:]
    ge = G @ E
    rhs = w.reshape(lead + (n, -1))
    xi = _lapack.solve(E.swapaxes(-1, -2) @ ge, ge.swapaxes(-1, -2) @ rhs)
    return xi.reshape(lead + (k,) + w.shape[len(lead) + 1 :])


# --- symplectic splitting along the constraint manifold -----------------------


def hamiltonian_vectors(grads: np.ndarray) -> np.ndarray:
    """X_F = (dF/dp, -dF/dq) = -Omega^-1 dF for the gradients dF on the last
    axis, with Omega^-1 = [[0, -I], [I, 0]]: the numpy twin of
    ``brackets._symp``."""
    n = grads.shape[-1] // 2
    return np.concatenate([grads[..., n:], -grads[..., :n]], -1)


def tangent_splitting(sys, x, on_m_tol: float | None = None):
    """Projectors of the symplectic splitting along the constraint manifold.

    C is one lift of ``splitting_rows`` over the points' (q, p): the
    differentials of (i) the membership residuals c_a(q, p) = mu_a G^-1 p
    and (ii) the base conditions (mu_a, 0). Then ker C is the admissible
    tangent sub-bundle, and

        Q = Omega^-1 C^T (C Omega^-1 C^T)^-1 C,    P = I - Q

    project onto it along its symplectic orthogonal complement. ``x`` is a
    PhasePoint or an OnMPoint (see on_m_point), or a list of them: the
    arrays then lead with the batch axis, and the first degenerate point
    raises. Returns (P, Q, C).
    """
    x = on_m_point(sys, x, on_m_tol)
    z = np.concatenate([stacked(x, "q"), stacked(x, "p")], -1)
    C = _at(functools.partial(splitting_rows, sys), z.reshape(-1, 2 * sys.n))
    C = C.reshape(z.shape[:-1] + C.shape[1:])
    M1 = hamiltonian_vectors(-C).swapaxes(-1, -2)  # Omega^-1 C^T
    K = C @ M1
    for s in _lapack.singular_values(K).reshape(-1, K.shape[-1]):
        if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
            raise SplittingDegenerateError(
                "the admissible tangent sub-bundle fails to be symplectic here "
                f"(splitting matrix singular values {s})"
            )
    Q = M1 @ _lapack.solve(K, C)
    P = np.eye(2 * sys.n) - Q
    if not isinstance(x, OnMPoint):
        for y, row in zip(x, zip(P, Q, C)):
            y.__dict__["splitting"] = row  # the cached_property's slot
    return P, Q, C


# --- generic-scalar formulas -------------------------------------------------


def cometric_apply(sys, q_s, p_s):
    """v = G(q)^-1 p over generic scalars."""
    G = sys.metric_values(q_s)
    return numdiff.solve_linear(G, list(p_s))


def residual_apply(sys, q_s, p_s):
    """Constraint residuals c_a = mu_a . G^-1 p over generic scalars."""
    v = cometric_apply(sys, q_s, p_s)
    return [numdiff.sum_prod(row, v) for row in sys.mu_values(q_s)]


def residual_phase(sys, scalars):
    """The residuals c_a as a function of the phase scalars (q, p)."""
    return residual_apply(sys, scalars[: sys.n], scalars[sys.n :])


def splitting_rows(sys, scalars):
    """Rows of the splitting matrix C over generic scalars.

    The differentials of the residuals c_a (taken one lift level above the
    inputs), then the base conditions (mu_a, 0).
    """
    n = sys.n
    residual_rows = numdiff.jacobian_generic(functools.partial(residual_phase, sys), scalars)
    mu = sys.mu_values(list(scalars[:n]))
    return [list(row) for row in residual_rows] + [list(row) + [0.0] * n for row in mu]


def gamma_apply(sys, q_s, p_s):
    """Momentum projection gamma(p) over generic scalars."""
    G = sys.metric_values(q_s)
    mu = sys.mu_values(q_s)
    # one elimination of G for [p | mu^T]: y = G^-1 p, and W = G^-1 mu^T (n x m)
    yw = numdiff.solve_linear(G, [[p_s[i], *(row[i] for row in mu)] for i in range(len(G))])
    y, W = [r[0] for r in yw], [r[1:] for r in yw]
    c = [numdiff.sum_prod(row, y) for row in mu]
    gram = numdiff.mat_mul(mu, W)
    lam = numdiff.solve_linear(gram, c)
    m = len(mu)
    return [
        p_s[i] - numdiff.sum_prod([mu[a][i] for a in range(m)], lam)
        for i in range(len(p_s))
    ]


def gamma_hat_apply(sys, scalars):
    """The phase-space projection (q, p) -> (q, gamma_q p) over scalars."""
    n = sys.n
    q_s = list(scalars[:n])
    return q_s + gamma_apply(sys, q_s, list(scalars[n:]))


def frame_apply(sys, q_s, free_cols):
    """Frame columns over generic scalars, branch-frozen to ``free_cols``.

    With a user frame the stored expressions are evaluated directly and
    ``free_cols`` is ignored; otherwise the default construction is replayed
    with the pivot selection fixed by the caller (normally taken from
    frame_at on the float core), which keeps it differentiable.
    """
    user = sys.frame_values(q_s)
    if user is not None:
        return [list(col) for col in user]
    mu = sys.mu_values(q_s)
    m, n = len(mu), sys.n
    A = numdiff.mat_mul(mu, numdiff.transpose(mu))
    ws = numdiff.solve_linear(A, [[row[j] for j in free_cols] for row in mu])  # one elimination
    cols = []
    for c, j in enumerate(free_cols):
        w = [r[c] for r in ws]
        col = [
            (1.0 if i == j else 0.0)
            - numdiff.sum_prod([mu[a][i] for a in range(m)], w)
            for i in range(n)
        ]
        norm = numdiff.sqrt(numdiff.sum_prod(col, col))
        cols.append([numdiff.divide(ci, norm) for ci in col])
    return cols


def to_dstar_apply(sys, q_s, p_s, free_cols):
    """Fiber components pi_a = E_a . p over generic scalars."""
    cols = frame_apply(sys, q_s, free_cols)
    return [numdiff.sum_prod(col, p_s) for col in cols]


def from_dstar_apply(sys, q_s, pi_s, cols):
    """p = G E (E^T G E)^-1 pi over generic scalars, E the frame columns at q."""
    G = sys.metric_values(q_s)
    ge = [numdiff.mat_vec(G, col) for col in cols]  # k vectors of length n
    K = [[numdiff.sum_prod(ca, gb) for gb in ge] for ca in cols]
    xi = numdiff.solve_linear(K, list(pi_s))
    n = sys.n
    return [
        numdiff.sum_prod([ge[a][i] for a in range(len(cols))], xi) for i in range(n)
    ]
