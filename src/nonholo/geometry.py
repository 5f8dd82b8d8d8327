"""Pointwise metric algebra and the two projectors.

Each geometric object has one formula, written over generic scalars (floats
or duals) in the ``*_apply`` functions and ``splitting_rows`` so that the
forward-mode engine can differentiate it. The float entry points are
validation (symmetry and positive definiteness, rank, conditioning, frame
membership) plus that formula on floats. The exception is ``eden_project``,
which keeps its own numpy arithmetic because sampling seeds every point
through it; ``gamma_apply`` is its differentiable counterpart.

The checks of each validated object have one body over a leading batch axis
(``_metric_checks``, ``_row_checks``, ``_gram_checks``, ``_frame_checks``). A
single point runs it at B = 1 and raises on the first failed check, on entries
it evaluates or the caller's (``metric_from_entries``, ``constraints_from_rows``);
a list of points runs it once over all of them, after one closure call per
entry over (B,) array cores (``on_m_point`` of a list, ``eden_project_batch``,
``frame_batch``). A point that fails a stacked check runs alone, in index
order, so it raises as it would alone; every array the stacked pass keeps is
bitwise the per-point one.

The on-manifold tolerance ON_M_TOL is the single default used by every
operation that requires its phase point to satisfy the momentum constraints;
callers may override it per call. ``require_on_m`` validates a point once and
returns an ``OnMPoint`` holding the validated metric and constraint rows;
operations that need a point on M accept it in place of a PhasePoint and read
that data instead of validating again. It is the one per-point object: the
bracket routes and the verify suites also read the linear data it builds
once, on demand (splitting, projection Jacobian, frame, algebroid).
The float formulas of that data are written over leading axes, so the same
code takes one point or a list of points (``stacked``).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import numdiff
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

# raised by validation or a batched lift; the per-point pass then redoes that
# work, and raises or carries a non-finite value as a lone point would
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


_eye = functools.cache(np.eye)  # shared, never written


def _rejected(fn, A):
    """The mask of the matrices of A (B, m, m) that fn rejects: none, or
    every one when the stacked call raises, as it cannot tell which."""
    try:
        fn(A)
    except np.linalg.LinAlgError:
        return np.ones(len(A), bool)
    return np.zeros(len(A), bool)


_METRIC_FAILURES = ("has non-finite entries", "is not symmetric",
                    "is not positive definite", "is too ill-conditioned")


def _metric_checks(G):
    """The checks of ``metric_at`` over the leading axis of G (B, n, n): the
    symmetrized G, its inverse and the failure masks in check order. A point
    fails at the first mask that holds there; the later ones mean nothing."""
    largest = np.abs(G).max((1, 2))  # inf or NaN where an entry is
    finite = np.isfinite(largest)
    if not finite.all():  # NaN, unlike inf, passes the arithmetic below silently
        G = np.where(finite[:, None, None], G, np.nan)
    Gt, eye = G.swapaxes(1, 2), _eye(G.shape[-1])
    scale = np.fmax(1.0, largest)
    Gs = 0.5 * (G + Gt)
    not_pd = _rejected(np.linalg.cholesky, Gs)
    try:
        Ginv = np.linalg.inv(Gs)
    except np.linalg.LinAlgError:  # then not_pd holds at every point
        Ginv = np.full_like(Gs, np.nan)
    asymmetric = np.abs(G - Gt).max((1, 2)) > 1e-9 * scale
    ill_conditioned = np.abs(Gs @ Ginv - eye).max((1, 2)) > 1e-10 * scale
    return Gs, Ginv, (~finite, asymmetric, not_pd, ill_conditioned)


def metric_at(sys, q) -> MetricAtPoint:
    """Evaluate G(q) and its inverse; fail if not symmetric positive definite."""
    q_list = [float(v) for v in q]
    return metric_from_entries(np.asarray(sys.metric_values(q_list), dtype=float), q_list)


def metric_from_entries(G, q_list) -> MetricAtPoint:
    """``metric_at``'s checks on the entries G (n, n) evaluated at q_list."""
    Gs, Ginv, fails = _metric_checks(G[None])
    for failed, what in zip(fails, _METRIC_FAILURES):
        if failed[0]:
            raise NotSPDError(f"metric {what} at q={q_list}")
    return MetricAtPoint(G=Gs[0], Ginv=Ginv[0])


def flat(sys, q, v) -> np.ndarray:
    """Lower the index: p = G(q) v."""
    return metric_at(sys, q).G @ np.asarray(v, dtype=float)


def sharp(sys, q, p) -> np.ndarray:
    """Raise the index: v = G(q)^-1 p."""
    return metric_at(sys, q).Ginv @ np.asarray(p, dtype=float)


def _row_checks(mu):
    """The checks of ``constraints_at`` on the rows mu (B, m, n), stacked:
    the singular values and the masks of non-finite and of dependent rows
    (s is sorted and nonnegative, so vanishing rows are dependent too)."""
    finite = np.isfinite(mu).all((1, 2))
    try:
        s = np.linalg.svd(mu, compute_uv=False)
    except np.linalg.LinAlgError:  # non-finite rows, which fail first
        s = np.linalg.svd(np.where(finite[:, None, None], mu, 0.0), compute_uv=False)
    return s, (~finite, s[:, -1] <= 1e-10 * s[:, 0])


def _gram_checks(mu, Ginv):
    """The Gram matrices mu Ginv mu^T (B, m, m) and the mask of those that
    are not positive definite, the last check of ``constraints_at``."""
    gram = mu @ Ginv @ mu.swapaxes(1, 2)
    return gram, _rejected(np.linalg.cholesky, 0.5 * (gram + gram.swapaxes(1, 2)))


def constraints_at(sys, q, met: MetricAtPoint | None = None) -> ConstraintsAtPoint:
    """Assemble the constraint rows and their cometric Gram matrix at q."""
    q_list = [float(v) for v in q]
    return constraints_from_rows(sys, q_list, np.asarray(sys.mu_values(q_list), dtype=float), met)


def constraints_from_rows(sys, q_list, mu, met=None) -> ConstraintsAtPoint:
    """``constraints_at``'s checks on the rows mu (m, n) evaluated at q_list:
    the rows', the metric's (when met is None), then the Gram matrix's."""
    s, (non_finite, dependent) = _row_checks(mu[None])
    if non_finite[0]:
        raise RankDeficientError(f"constraint rows non-finite at q={q_list}")
    if dependent[0]:
        raise RankDeficientError(
            f"constraint rows are dependent at q={q_list} (singular values {s[0]})"
        )
    met = met or metric_at(sys, q_list)
    gram, not_pd = _gram_checks(mu[None], met.Ginv[None])
    if not_pd[0]:
        raise RankDeficientError(
            f"constraint Gram matrix is not positive definite at q={q_list}"
        )
    return ConstraintsAtPoint(mu=mu, gram=gram[0])


def residual_values(mu, Ginv, p) -> np.ndarray:
    """c = mu G^-1 p over leading axes: p (..., n) gives c (..., m)."""
    return (mu @ (Ginv @ p[..., None]))[..., 0]


def velocity_constraint(sys, q, p) -> np.ndarray:
    """Residual c with c_a = mu_a . G^-1 p; p lies on M iff this vanishes."""
    met = metric_at(sys, q)
    cons = constraints_at(sys, q, met)
    return residual_values(cons.mu, met.Ginv, np.asarray(p, dtype=float))


def eden_formula(mu, Ginv, gram, p):
    """gamma(p) = p - mu^T gram^-1 mu G^-1 p over leading axes."""
    try:
        lam = np.linalg.solve(gram, mu @ (Ginv @ p[..., None]))
    except np.linalg.LinAlgError:  # an exactly zero pivot, past the Cholesky check
        raise RankDeficientError("constraint Gram matrix is singular") from None
    return p - (mu.swapaxes(-1, -2) @ lam)[..., 0]


def eden_project(sys, q, p) -> np.ndarray:
    """Project a covector onto the constraint manifold along the annihilator.

    gamma(p) = p - mu^T gram^-1 mu G^-1 p; orthogonal for the cometric.
    """
    met = metric_at(sys, q)
    cons = constraints_at(sys, q, met)
    return eden_formula(cons.mu, met.Ginv, cons.gram, np.asarray(p, dtype=float))


def _validate_batch(sys, q):
    """``metric_at`` and ``constraints_at`` at the configurations q (B, n) in
    one stacked pass: one closure call per entry over (B,) cores, then their
    checks. Returns G, Ginv, mu, gram and the mask of the passing points."""
    cores, B = list(q.T.copy()), len(q)
    G, Ginv, fails = _metric_checks(_entries(sys.metric_values(cores), B))
    mu = _entries(sys.mu_values(cores), B)
    _, row_fails = _row_checks(mu)
    ok = ~np.any([*fails, *row_fails], axis=0)
    # the Gram check sees passing points only, so one failure flags no other
    keep = ok[:, None, None]
    gram, not_pd = _gram_checks(
        np.where(keep, mu, _eye(*mu.shape[1:])), np.where(keep, Ginv, _eye(sys.n))
    )
    return G, Ginv, mu, gram, ok & ~not_pd


def _entries(rows, B):
    """The (B, r, c) array of a table of closure values, floats or (B,) arrays."""
    out = np.empty((B, len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[:, i, j] = v
    return out


def eden_project_batch(sys, q, p):
    """``eden_project`` at the rows of q and p (B, n) in one stacked pass: the
    projections, and the mask of the rows where every check passed and the
    result is finite. Any other row must go through ``eden_project`` itself,
    which raises there as it would alone."""
    try:
        with np.errstate(all="ignore"):
            _, Ginv, mu, gram, ok = _validate_batch(sys, q)
            gram = np.where(ok[:, None, None], gram, _eye(len(gram[0])))  # solvable
            out = eden_formula(mu, Ginv, gram, p)
    except BATCH_FAILURES:
        return p, np.zeros(len(p), bool)
    return out, ok & np.isfinite(out).all(-1)


def residual_norm(sys, q, p) -> float:
    return float(np.max(np.abs(velocity_constraint(sys, q, p))))


@dataclass(frozen=True, eq=False)
class OnMPoint:
    """A phase point on M with the data its validation produced.

    Built by ``require_on_m`` only: the metric passed ``metric_at``, the
    constraint rows passed ``constraints_at`` and the residual was within
    the caller's tolerance. It has the ``q``, ``p`` and ``scalars()`` of a
    PhasePoint, and builds the per-point linear data lazily, once: the
    symplectic splitting, the projection Jacobian, the distribution frame
    and the almost Lie algebroid.
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

    @cached_property  # lifted, like dgamma and chart_jacobian (see lift_batch)
    def residual_rows(self) -> np.ndarray:
        """Differentials of the residuals c_a (the first splitting rows)."""
        return numdiff.jacobian(functools.partial(residual_phase, self.sys), self.scalars())

    @cached_property
    def dgamma(self) -> np.ndarray:
        """Jacobian of the phase-space momentum projection at this point."""
        return numdiff.jacobian(functools.partial(gamma_hat_apply, self.sys), self.scalars())

    @cached_property
    def frame(self) -> FrameAtPoint:
        return frame_at(self.sys, self.q, mu=self.cons.mu)

    def dstar_scalars(self) -> list[float]:
        """(q, pi) with pi = E^T p, the image of this point in D*."""
        return [*self.q.tolist(), *(self.frame.E.T @ self.p).tolist()]

    @cached_property
    def chart_jacobian(self) -> np.ndarray:
        """Jacobian of ``dstar_chart`` at (q, pi): rows (q, p, frame columns)."""
        chart = functools.partial(dstar_chart, self.sys, self.frame.free_cols)
        return numdiff.jacobian(chart, self.dstar_scalars())

    @cached_property
    def algebroid(self):
        """(Theta, Lambda, C) of almost_lie_algebroid at this point."""
        return almost_lie_algebroid(self)


def stacked(x, name):
    """Attribute ``name`` (dotted) of one OnMPoint, or of each point of a
    sequence stacked on a new leading axis; a tuple stacks entrywise."""
    get = operator.attrgetter(name)
    if isinstance(x, OnMPoint):
        return get(x)
    values = [get(p) for p in x]
    return tuple(map(np.stack, zip(*values))) if type(values[0]) is tuple else np.stack(values)


def almost_lie_algebroid(x):
    """(Theta, Lambda, C) of the almost Lie algebroid on D* at an OnMPoint,
    or stacked over a sequence of them (see ``stacked``).

    Theta = d(q, p)/d(q, pi) at pi = E^T p; the structure functions are
    [e_a, e_b]_D = C[c, a, b] e_c; Lambda = [[0, E], [-E^T, -pi.C]] is
    the bivector of the linear almost-Poisson bracket in (q, pi).
    """
    J, E, G, p = (stacked(x, a) for a in ("chart_jacobian", "frame.E", "met.G", "p"))
    lead, (n, k) = E.shape[:-2], E.shape[-2:]
    Et = E.swapaxes(-1, -2)
    pi = (Et @ p[..., None])[..., 0]
    # de[i, a, b] = (De_a e_b)^i and [e_a, e_b] = De_b e_a - De_a e_b
    de = np.einsum("...aij,...jb->...iab", J[..., 2 * n :, :n].reshape(lead + (k, n, n)), E)
    C = frame_components(G, E, de.swapaxes(-1, -2) - de)
    piC = np.einsum("...c,...cab->...ab", pi, C)
    top = np.concatenate([np.zeros(lead + (n, n)), E], -1)
    return J[..., : 2 * n, :], np.concatenate([top, np.concatenate([-Et, -piC], -1)], -2), C


def dstar_chart(sys, free_cols, s):
    """(q, pi) -> (q, p, frame columns) over generic scalars."""
    q_s = list(s[: sys.n])
    cols = frame_apply(sys, q_s, free_cols)
    return q_s + from_dstar_apply(sys, q_s, s[sys.n :], cols) + sum(cols, [])


def lift_batch(points) -> None:
    """Seed the lifted data of many OnMPoints of one system, frames built:
    one ``numdiff.jacobian_batch`` per object (and frame plan), bitwise the
    per-point lifts, then the splitting and the algebroid of the stacked
    points. A build that raises is left to the per-point builds instead."""
    sys, z, jac = points[0].sys, [x.scalars() for x in points], numdiff.jacobian_batch
    builds = [
        (points, "residual_rows", lambda: jac(functools.partial(residual_phase, sys), z)),
        (points, "dgamma", lambda: jac(functools.partial(gamma_hat_apply, sys), z)),
    ]
    plans = {}
    for x in points:
        plans.setdefault(x.frame.free_cols, []).append(x)
    for free, group in plans.items():
        chart = functools.partial(dstar_chart, sys, free)
        args = [x.dstar_scalars() for x in group]
        builds.append((group, "chart_jacobian", lambda c=chart, a=args: jac(c, a)))
    builds.append((points, "splitting", lambda: zip(*tangent_splitting(sys, points, np.inf))))
    builds.append((points, "algebroid", lambda: zip(*almost_lie_algebroid(points))))
    for group, name, build in builds:
        try:
            values = list(build())
        except BATCH_FAILURES:
            continue
        for x, v in zip(group, values):
            x.__dict__[name] = v  # the cached_property's slot


def require_on_m(sys, q, p, on_m_tol: float | None = None) -> OnMPoint:
    """Validate (q, p) on M: metric, constraint rows, then the residual bound."""
    tol = ON_M_TOL if on_m_tol is None else on_m_tol
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    met = metric_at(sys, q)
    cons = constraints_at(sys, q, met)
    r = float(np.max(np.abs(residual_values(cons.mu, met.Ginv, p))))
    if not r <= tol:  # a NaN residual fails too
        raise NotOnMError(r, tol)
    return OnMPoint(sys=sys, q=q, p=p, met=met, cons=cons, residual=r)


def on_m_point(sys, x, on_m_tol: float | None = None) -> OnMPoint:
    """The phase point x validated on M at on_m_tol.

    A PhasePoint goes through ``require_on_m``. An OnMPoint is checked
    against on_m_tol by its recorded residual; nothing is evaluated again.
    A list or tuple gives its points' OnMPoints in index order; a list of
    PhasePoints is validated in one stacked pass (``_on_m_prefix``), and
    from the first point that fails it each point runs alone, so the first
    invalid point raises as it would alone.
    """
    tol = ON_M_TOL if on_m_tol is None else on_m_tol
    if isinstance(x, (list, tuple)):
        fresh = x and not any(isinstance(y, OnMPoint) for y in x)
        done = _on_m_prefix(sys, x, tol) if fresh else []
        return done + [on_m_point(sys, y, on_m_tol) for y in x[len(done) :]]
    if not isinstance(x, OnMPoint):
        return require_on_m(sys, x.q, x.p, on_m_tol)
    if not x.residual <= tol:
        raise NotOnMError(x.residual, tol)
    return x


def _on_m_prefix(sys, xs, tol):
    """The OnMPoints of the PhasePoints xs up to the first that fails the
    stacked checks of ``require_on_m``, bitwise what it builds."""
    try:
        q, p = (np.array([getattr(x, a) for x in xs], dtype=float) for a in "qp")
        with np.errstate(all="ignore"):
            G, Ginv, mu, gram, ok = _validate_batch(sys, q)
            r = np.abs(residual_values(mu, Ginv, p)).max(-1)
    except BATCH_FAILURES:
        return []
    ok &= r <= tol  # a NaN residual fails too
    return [
        OnMPoint(sys, q[b], p[b], MetricAtPoint(G[b], Ginv[b]),
                 ConstraintsAtPoint(mu[b], gram[b]), float(r[b]))
        for b in range(len(xs) if ok.all() else int(np.argmin(ok)))
    ]


# --- frames for the distribution ---------------------------------------------


def default_frame_plan(mu: np.ndarray, strict_ties: bool = False):
    """Choose pivot columns by rank-revealing elimination with a fixed order.

    Each constraint row pivots on its largest remaining column (ties broken
    toward the lowest index); the complementary columns index the default
    frame. Returns (free_cols, tie_seen).
    """
    m, n = mu.shape
    r = np.array(mu, dtype=float)
    scale = float(np.max(np.abs(r)))
    if scale == 0.0:
        raise RankDeficientError("constraint rows vanish identically here")
    pivots: list[int] = []
    tie = False
    for row in range(m):
        mags = np.abs(r[row]).copy()
        mags[pivots] = -1.0
        best_col = int(np.argmax(mags))
        best = mags[best_col]
        if best <= 1e-10 * scale:
            raise RankDeficientError("constraint rows are dependent here")
        mags[best_col] = -1.0
        second = float(np.max(mags)) if n > len(pivots) + 1 else -1.0
        if second >= best * (1.0 - 1e-9):
            tie = True
            if strict_ties:
                raise FrameDegenerateError(
                    f"pivot tie in constraint row {row}: the default frame "
                    "is discontinuous at this configuration"
                )
        pivots.append(best_col)
        for rr in range(m):
            if rr != row and r[rr, best_col] != 0.0:
                r[rr] = r[rr] - (r[rr, best_col] / r[row, best_col]) * r[row]
    free = tuple(j for j in range(n) if j not in pivots)
    return free, tie


def _frame_checks(mu, E):
    """The checks of ``frame_at`` over the leading axis: the masks of the
    frames E (B, n, k) that leave ker mu (mu (B, m, n)), then of those with
    dependent columns. The second check runs where the first passes; a
    non-finite frame there raises LinAlgError, as it does alone."""
    scale = np.fmax(1.0, np.abs(mu).max((1, 2)) * np.abs(E).max((1, 2)))
    leaves = np.abs(mu @ E).max((1, 2)) > 1e-10 * scale
    s = np.linalg.svd(E[~leaves], compute_uv=False)
    dependent = np.zeros_like(leaves)
    dependent[~leaves] = s[:, -1] <= 1e-10 * np.fmax(1.0, s[:, 0])  # zero columns too
    return leaves, dependent


def frame_at(sys, q, strict_ties: bool = False, mu=None) -> FrameAtPoint:
    """Evaluate (or construct) a frame spanning the distribution fiber at q.

    The columns come from frame_apply on floats. The default frame projects
    the free coordinate axes onto ker(mu) orthogonally and normalizes, which
    varies smoothly with q away from pivot switches. Either frame must
    satisfy mu E = 0 with independent columns; a user frame that fails raises
    FrameInvalidError, a default frame FrameDegenerateError. ``mu`` takes
    the constraint rows at q when the caller has them validated already.
    """
    q_list = [float(v) for v in q]
    if mu is None:
        mu = np.asarray(sys.mu_values(q_list), dtype=float)
    if sys.frame_exprs is not None:
        free, tie, label, invalid = None, False, "user", FrameInvalidError
        E = np.asarray(frame_apply(sys, q_list, free), dtype=float).T
    else:
        free, tie = default_frame_plan(mu, strict_ties)
        label, invalid = "default", FrameDegenerateError
        try:
            E = np.asarray(frame_apply(sys, q_list, free), dtype=float).T
        except SingularMatrixError:
            raise RankDeficientError("constraint rows are dependent here") from None
        except DomainError:  # a column of zero norm
            raise FrameDegenerateError(
                f"default frame column collapsed at q={q_list}"
            ) from None
    leaves, dependent = _frame_checks(mu[None], E[None])
    if leaves[0]:
        raise invalid(f"{label} frame leaves the distribution at q={q_list}")
    if dependent[0]:
        raise invalid(f"{label} frame columns are dependent at q={q_list}")
    return FrameAtPoint(E=E, free_cols=free, pivot_tie=tie)


def frame_batch(points) -> None:
    """Build the frames of OnMPoints of one system, bitwise their
    ``frame_at``: per frame plan, one ``frame_apply`` over (B,) cores and the
    checks stacked. A point whose plan, columns or checks fail builds its own
    frame after, in index order, so the first failure raises as it would alone."""
    plans = {}
    for x in points:
        try:
            user = x.sys.frame_exprs is not None
            free, tie = (None, False) if user else default_frame_plan(x.cons.mu)
        except BATCH_FAILURES:
            continue
        plans.setdefault(free, []).append((x, tie))
    for free, group in plans.items():
        xs = [x for x, _ in group]
        try:
            cols = frame_apply(xs[0].sys, list(stacked(xs, "q").T.copy()), free)
            E = _entries(cols, len(xs)).swapaxes(1, 2)  # each (n, k) laid out as frame_at's
            failed = np.any(_frame_checks(stacked(xs, "cons.mu"), E), axis=0)
        except BATCH_FAILURES:
            continue
        for (x, tie), e, bad in zip(group, E, failed):
            if not bad:
                x.__dict__["frame"] = FrameAtPoint(E=e, free_cols=free, pivot_tie=tie)
    for x in points:
        x.frame


def frame_components(G, E, w) -> np.ndarray:
    """xi = (E^T G E)^-1 E^T G w, so E xi is the G-orthogonal projection of w.

    Leading axes of G (..., n, n) and E (..., n, k) are batch axes, and w
    leads with them too; the axes of w after n form one matrix right-hand
    side, and xi has shape (..., k) + those axes.
    """
    lead, (n, k) = E.shape[:-2], E.shape[-2:]
    ge = G @ E
    rhs = w.reshape(lead + (n, -1))
    xi = np.linalg.solve(E.swapaxes(-1, -2) @ ge, ge.swapaxes(-1, -2) @ rhs)
    return xi.reshape(lead + (k,) + w.shape[len(lead) + 1 :])


# --- symplectic splitting along the constraint manifold -----------------------


def omega_matrix(n: int) -> np.ndarray:
    """Matrix of the canonical two-form in (dq, dp) block coordinates."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def omega_inv_apply(cols: np.ndarray) -> np.ndarray:
    """Apply Omega^-1 = [[0, -I], [I, 0]] columnwise (to the last two axes)."""
    n = cols.shape[-2] // 2
    return np.concatenate([-cols[..., n:, :], cols[..., :n, :]], -2)


def tangent_splitting(sys, x, on_m_tol: float | None = None):
    """Projectors of the symplectic splitting along the constraint manifold.

    Rows of C are the differentials of (i) the membership residuals
    c_a(q, p) = mu_a G^-1 p (``OnMPoint.residual_rows``) and (ii) the base
    conditions (mu_a, 0). Then ker C is the admissible tangent sub-bundle,
    and

        Q = Omega^-1 C^T (C Omega^-1 C^T)^-1 C,    P = I - Q

    project onto it along its symplectic orthogonal complement. ``x`` is a
    PhasePoint or an OnMPoint (see on_m_point), or a list of them: the
    arrays then lead with the batch axis, and the first degenerate point
    raises. Returns (P, Q, C).
    """
    x = on_m_point(sys, x, on_m_tol)
    mu = stacked(x, "cons.mu")
    base = np.concatenate([mu, np.zeros_like(mu)], -1)
    C = np.concatenate([stacked(x, "residual_rows"), base], -2)
    M1 = omega_inv_apply(C.swapaxes(-1, -2))
    K = C @ M1
    for s in np.linalg.svd(K, compute_uv=False).reshape(-1, K.shape[-1]):
        if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
            raise SplittingDegenerateError(
                "the admissible tangent sub-bundle fails to be symplectic here "
                f"(splitting matrix singular values {s})"
            )
    Q = M1 @ np.linalg.solve(K, C)
    P = np.eye(2 * sys.n) - Q
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
    y = numdiff.solve_linear(G, list(p_s))
    c = [numdiff.sum_prod(row, y) for row in mu]
    W = numdiff.solve_linear(G, numdiff.transpose(mu))  # G^-1 mu^T, n x m
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
    cols = []
    for j in free_cols:
        rhs = [mu[a][j] for a in range(m)]
        w = numdiff.solve_linear(A, rhs)
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
