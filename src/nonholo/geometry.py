"""Pointwise metric algebra and the two projectors.

Each geometric object has one formula, written over generic scalars (floats
or duals) in the ``*_apply`` functions and ``splitting_rows`` so that the
forward-mode engine can differentiate it. The float entry points are
validation (symmetry and positive definiteness, rank, conditioning, frame
membership) plus that formula on floats. The exception is the Eden
projection, which keeps its own numpy arithmetic because sampling seeds
every point through it; ``gamma_apply`` is its differentiable counterpart.

Each validated object has one body over a leading batch axis: ``validated``
(metric, constraint rows, Gram matrix, then the residual bound or the Eden
projection), ``_frames`` and ``_lift``. A lone point runs it on float cores
(``cores``) through the single-point entry points; a list runs it once over
(B,) array cores (``on_m_point`` of a list, ``frame_batch``, ``lift_batch``,
the sampler). A body gives per point its result or the error that point
raises alone, read off the check masks. Only a failure a stack cannot pin on
one point (a dual DomainError on array cores, a LinAlgError over the whole
stack) reruns its points one by one (``per_point``). Every array a stacked
pass keeps is bitwise the per-point one.

The on-manifold tolerance ON_M_TOL is the default of every operation that
requires its phase point on M; callers may override it per call.
``require_on_m`` validates a point once into an ``OnMPoint``, the one
per-point object: operations that need a point on M accept it in place of a
PhasePoint, and it builds its linear data once, on demand (splitting,
projection Jacobian, frame, algebroid), by float formulas written over
leading axes, so the same code takes one point or a list (``stacked``).
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

# raised by a stacked pass that cannot tell which point failed (per_point)
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


def per_point(body, *stacks):
    """``body(*stacks)``: per element of their leading axis, its result or the
    error it raises alone. Where the stacked pass raises BATCH_FAILURES, each
    element runs alone, in index order, and an error it raises is its result."""
    try:
        return body(*stacks)
    except BATCH_FAILURES:
        pass
    out = []
    for b in range(len(stacks[0])):
        try:
            out.extend(body(*(s[b : b + 1] for s in stacks)))
        except BATCH_FAILURES as exc:
            out.append(exc)
    return out


def raise_first(results):
    """The per-point results, unless one is an error: then the first raises."""
    for r in results:
        if isinstance(r, Exception):
            raise r
    return results


def cores(z):
    """The closure inputs at the rows of z (B, w): the floats of a lone row,
    or one (B,) array per column, so one point never runs on array cores."""
    z = np.asarray(z, dtype=float)
    return z[0].tolist() if len(z) == 1 else list(z.T.copy())


def _entries(rows, B):
    """The (B, r, c) array of a table of closure values, floats or (B,) arrays."""
    if B == 1:
        return np.asarray(rows, dtype=float)[None]
    out = np.empty((B, len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[:, i, j] = v
    return out


def _one(v):
    """One point's vector as a stack of one row."""
    return np.asarray(v, dtype=float)[None]


def _attempt(fn, *args):
    """fn(*args) over stacked matrices and the mask of those it rejects: a
    lone one gives NaN and [True]; a stack raises LinAlgError (which one?)."""
    try:
        return fn(*args), np.zeros(len(args[0]), bool)
    except np.linalg.LinAlgError:
        if len(args[0]) > 1:
            raise
        return np.full_like(args[-1], np.nan), np.ones(1, bool)


_METRIC_FAILURES = ("has non-finite entries", "is not symmetric",
                    "is not positive definite", "is too ill-conditioned")


def _metric_checks(G):
    """The checks of the metric over the leading axis of G (B, n, n): the
    symmetrized G, its inverse and the failure masks in check order. A point
    fails at the first mask that holds there; the later ones mean nothing."""
    largest = np.abs(G).max((1, 2))  # inf or NaN where an entry is
    finite = np.isfinite(largest)
    if not finite.all():  # NaN, unlike inf, passes the arithmetic below silently
        G = np.where(finite[:, None, None], G, np.nan)
    Gt, eye = G.swapaxes(1, 2), _eye(G.shape[-1])
    scale = np.fmax(1.0, largest)
    Gs = 0.5 * (G + Gt)
    _, not_pd = _attempt(np.linalg.cholesky, Gs)
    Ginv, _ = _attempt(np.linalg.inv, Gs)  # NaN where inv rejects a lone Gs
    asymmetric = np.abs(G - Gt).max((1, 2)) > 1e-9 * scale
    ill_conditioned = np.abs(Gs @ Ginv - eye).max((1, 2)) > 1e-10 * scale
    return Gs, Ginv, (~finite, asymmetric, not_pd, ill_conditioned)


def _row_checks(mu):
    """The checks of the constraint rows mu (B, m, n), stacked: the singular
    values and the masks of non-finite and of dependent rows (s is sorted and
    nonnegative, so vanishing rows are dependent too)."""
    finite = np.isfinite(mu).all((1, 2))
    try:
        s = np.linalg.svd(mu, compute_uv=False)
    except np.linalg.LinAlgError:  # non-finite rows, which fail first
        s = np.linalg.svd(np.where(finite[:, None, None], mu, 0.0), compute_uv=False)
    return s, (~finite, s[:, -1] <= 1e-10 * s[:, 0])


def _first_errors(checks, B):
    """Per point, the error of the first check it fails, or None; checks
    holds (mask, error at point b) in the order one point runs them."""
    if B == 1:  # a lone point, without stacking its masks
        for mask, error in checks:
            if mask[0]:
                return [error(0)]
        return [None]
    fails = np.array([m for m, _ in checks])
    errors = [None] * B
    for b in np.flatnonzero(fails.any(0)):
        errors[b] = checks[int(fails[:, b].argmax())][1](b)
    return errors


def validated(sys, q, G=None, met=None, mu=None, p=None, tol=None, rows=True):
    """The one check body, over the configurations q (B, n): the metric's
    checks on G (B, n, n), unless ``met`` is the validated constant metric;
    with ``rows``, those of the constraint rows mu (B, m, n) and their Gram
    matrix; then, with momenta p (B, n), the residual bound ``tol``, or the
    Eden projection p - mu^T gram^-1 mu G^-1 p. G and mu are the closures'
    values at q unless given (a dual pass's); a lone point whose metric fails
    evaluates no rows. Returns G, Ginv, mu, gram and the residual norms or the
    projections, stacked, and per point the error it raises alone, or None.
    """
    B, checks = len(q), []

    def solvable():  # a stack's Gram check and solve see its passing points only
        if B == 1:
            return gram
        return np.where(~np.any([m for m, _ in checks], 0)[:, None, None], gram, _eye(len(gram[0])))

    if met is None:
        G, Ginv, fails = _metric_checks(_entries(sys.metric_values(cores(q)), B) if G is None else G)
        checks += [(f, lambda b, w=w: NotSPDError(f"metric {w} at q={q[b].tolist()}"))
                   for f, w in zip(fails, _METRIC_FAILURES)]
    else:
        G, Ginv = met.G[None], met.Ginv[None]
    gram = value = None
    if rows and not (B == 1 and _first_errors(checks, 1)[0]):
        mu = _entries(sys.mu_values(cores(q)), B) if mu is None else mu
        s, (non_finite, dependent) = _row_checks(mu)
        checks += [
            (non_finite, lambda b: RankDeficientError(
                f"constraint rows non-finite at q={q[b].tolist()}")),
            (dependent, lambda b: RankDeficientError(
                f"constraint rows are dependent at q={q[b].tolist()} (singular values {s[b]})")),
        ]
        gram = mu @ Ginv @ mu.swapaxes(1, 2)
        checked = solvable()
        _, not_pd = _attempt(np.linalg.cholesky, 0.5 * (checked + checked.swapaxes(1, 2)))
        checks.append((not_pd, lambda b: RankDeficientError(
            f"constraint Gram matrix is not positive definite at q={q[b].tolist()}")))
        if p is not None and tol is not None:
            value = np.abs(residual_values(mu, Ginv, p)).max(-1)
            checks.append((~(value <= tol), lambda b: NotOnMError(float(value[b]), tol)))
        elif p is not None:
            lam, singular = _attempt(np.linalg.solve, solvable(), mu @ (Ginv @ p[..., None]))
            value = p - (mu.swapaxes(1, 2) @ lam)[..., 0]
            checks.append((singular, lambda b: RankDeficientError(
                "constraint Gram matrix is singular")))
    return G, Ginv, mu, gram, value, _first_errors(checks, B)


def metric_at(sys, q) -> MetricAtPoint:
    """Evaluate G(q) and its inverse; fail if not symmetric positive definite."""
    G, Ginv, *_, errors = validated(sys, _one(q), rows=False)
    raise_first(errors)
    return MetricAtPoint(G=G[0], Ginv=Ginv[0])


def flat(sys, q, v) -> np.ndarray:
    """Lower the index: p = G(q) v."""
    return metric_at(sys, q).G @ np.asarray(v, dtype=float)


def sharp(sys, q, p) -> np.ndarray:
    """Raise the index: v = G(q)^-1 p."""
    return metric_at(sys, q).Ginv @ np.asarray(p, dtype=float)


def constraints_at(sys, q, met: MetricAtPoint | None = None) -> ConstraintsAtPoint:
    """Assemble the constraint rows and their cometric Gram matrix at q,
    checked after the metric's checks unless ``met`` is validated already."""
    *_, mu, gram, _, errors = validated(sys, _one(q), met=met)
    raise_first(errors)
    return ConstraintsAtPoint(mu=mu[0], gram=gram[0])


def residual_values(mu, Ginv, p) -> np.ndarray:
    """c = mu G^-1 p over leading axes: p (..., n) gives c (..., m)."""
    return (mu @ (Ginv @ p[..., None]))[..., 0]


def velocity_constraint(sys, q, p) -> np.ndarray:
    """Residual c with c_a = mu_a . G^-1 p; p lies on M iff this vanishes."""
    met = metric_at(sys, q)
    cons = constraints_at(sys, q, met)
    return residual_values(cons.mu, met.Ginv, np.asarray(p, dtype=float))


def eden_project(sys, q, p) -> np.ndarray:
    """Project a covector onto the constraint manifold along the annihilator.

    gamma(p) = p - mu^T gram^-1 mu G^-1 p; orthogonal for the cometric.
    """
    return raise_first(eden_projections(sys, _one(q), _one(p)))[0]


def eden_projections(sys, q, p) -> list:
    """Per row of q and p (B, n): its Eden projection, or the error
    ``eden_project`` raises there (``validated`` with p)."""
    *_, value, errors = validated(sys, q, p=p)
    return [e or value[b] for b, e in enumerate(errors)]


def residual_norm(sys, q, p) -> float:
    return float(np.max(np.abs(velocity_constraint(sys, q, p))))


@dataclass(frozen=True, eq=False)
class OnMPoint:
    """A phase point on M with the data its validation produced.

    Built by ``require_on_m`` or ``on_m_point`` only: its metric, constraint
    rows and Gram matrix passed ``validated`` and its residual the caller's
    tolerance. It has the ``q``, ``p`` and ``scalars()`` of a PhasePoint, and
    builds the per-point linear data lazily, once: the symplectic splitting,
    the projection Jacobian, the distribution frame and the almost Lie
    algebroid.
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

    @cached_property  # one _lift each, as lift_batch builds them
    def residual_rows(self) -> np.ndarray:
        """Differentials of the residuals c_a (the first splitting rows)."""
        return _lift([self], "residual_rows")[0]

    @cached_property
    def dgamma(self) -> np.ndarray:
        """Jacobian of the phase-space momentum projection at this point."""
        return _lift([self], "dgamma")[0]

    @cached_property
    def frame(self) -> FrameAtPoint:
        return frame_at(self.sys, self.q, mu=self.cons.mu)

    def dstar_scalars(self) -> list[float]:
        """(q, pi) with pi = E^T p, the image of this point in D*."""
        return [*self.q.tolist(), *(self.frame.E.T @ self.p).tolist()]

    @cached_property
    def chart_jacobian(self) -> np.ndarray:
        """Jacobian of ``dstar_chart`` at (q, pi): rows (q, p, frame columns)."""
        return _lift([self], "chart_jacobian")[0]

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


def _lift(points, name):
    """The data ``name`` of OnMPoints of one system, per point. A lifted
    Jacobian (residual_rows, dgamma, chart_jacobian at the first point's
    frame plan) is one ``numdiff.jacobian_batch``, float cores for a lone
    point; the splitting and the algebroid are those of the stacked points."""
    sys = points[0].sys
    if name == "splitting":
        return list(zip(*tangent_splitting(sys, points, np.inf)))
    if name == "algebroid":
        return list(zip(*almost_lie_algebroid(points)))
    if name == "chart_jacobian":
        chart = functools.partial(dstar_chart, sys, points[0].frame.free_cols)
        return numdiff.jacobian_batch(chart, [x.dstar_scalars() for x in points])
    F = residual_phase if name == "residual_rows" else gamma_hat_apply
    return numdiff.jacobian_batch(functools.partial(F, sys), [x.scalars() for x in points])


def lift_batch(points) -> None:
    """Seed the lifted data of many OnMPoints of one system, frames built:
    one ``_lift`` per object (and per frame plan for the chart), each bitwise
    the per-point build. A point whose build fails keeps its lazy one, which
    raises as it would alone."""
    plans = {}
    for x in points:
        plans.setdefault(x.frame.free_cols, []).append(x)
    for name in ("residual_rows", "dgamma", "chart_jacobian", "splitting", "algebroid"):
        for group in plans.values() if name == "chart_jacobian" else [points]:
            for x, value in zip(group, per_point(functools.partial(_lift, name=name), group)):
                if not isinstance(value, Exception):
                    x.__dict__[name] = value  # the cached_property's slot


def require_on_m(sys, q, p, on_m_tol: float | None = None) -> OnMPoint:
    """Validate (q, p) on M: metric, constraint rows, then the residual bound."""
    tol = ON_M_TOL if on_m_tol is None else on_m_tol
    return raise_first(_on_m_points(sys, _one(q), _one(p), tol))[0]


def on_m_point(sys, x, on_m_tol: float | None = None) -> OnMPoint:
    """The phase point x validated on M at on_m_tol.

    A PhasePoint goes through ``require_on_m``. An OnMPoint is checked
    against on_m_tol by its recorded residual; nothing is evaluated again.
    A list or tuple gives its points' OnMPoints in index order, PhasePoints
    in one stacked pass whose first invalid point raises as it would alone.
    """
    tol = ON_M_TOL if on_m_tol is None else on_m_tol
    if isinstance(x, (list, tuple)):
        if not x or any(isinstance(y, OnMPoint) for y in x):
            return [on_m_point(sys, y, on_m_tol) for y in x]
        q, p = (np.array([getattr(y, a) for y in x], dtype=float) for a in "qp")
        with np.errstate(all="ignore"):
            return raise_first(per_point(functools.partial(_on_m_points, sys, tol=tol), q, p))
    if not isinstance(x, OnMPoint):
        return require_on_m(sys, x.q, x.p, on_m_tol)
    if not x.residual <= tol:
        raise NotOnMError(x.residual, tol)
    return x


def _on_m_points(sys, q, p, tol):
    """Per row of q and p (B, n): its OnMPoint, or the error ``require_on_m``
    raises there (``validated`` with the residual bound tol)."""
    G, Ginv, mu, gram, r, errors = validated(sys, q, p=p, tol=tol)
    return [
        e or OnMPoint(sys, q[b], p[b], MetricAtPoint(G[b], Ginv[b]),
                      ConstraintsAtPoint(mu[b], gram[b]), float(r[b]))
        for b, e in enumerate(errors)
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


def _frames(sys, q, mu, strict_ties=False):
    """The one frame body: per configuration of q (B, n), with its rows
    mu (B, m, n), its FrameAtPoint or the error ``frame_at`` raises there;
    per frame plan, one ``frame_apply`` and the checks, stacked."""
    user = sys.frame_exprs is not None
    label, invalid = ("user", FrameInvalidError) if user else ("default", FrameDegenerateError)
    out, plans = [None] * len(q), {}
    for b in range(len(q)):
        try:
            free, tie = (None, False) if user else default_frame_plan(mu[b], strict_ties)
            plans.setdefault(free, []).append((b, tie))
        except (RankDeficientError, FrameDegenerateError) as exc:
            out[b] = exc
    for free, group in plans.items():
        idx = [b for b, _ in group]
        qs, mus = (q, mu) if len(idx) == len(q) else (q[idx], mu[idx])
        try:
            E = _entries(frame_apply(sys, cores(qs), free), len(idx)).swapaxes(1, 2)
        except (SingularMatrixError, DomainError) as exc:
            if user or len(idx) > 1:
                raise  # a stack cannot tell which point
            out[idx[0]] = (  # dependent rows, or a column of zero norm
                RankDeficientError("constraint rows are dependent here")
                if isinstance(exc, SingularMatrixError)
                else FrameDegenerateError(f"default frame column collapsed at q={qs[0].tolist()}")
            )
            continue
        for (b, tie), e, leaves, dependent in zip(group, E, *_frame_checks(mus, E)):
            what = "leaves the distribution" if leaves else "columns are dependent"
            out[b] = (invalid(f"{label} frame {what} at q={q[b].tolist()}") if leaves or dependent
                      else FrameAtPoint(E=e, free_cols=free, pivot_tie=tie))
    return out


def frame_at(sys, q, strict_ties: bool = False, mu=None) -> FrameAtPoint:
    """Evaluate (or construct) a frame spanning the distribution fiber at q.

    The columns come from frame_apply on floats. The default frame projects
    the free coordinate axes onto ker(mu) orthogonally and normalizes, which
    varies smoothly with q away from pivot switches. Either frame must
    satisfy mu E = 0 with independent columns; a user frame that fails raises
    FrameInvalidError, a default frame FrameDegenerateError. ``mu`` takes
    the constraint rows at q when the caller has them validated already.
    """
    q = _one(q)
    mu = _entries(sys.mu_values(cores(q)), 1) if mu is None else mu[None]
    return raise_first(_frames(sys, q, mu, strict_ties))[0]


def frame_batch(points) -> None:
    """Build the frames of OnMPoints of one system in one ``_frames`` pass,
    bitwise their ``frame_at``; the first point whose frame fails raises as
    it would alone."""
    if not points:
        return
    body = functools.partial(_frames, points[0].sys)
    frames = per_point(body, stacked(points, "q"), stacked(points, "cons.mu"))
    for x, fr in zip(points, frames):
        if isinstance(fr, FrameAtPoint):
            x.__dict__["frame"] = fr
    raise_first(frames)


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
