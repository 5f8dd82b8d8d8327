"""Hamiltonian and constrained vector fields, multipliers, integration.

The constrained field is built twice, by independent constructions:

* multiplier route — solve gram . lam = d/dt(residual along the free field)
  and subtract the reaction force mu^T lam from dp, which is the unique
  force in the annihilator making the field tangent to the constraint
  manifold;
* projection route — apply the symplectic tangent projector to the free
  Hamiltonian field.

Their pointwise agreement is a central verification target, so neither route
is allowed to reuse the other's intermediates. What they may share is their
validated input: a point checked once by ``geometry.require_on_m`` (a
``geometry.OnMPoint``) with the metric and constraint rows that check
produced. The multiplier route reads the constraint rows and their Gram
matrix; the projection route reads the point's symplectic splitting. Neither
reads the other's free field, residual rates, multipliers or projected field.

Either route also takes a list of points as one batch stacked on a leading
axis, by the same code: one width-1 dual pass over (B,) array cores and one
stacked solve (multiplier), one stacked product (projection). Each lifts its
own gradient of H, so the routes of a batch share nothing but its validated
points.

``integrate`` runs the multiplier route through ``FieldEvaluator``, one dual
pass per RK4 stage. At an accepted state that pass also feeds the validated
Eden projection (``FieldEvaluator.project``), projecting or not: the state is
evaluated once, with every check of ``geometry.eden_project``, and recorded
as one array row; a state whose pass raises stops the run with that error.
A stage point whose metric is not positive definite stops the run with
``geometry.metric_at``'s error there, as a state would.

The dense solves, inverses and Cholesky factors here go through ``_lapack``,
numpy's LAPACK gufuncs without the public wrappers: the same bits and
errors, without a fixed cost that every RK4 stage would pay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack, geometry, numdiff
from .errors import NonholoError, StepFailureError
from .system import PhasePoint, SystemDefinition, hamiltonian_scalar


@dataclass(frozen=True)
class PhaseVelocity:
    dq: np.ndarray
    dp: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.dq, self.dp], axis=-1)


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    x: PhasePoint
    H: float
    c: np.ndarray  # constraint residuals
    lam: np.ndarray  # multipliers


@dataclass
class Trajectory:
    """Recorded states; each TrajectoryPoint is built on demand from its row."""

    rows: np.ndarray  # (t, q, p, H, c, lam) per state, in the CSV header's order
    n: int

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return map(self._point, self.rows)

    @property
    def points(self) -> list:
        return list(self)

    def _point(self, row) -> TrajectoryPoint:
        n = self.n
        c, lam = np.split(row[2 * n + 2 :].copy(), 2)
        x = PhasePoint(q=row[1 : n + 1].copy(), p=row[n + 1 : 2 * n + 1].copy())
        return TrajectoryPoint(t=float(row[0]), x=x, H=float(row[2 * n + 1]), c=c, lam=lam)


def hamiltonian_field(sys: SystemDefinition, x: PhasePoint) -> PhaseVelocity:
    """Free field: dq = dH/dp, dp = -dH/dq from the dual-number gradient dH,
    one lift over the points' scalars; over a list of points, stacked."""
    n = sys.n
    z = [p.scalars() for p in (x if isinstance(x, list) else [x])]
    dH = numdiff.jacobian_batch(lambda s: [hamiltonian_scalar(sys, s)], z)[:, 0]
    v = geometry.hamiltonian_vectors(dH if isinstance(x, list) else dH[0])
    return PhaseVelocity(dq=v[..., :n], dp=v[..., n:])


def _free_field_and_multipliers(sys, x):
    """Free field and multipliers at a validated point, or stacked over a
    list of them: one dual pass along the free field
    (``numdiff.directional_batch``) carries every point, on float cores for a
    lone point."""
    free = hamiltonian_field(sys, x)
    n = sys.n
    z = np.concatenate([geometry.stacked(x, "q"), geometry.stacked(x, "p")], -1)
    cdot = numdiff.directional_batch(
        lambda s: geometry.residual_apply(sys, s[:n], s[n:]),
        np.atleast_2d(z),
        np.atleast_2d(free.as_vector()),
    )
    gram = geometry.stacked(x, "cons.gram")
    cdot = cdot.reshape(gram.shape[:-1])
    return free, _lapack.solve(gram, cdot[..., None])[..., 0]


def nonholonomic_field_multiplier(
    sys: SystemDefinition, x: PhasePoint, on_m_tol: float | None = None
) -> PhaseVelocity:
    """Constrained field via reaction forces in the annihilator."""
    x = geometry.on_m_point(sys, x, on_m_tol)
    free, lam = _free_field_and_multipliers(sys, x)
    mu_t = geometry.stacked(x, "cons.mu").swapaxes(-1, -2)
    return PhaseVelocity(dq=free.dq, dp=free.dp - (mu_t @ lam[..., None])[..., 0])


def nonholonomic_field_projection(
    sys: SystemDefinition, x: PhasePoint, on_m_tol: float | None = None
) -> PhaseVelocity:
    """Constrained field as the symplectic projection of the free field."""
    n = sys.n
    x = geometry.on_m_point(sys, x, on_m_tol)
    P = geometry.stacked(x, "splitting")[0]
    v = (P @ hamiltonian_field(sys, x).as_vector()[..., None])[..., 0]
    return PhaseVelocity(dq=v[..., :n], dp=v[..., n:])


def _values_and_grads(table, n):
    """The values (r, c) and configuration gradients (r, c, n) of a table of
    closure results over one width-n lift: floats or duals. The lift is of a
    lone point's floats, so a dual here has float cores and tuple partials,
    never the packed partials of array cores."""
    vals = np.empty((len(table), len(table[0])))
    grads = np.zeros(vals.shape + (n,))
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if type(v) is numdiff.DualScalar:
                vals[i, j], grads[i, j] = v.value, v.partials
            else:
                vals[i, j] = v
    return vals, grads


class FieldEvaluator:
    """Per-point assembly of the constrained field for integration.

    One width-n dual pass over q gives the metric, potential and constraint
    entries and their configuration gradients; plain matrix algebra then
    assembles the multiplier-route field. A dual's value is its float
    closure's, bit for bit, so ``project`` validates and projects from that
    pass and holds it for the ``evaluate`` that follows at the same q. A
    constant metric is validated once, by ``geometry.metric_at``, and reused;
    any other metric at a point ``project`` did not see (an RK4 stage) must
    have a Cholesky factor before it is inverted, and a Gram matrix that
    cannot be solved there raises the constraint rows' own error. The
    factorization, the inverse and the multipliers' solve call ``_lapack``.
    """

    def __init__(self, sys: SystemDefinition):
        self.sys = sys
        self.n = sys.n
        self._met = None  # the validated constant metric
        self._held = None  # (q bytes, entries) of the last projection

    def _entries(self, q_list):
        """(G, dG, V, dV, mu, dmu) at q from one lift, dG[i] = dG/dq_i and
        dmu[a, j, i] = d mu_aj / d q_i; G and dG are None for a constant metric."""
        sys, n = self.sys, self.n
        duals = numdiff.lift(q_list)
        G = dG = None
        if sys.metric_is_constant:
            self._met = self._met or geometry.metric_at(sys, q_list)
        else:
            G, dG = _values_and_grads(sys.metric_values(duals), n)
            dG = np.ascontiguousarray(dG.transpose(2, 0, 1))
            dG = 0.5 * (dG + dG.transpose(0, 2, 1))
        V = sys.potential_value(duals)
        dual = type(V) is numdiff.DualScalar
        V, dV = (V.value, np.array(V.partials)) if dual else (V, np.zeros(n))
        mu, dmu = _values_and_grads(sys.mu_values(duals), n)
        return G, dG, float(V), dV, mu, dmu

    def project(self, q, p):
        """``geometry.eden_project(sys, q, p)``, bitwise, with its checks and
        errors (``geometry.validated`` on the dual pass's values), from the
        entries that ``evaluate`` at q then reuses."""
        q = np.asarray(q, dtype=float)[None]
        G, dG, V, dV, mu, dmu = self._entries(q[0].tolist())
        _, Ginv, _, _, p = geometry.validated(
            self.sys, q, None if G is None else G[None], self._met, mu[None], np.asarray(p, dtype=float)[None]
        )
        self._held = (q.tobytes(), (Ginv[0], dG, V, dV, mu, dmu))
        return p[0]

    def _inverse(self, q, Gs):
        """Gs^-1 at a point ``project`` did not validate (an RK4 stage): one
        Cholesky factorization keeps a stage from jumping the metric's
        singularity; where it fails, ``geometry.metric_at`` raises its error."""
        try:
            _lapack.cholesky(Gs)
        except np.linalg.LinAlgError:
            geometry.metric_at(self.sys, q)
        return _lapack.inv(Gs)

    def evaluate(self, q, p):
        """Return (xdot 2n-vector, lam, residual c, H) at (q, p)."""
        held, self._held = self._held, None
        q = np.asarray(q, dtype=float)
        if held is not None and held[0] == q.tobytes():
            Ginv, dG, Vval, dV, mu, dmu = held[1]
        else:
            G, dG, Vval, dV, mu, dmu = self._entries(q.tolist())
            Ginv = self._met.Ginv if G is None else self._inverse(q, 0.5 * (G + G.T))
        v = Ginv @ p
        if dG is None:
            dHq = dV
        else:
            dHq = -0.5 * np.einsum("j,ijk,k->i", v, dG, v) + dV
        c = mu @ v
        # dc/dq[a, i] = (d_i mu_a).v - (mu_a Ginv) dG_i v
        muGinv = mu @ Ginv
        dc_q = np.einsum("aji,j->ai", dmu, v)
        if dG is not None:
            dc_q -= np.einsum("aj,ijk,k->ai", muGinv, dG, v)
        rhs = dc_q @ v + muGinv @ (-dHq)
        gram = muGinv @ mu.T
        try:
            lam = _lapack.solve(gram, rhs)
        except np.linalg.LinAlgError:  # dependent rows at an RK4 stage
            geometry.constraints_at(self.sys, q, self._met)
            raise
        dp = -dHq - mu.T @ lam
        H = 0.5 * float(p @ v) + Vval
        return np.concatenate([v, dp]), lam, c, H


def integrate(
    sys: SystemDefinition,
    x0: PhasePoint,
    t0: float,
    t1: float,
    dt: float,
    project_each_step: bool = True,
    on_m_tol: float | None = None,
) -> Trajectory:
    """Classical fixed-step RK4 on the multiplier-route constrained field.

    The run takes round((t1 - t0)/dt) steps of dt, so its last row is at
    t0 + round((t1 - t0)/dt) dt, within dt/2 of t1; a step count below one
    is refused before the first step, as one that is not finite is.
    Each accepted state is validated by ``FieldEvaluator.project``, with the
    checks of ``geometry.eden_project``, from the dual pass that evaluates
    it; where that pass raises, the run stops with its error. With
    ``project_each_step`` the projection replaces the momentum; without it
    the raw drift is observable and the on-manifold tolerance is enforced at
    step boundaries. The evaluation at an accepted state is both its recorded
    row and the next step's first stage. A state that fails validation or
    records a non-finite H, residual or multiplier raises StepFailureError
    carrying the trajectory up to the last good state.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    tol = geometry.ON_M_TOL if on_m_tol is None else on_m_tol
    geometry.require_on_m(sys, x0.q, x0.p, tol)
    ev = FieldEvaluator(sys)
    n, m = sys.n, sys.n_constraints
    span = (t1 - t0) / dt
    if not math.isfinite(span):
        raise NonholoError(f"step count (t1 - t0)/dt = {span!r} is not finite")
    n_steps = int(round(span))
    if n_steps < 1:
        raise NonholoError(f"step count (t1 - t0)/dt = {span!r} rounds to {n_steps} steps")
    z = np.concatenate([x0.q, x0.p])
    try:
        rows = np.empty((n_steps + 1, 2 * n + 2 * m + 2))  # (t, q, p, H, c, lam)
    except MemoryError:
        raise NonholoError(f"cannot hold a trajectory of {n_steps} steps in memory") from None
    done = 0

    def accept(t, z):
        """Evaluate at an accepted state, check it, record it; return k1."""
        nonlocal done
        k1, lam, c, H = ev.evaluate(z[:n], z[n:])
        finite = np.all(np.isfinite(c)) and np.all(np.isfinite(lam))
        if not (math.isfinite(H) and finite):
            raise StepFailureError(
                f"non-finite energy, residual or multiplier at t={t:.6g}",
                trajectory=Trajectory(rows[:done], n),
            )
        if not project_each_step and float(np.max(np.abs(c))) > tol:
            raise StepFailureError(
                f"constraint residual {float(np.max(np.abs(c))):.3e} exceeded "
                f"{tol:.3e} at t={t:.6g} with projection off",
                trajectory=Trajectory(rows[:done], n),
            )
        row = rows[done]
        row[0], row[1 : 2 * n + 1], row[2 * n + 1], row[2 * n + 2 :] = t, z, H, (*c, *lam)
        done += 1
        return k1

    # overflow reaches accept()'s finiteness checks as inf/NaN, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            k1 = accept(t0, z)
            for i in range(n_steps):
                z2 = z + 0.5 * dt * k1
                k2, _, _, _ = ev.evaluate(z2[:n], z2[n:])
                z3 = z + 0.5 * dt * k2
                k3, _, _, _ = ev.evaluate(z3[:n], z3[n:])
                z4 = z + dt * k3
                k4, _, _, _ = ev.evaluate(z4[:n], z4[n:])
                z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                p = ev.project(z[:n], z[n:])  # validated from the pass that evaluates it
                if project_each_step:
                    z[n:] = p
                k1 = accept(t0 + (i + 1) * dt, z)
        except StepFailureError:
            raise
        except NonholoError as exc:
            raise StepFailureError(
                f"integration stopped: {exc}",
                trajectory=Trajectory(rows[:done], n),
            ) from exc
    return Trajectory(rows[:done], n)
