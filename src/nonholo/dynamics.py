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

``integrate`` runs the multiplier route through ``FieldEvaluator``: one
straight-line function per system (the forward pass over the tables, then
the assembly on plain floats) at every RK4 stage, and a second at each
accepted state, which adds ``geometry.validated``'s checks, emitted from
its rule (``geometry.ldl``) on any metric, constant or not, and Eden's
projection. Where a check fails, or a stage point's metric or Gram matrix
has no factor, geometry's error there stops the run. Between the program
calls, the step loop runs on flat lists of Python floats.

The routes' dense solves go through ``_lapack``, numpy's LAPACK gufuncs
without the public wrappers: the same bits and errors, at a lower cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack, dsl, geometry, numdiff
from .errors import InternalConsistencyError, NonholoError, StepFailureError
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
    P = x.splitting[0] if isinstance(x, geometry.OnMPoint) else np.stack([y.splitting[0] for y in x])
    v = (P @ hamiltonian_field(sys, x).as_vector()[..., None])[..., 0]
    return PhaseVelocity(dq=v[..., :n], dp=v[..., n:])


_ZERO, _sum = dsl.ZEROS, dsl.sum_source


def _assembly(sys, state=None):
    """The multiplier route after the forward pass (``compile_forward``'s
    ``then``) on floats: v = G^-1 p, dH/dq with the symmetrized dG (none if
    every metric partial is a literal zero), c, the rate of c along the free
    field, the Gram system, dp and H, returned as (v, dp, H, c, lam). L D L^T
    solves G's symmetric part, literal or not, and the Gram matrix
    (``geometry.emit_rule``); a failed pivot returns 0.0. An accepted
    ``state``'s adds ``geometry.validated``'s checks (failed: 0.0), with
    ``state`` True p := gamma(p), p last."""
    n, m = sys.n, sys.n_constraints
    R, M, k = range(n), range(m), n * n

    def assemble(new, put, vals, grads):
        p = [new(f"s[{n + i}]") for i in R]
        mu = [vals[k + 1 + a * n : k + 1 + (a + 1) * n] for a in M]
        dmu = [grads[k + 1 + a * n : k + 1 + (a + 1) * n] for a in M]  # [a][j][i]: d mu_aj/dq_i

        def dot(x, y):
            return _sum(new, "0.0", list(zip(x, y)))

        def half(table, i, j):  # a flat n x n table's symmetric part, an equal pair as it is, as geometry's
            a, b = table[min(i, j) * n + max(i, j)], table[max(i, j) * n + min(i, j)]
            return a if a == b else new(f"{a} if {a} == {b} else 0.5 * ({a} + {b})")

        def quad(T):  # sum_ij T(i, j) v_i v_j as pairs on u = v_i v_j, i <= j
            pairs = []
            for i, j in ((i, j) for i in R for j in R[i:]):
                a, b = T(i, j), T(j, i)
                ts = [t for t in ((a,) if a == b else (a, b)) if t not in _ZERO]
                u = _sum(new, "0.0", [(v[i], v[j])]) if ts else "0.0"
                pairs += [(t, _sum(new, u, [(u, "1.0")]) if i < j and a == b else u) for t in ts]
            return pairs

        if state is not None:  # geometry.validated's checks before its rule (geometry.emit_rule)
            entries = dict.fromkeys(x for x in [*vals[:k], *(x for row in mu for x in row)] if x.isidentifier())
            if entries:  # each finite (a literal is)
                put(f"if not ({' and '.join(f'{x} - {x} == 0.0' for x in entries)}): return 0.0")
            pairs = dict.fromkeys((vals[i * n + j], vals[j * n + i]) for i in R for j in R[:i])
            for a, b in ((a, b) for a, b in pairs if a != b):  # symmetric to 1e-9 max(1, max |G|)
                tol = new(f"1e-9 * max(1.0, {', '.join(f'abs({x})' for x in vals[:k])})")
                put(f"if not -{tol} <= {new(f'{a} - {b}')} <= {tol}: return 0.0")
        G = [[half(vals, i, j) for j in R[: i + 1]] for i in R]  # the lower triangle, as emit_rule reads it
        bounds = (None,) * 3 if state is None else (geometry.METRIC_BOUND, geometry.ROWS_BOUND, geometry.GRAM_BOUND)
        solve, w, gram = geometry.emit_rule(new, put, mu, G, bounds)  # w_a = G^-1 mu_a
        if state:
            v = solve(p)
            lam = gram([dot(row, v) for row in mu])
            p = [_sum(new, p[i], minus=[(mu[a][i], lam[a]) for a in M]) for i in R]
        v = solve(p)
        dHq = rate = grads[k]
        if any(x not in _ZERO for g in grads[:k] for x in g):
            dG = [[g[i] for g in grads[:k]] for i in R]  # dG[i]: the metric's partials along q_i
            dHq = [_sum(new, grads[k][i], minus=[("0.5", _sum(new, "0.0", quad(
                lambda j, l: half(dG[i], j, l))))]) for i in R]
            rate = [_sum(new, dHq[j], quad(lambda i, l: half(dG[i], j, l))) for j in R]
        lam = gram([_sum(new, "0.0", quad(lambda i, j: dmu[a][j][i]), [(w[a][j], rate[j]) for j in R]) for a in M])
        dp = [_sum(new, "0.0", minus=[(dHq[i], "1.0"), *((mu[a][i], lam[a]) for a in M)]) for i in R]
        H = _sum(new, f"0.5 * {dot(p, v)}", [(vals[k], "1.0")])
        return [*v, *dp, H, *(dot(row, v) for row in mu), *lam, *(() if state is None else p)]

    return assemble


class FieldEvaluator:
    """The constrained field of a system, compiled once for integration.

    ``evaluate`` runs one straight-line function of z = (q, p), a flat list
    of floats, and returns its flat tuple (xdot, H, c, lam): the forward pass
    over q (``dsl.compile_forward``, bitwise a width-n lift of the tables),
    then ``_assembly`` on floats, which factors the metric at every call
    (a constant metric's factor folds into literals as it is emitted).
    ``state`` adds ``geometry.validated``'s checks, by its rule, and Eden's
    projection (``_assembly``), and appends p. Where a program's check
    fails, ``geometry`` raises its own error there.
    """

    def __init__(self, sys: SystemDefinition):
        self.sys, self.n = sys, sys.n
        tables = (*sys.metric_exprs, (sys.potential_expr,), *sys.constraint_exprs)
        self._exprs = [e for row in tables for e in row]
        self._field = self._program(None)
        self._states = {}  # the accepted-state programs, by ``project``

    def _program(self, state):
        return dsl.compile_forward(self._exprs, self.sys.coords, self.sys.params, _assembly(self.sys, state))

    def _failed(self, z, what):
        """Raise geometry's error at q = z[:n], where the ``what`` program failed."""
        q = np.array(z[: self.n], dtype=float)
        geometry.validated(self.sys, q[None])
        raise InternalConsistencyError(f"the {what} program failed where geometry passes, at q={q.tolist()}")

    def evaluate(self, z):
        """The field program's flat tuple (xdot, H, c, lam) at z = (q, p), a flat float list."""
        out = self._field(z)
        if type(out) is float:
            self._failed(z, "field")
        return out

    def state(self, z, project=True):
        """The field at an accepted state z = (q, p), a flat list of floats,
        as one flat tuple (xdot, H, c, lam, p), p projected onto M with
        ``project``: one run of the state program, whose checks fail exactly
        where ``geometry.validated``'s do; there, validated raises its error."""
        if project not in self._states:
            self._states[project] = self._program(project)
        out = self._states[project](z)
        if type(out) is float:
            self._failed(z, "state")
        return out


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
    The start, validated on entry, is evaluated by ``FieldEvaluator.evaluate``;
    each later accepted state is validated, with the checks of
    ``geometry.eden_project``, projected and evaluated by one
    ``FieldEvaluator.state`` call; where its forward pass or geometry raises,
    the run stops with that error. The stage points and the step are formed
    on flat float lists, elementwise in numpy's order of operations on
    arrays: z + (dt/2) k1, ..., z + (dt/6) (((k1 + 2 k2) + 2 k3) + k4). With
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
    z = np.concatenate([x0.q, x0.p]).tolist()
    try:
        rows = np.empty((n_steps + 1, 2 * n + 2 * m + 2))  # (t, q, p, H, c, lam)
    except (MemoryError, ValueError):  # numpy refuses a size past its range with ValueError
        count = n_steps if n_steps <= 2**53 else f"{float(n_steps):.3e}"  # exact below 2**53
        raise NonholoError(f"cannot hold a trajectory of {count} steps in memory") from None
    done = 0

    def accept(t, z, out):
        """Check and record an accepted state from its program's output; return it as k1."""
        nonlocal done
        fields = out[2 * n : 2 * n + 2 * m + 1]  # H, c and lam; a state's p follows
        c = fields[1 : m + 1]
        if not all(map(math.isfinite, fields)):
            raise StepFailureError(
                f"non-finite energy, residual or multiplier at t={t:.6g}",
                trajectory=Trajectory(rows[:done], n),
            )
        if not project_each_step and max(map(abs, c)) > tol:
            raise StepFailureError(
                f"constraint residual {max(map(abs, c)):.3e} exceeded "
                f"{tol:.3e} at t={t:.6g} with projection off",
                trajectory=Trajectory(rows[:done], n),
            )
        rows[done] = (t, *z, *fields)
        done += 1
        return out

    # k1..k4 are whole program outputs, whose xdot (the first 2n entries) zip
    # reads; float + and * overflow to inf/NaN, which accept() refuses
    half, sixth = 0.5 * dt, dt / 6.0
    try:
        k1 = accept(t0, z, ev.evaluate(z))  # the start, validated above
        for i in range(n_steps):
            k2 = ev.evaluate([a + half * b for a, b in zip(z, k1)])
            k3 = ev.evaluate([a + half * b for a, b in zip(z, k2)])
            k4 = ev.evaluate([a + dt * b for a, b in zip(z, k3)])
            z = [a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(z, k1, k2, k3, k4)]
            out = ev.state(z, project_each_step)
            z[n:] = out[-n:]  # the projection, or p itself
            k1 = accept(t0 + (i + 1) * dt, z, out)
    except StepFailureError:
        raise
    except NonholoError as exc:
        raise StepFailureError(
            f"integration stopped: {exc}",
            trajectory=Trajectory(rows[:done], n),
        ) from exc
    return Trajectory(rows[:done], n)
