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
accepted state, which adds ``geometry.validated``'s checks (exact, or screens
that pass only where it passes) and Eden's projection. A state they do not
pass goes through ``geometry.validated``, whose error stops the run, as does
a stage point whose metric or Gram matrix fails to factor, with the error
``geometry`` raises there.

The routes' dense solves go through ``_lapack``, numpy's LAPACK gufuncs
without the public wrappers: the same bits and errors, at a lower cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack, dsl, geometry, numdiff
from .errors import NonholoError, NotSPDError, RankDeficientError, StepFailureError
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


_ZERO = ("0.0", "-0.0")


def _sum(new, head, plus=(), minus=()):
    """The reference of head + the products of the pairs ``plus`` - those
    of ``minus``, left to right; a product with a zero literal is left out
    (0 * x is 0, or NaN for x inf) and a factor 1.0 elided."""
    terms = [f" {sign} " + (b if a == "1.0" else a if b == "1.0" else f"{a} * {b}")
             for sign, pairs in (("+", plus), ("-", minus)) for a, b in pairs
             if a not in _ZERO and b not in _ZERO]
    src = "".join(([] if head in _ZERO else [" + " + head]) + terms)
    src = "0.0" if not src else src[3:] if src[1] == "+" else "-" + src[3:]
    return new(src) if " " in src else src


def _ldl(new, put, A, fail, bound=None):
    """The solver b -> A^-1 b of the symmetric A (lower triangle read) by an
    emitted L D L^T without pivoting: each pivot d passes ``not d > 0.0``
    (NaN fails too) or returns ``fail`` before anything divides by it. A ``bound`` adds a
    screen, failed unless s t <= bound for s = max A_ii = max |A|, t = max |A^-1|: kappa/k^2 <= s t <= kappa."""
    N, e, l, d = range(len(A)), {}, {}, []

    def over(a, j):
        return "0.0" if a in _ZERO else a if d[j] == "1.0" else new(f"{a} / {d[j]}")

    for j in N:
        for i in N[j:]:
            e[i, j] = _sum(new, A[i][j], minus=[(e[i, k], l[j, k]) for k in N[:j]])
        d.append(e[j, j])
        put(f"if not {d[j]} > 0.0: return {fail}")
        l.update({(i, j): over(e[i, j], j) for i in N[j + 1 :]})

    def lower(b):  # L^-1 b
        y = []
        for i in N:
            y.append(_sum(new, b[i], minus=[(l[i, k], y[k]) for k in N[:i]]))
        return y

    if bound is not None:  # (A^-1)_ii = sum_k y_k^2 / d_k for y = L^-1 e_i
        ys = (lower([str(float(i == k)) for k in N]) for i in N)
        t = [_sum(new, "0.0", [(y, over(y, k)) for k, y in enumerate(yi)]) for yi in ys]
        put(f"if not max(({', '.join(A[j][j] for j in N)},)) * max(({', '.join(t)},)) <= {bound!r}: return {fail}")

    def solve(b):
        y, x = lower(b), {}
        for i in reversed(N):
            x[i] = _sum(new, over(y[i], i), minus=[(l[k, i], x[k]) for k in N[i + 1 :]])
        return [x[i] for i in N]

    return solve


ROWS_BOUND, GRAM_BOUND = 1e12, 1e6  # s t: kappa(mu mu^T) <= 1e12 m^2 (validated: 1e20), gram's <= 1e6 m^2


def _metric_bound(n, u=2.0**-53):
    """numpy's LU inverse X of G has |G X - I| <= (gamma_3n |L||U| + gamma_n |G|) |X|, |U| <= 2^(n-1) s
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm 9.4): 0.5e-10 at s t of this
    bound, which every G of kappa(G) <= 9.4e3, 1.8e3, 446, 122, 37, 12, 4.1, 1.4 meets at n = 2, ..., 9."""
    return 0.5e-10 / (3 * n * u / (1.0 - 3 * n * u) * (n * (n + 1) / 2 * 2.0 ** (n - 1) + n))


def _assembly(sys, Ginv, state=None):
    """The multiplier route after the forward pass (``compile_forward``'s
    ``then``) on floats: v = G^-1 p, dH/dq with the symmetrized dG, c, the
    rate of c along the free field, the Gram system, dp and H, returned as
    (v, dp, H, c, lam). ``Ginv`` is the validated constant G^-1, written as
    literals, or None: then L D L^T solves G's symmetric part, and a failed
    pivot returns 0.0 (1.0 for the Gram matrix). An accepted ``state``'s adds
    checks and screens (failed: 0.0), with ``state`` True p := gamma(p), p last."""
    n, m = sys.n, sys.n_constraints
    R, M, k = range(n), range(m), 0 if Ginv is not None else n * n

    def assemble(new, put, vals, grads):
        p = [new(f"s[{n + i}]") for i in R]
        mu = [vals[k + 1 + a * n : k + 1 + (a + 1) * n] for a in M]
        dmu = [grads[k + 1 + a * n : k + 1 + (a + 1) * n] for a in M]  # [a][j][i]: d mu_aj/dq_i

        def dot(x, y):
            return _sum(new, "0.0", list(zip(x, y)))

        def half(table, i, j):  # the (i, j) entry of a flat n x n table's symmetric part
            a, b = table[min(i, j) * n + max(i, j)], table[max(i, j) * n + min(i, j)]
            return a if a == b else new(f"0.5 * ({a} + {b})")

        def quad(T):  # sum_ij T(i, j) v_i v_j as pairs on u = v_i v_j, i <= j
            pairs = []
            for i, j in ((i, j) for i in R for j in R[i:]):
                ts = [t for t in dict.fromkeys((T(i, j), T(j, i))) if t not in _ZERO]
                u = _sum(new, "0.0", [(v[i], v[j])]) if ts else "0.0"
                pairs += [(t, _sum(new, u, [(u, "1.0")]) if i < j and T(i, j) == T(j, i) else u) for t in ts]
            return pairs

        if state is not None:  # validated's checks without a factor, exactly
            total = _sum(new, "0.0", [(x, "1.0") for x in [*vals[:k], *(x for row in mu for x in row)]])
            put(f"if not {total} - {total} == 0.0: return 0.0")  # a finite sum
            pairs = dict.fromkeys((vals[i * n + j], vals[j * n + i]) for i in (R if k else ()) for j in R[:i])
            for a, b in ((a, b) for a, b in pairs if a != b):  # symmetric to 1e-9 max(1, max |G|)
                tol = new(f"1e-9 * max(1.0, {', '.join(f'abs({x})' for x in vals[:k])})")
                put(f"if not -{tol} <= {new(f'{a} - {b}')} <= {tol}: return 0.0")
            _ldl(new, put, [[dot(mu[a], mu[b]) for b in range(a + 1)] for a in M], "0.0", ROWS_BOUND)
        if Ginv is None:
            solve = _ldl(new, put, [[half(vals, i, j) for j in R] for i in R], "0.0",
                         None if state is None else _metric_bound(n))
            w = [solve(row) for row in mu]  # w_a = G^-1 mu_a
        else:
            g = [[repr(float(x)) for x in row] for row in Ginv]
            w = [[_sum(new, "0.0", [(row[j], g[j][i]) for j in R]) for i in R] for row in mu]

            def solve(b):
                return [_sum(new, "0.0", [(g[i][j], b[j]) for j in R]) for i in R]
        gram = _ldl(new, put, [[dot(w[b], mu[a]) for b in range(a + 1)] for a in M],
                    *(("1.0", None) if state is None else ("0.0", GRAM_BOUND)))
        if state:
            lam = gram([dot(row, solve(p)) for row in mu])
            p = [_sum(new, p[i], minus=[(mu[a][i], lam[a]) for a in M]) for i in R]
        v = solve(p)
        if Ginv is None:
            dG = [[g[i] for g in grads[:k]] for i in R]  # dG[i]: the metric's partials along q_i
            dHq = [_sum(new, grads[k][i], minus=[("0.5", _sum(new, "0.0", quad(
                lambda j, l: half(dG[i], j, l))))]) for i in R]
            rate = [_sum(new, dHq[j], quad(lambda i, l: half(dG[i], j, l))) for j in R]
        else:
            dHq = rate = grads[k]
        lam = gram([_sum(new, "0.0", quad(lambda i, j: dmu[a][j][i]), [(w[a][j], rate[j]) for j in R]) for a in M])
        dp = [_sum(new, "0.0", minus=[(dHq[i], "1.0"), *((mu[a][i], lam[a]) for a in M)]) for i in R]
        H = _sum(new, f"0.5 * {dot(p, v)}", [(vals[k], "1.0")])
        return [*v, *dp, H, *(dot(row, v) for row in mu), *lam, *(() if state is None else p)]

    return assemble


class FieldEvaluator:
    """The constrained field of a system, compiled once for integration.

    ``evaluate`` runs one straight-line function of (q, p): the forward pass
    over q (``dsl.compile_forward``, bitwise a width-n lift of the tables),
    then ``_assembly`` on floats. A constant metric is validated once, by
    ``geometry.metric_at`` at the first point, and its G^-1 written in; any
    other is factored at every call. ``state`` adds the accepted state's
    checks and projection (``_assembly``); ``project`` validates and projects
    from the forward pass's values, as ``geometry.eden_project`` does.
    """

    def __init__(self, sys: SystemDefinition):
        self.sys, self.n = sys, sys.n
        self._met = None  # the validated constant metric
        metric = () if sys.metric_is_constant else sys.metric_exprs
        tables = (*metric, (sys.potential_expr,), *sys.constraint_exprs)
        self._exprs = [e for row in tables for e in row]
        self._forward = dsl.compile_forward(self._exprs, sys.coords, sys.params)
        self._field = self._first if sys.metric_is_constant else self._program(None)
        self._states = {}  # the accepted-state programs, by ``project``

    def _program(self, *args):  # Ginv, then state
        return dsl.compile_forward(self._exprs, self.sys.coords, self.sys.params, _assembly(self.sys, *args))

    def _constant(self, q):
        """The constant metric, validated at the first q, then written into
        the field's program."""
        if self._met is None:
            self._met = geometry.metric_at(self.sys, q)
            self._field = self._program(self._met.Ginv)
        return self._met

    def _first(self, s):
        self._constant(s[: self.n])
        return self._field(s)

    def project(self, q, p):
        """``geometry.eden_project(sys, q, p)``, bitwise, with its checks and
        errors: ``geometry.validated`` on the forward pass's values."""
        q, n = np.asarray(q, dtype=float), self.n
        met = self._constant(q.tolist()) if self.sys.metric_is_constant else None
        k = 0 if met else n * n  # the metric's entries
        vals = np.array(self._forward(q.tolist())[: len(self._exprs)])
        G, mu = None if met else vals[:k].reshape(1, n, n), vals[k + 1 :].reshape(1, -1, n)
        return geometry.validated(self.sys, q[None], G, met, mu, np.asarray(p, dtype=float)[None])[4][0]

    def evaluate(self, q, p):
        """Return (xdot 2n-vector, lam, residual c, H) at (q, p)."""
        q = np.asarray(q, dtype=float)
        out = self._field(q.tolist() + np.asarray(p, dtype=float).tolist())
        if type(out) is float:  # a failed pivot: geometry's error there, or a plain one
            if out == 0.0:
                geometry.metric_at(self.sys, q)
                raise NotSPDError(f"metric is not positive definite at q={q.tolist()}")
            geometry.constraints_at(self.sys, q, self._met)
            raise RankDeficientError("constraint Gram matrix is singular")
        a, n2, m = np.array(out), 2 * self.n, self.sys.n_constraints
        return a[:n2], a[n2 + m + 1 :], a[n2 + 1 : n2 + m + 1], out[n2]

    def state(self, q, p, project=True):
        """The field at an accepted state as one flat tuple (xdot, H, c, lam,
        p), p projected onto M with ``project``: one run of the state
        program, whose checks and screens pass only where ``validated`` does (a q-dependent metric
        where kappa(G) <= ``_metric_bound(n)``): else ``project`` (its error, or gamma), ``evaluate``."""
        q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
        if project not in self._states:  # a constant metric's G^-1 written in
            Ginv = self._constant(q.tolist()).Ginv if self.sys.metric_is_constant else None
            self._states[project] = self._program(Ginv, project)
        out = self._states[project](q.tolist() + p.tolist())
        if type(out) is float:
            p = np.where(project, self.project(q, p), p)  # geometry's error, or gamma(p)
            xdot, lam, c, H = self.evaluate(q, p)
            out = (*xdot.tolist(), H, *c.tolist(), *lam.tolist(), *p.tolist())
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
    ``FieldEvaluator.state`` call; where its forward pass or its fallback to
    geometry raises, the run stops with that error. With
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
    x = geometry.require_on_m(sys, x0.q, x0.p, tol)  # then the Gram solve of each later state's checks
    geometry.validated(sys, x.q[None], met=x.met, mu=x.cons.mu[None], p=x.p[None])
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
    except (MemoryError, ValueError):  # numpy refuses a size past its range with ValueError
        count = n_steps if n_steps <= 2**53 else f"{float(n_steps):.3e}"  # exact below 2**53
        raise NonholoError(f"cannot hold a trajectory of {count} steps in memory") from None
    done = 0

    def accept(t, z, out):
        """Check and record an accepted state from its field (xdot, H, c, lam); return k1."""
        nonlocal done
        c = out[2 * n + 1 : 2 * n + m + 1]
        if not all(map(math.isfinite, out[2 * n :])):  # H, c and lam
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
        rows[done] = (t, *z, *out[2 * n :])
        done += 1
        return np.array(out[: 2 * n])

    # overflow reaches accept()'s finiteness checks as inf/NaN, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            k1, lam, c, H = ev.evaluate(z[:n], z[n:])  # the start, validated above
            k1 = accept(t0, z, (*k1, H, *c, *lam))
            for i in range(n_steps):
                z2 = z + 0.5 * dt * k1
                k2, _, _, _ = ev.evaluate(z2[:n], z2[n:])
                z3 = z + 0.5 * dt * k2
                k3, _, _, _ = ev.evaluate(z3[:n], z3[n:])
                z4 = z + dt * k3
                k4, _, _, _ = ev.evaluate(z4[:n], z4[n:])
                z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                out = ev.state(z[:n], z[n:], project_each_step)
                z[n:] = out[-n:]  # the projection, or p itself
                k1 = accept(t0 + (i + 1) * dt, z, out[:-n])
        except StepFailureError:
            raise
        except NonholoError as exc:
            raise StepFailureError(
                f"integration stopped: {exc}",
                trajectory=Trajectory(rows[:done], n),
            ) from exc
    return Trajectory(rows[:done], n)
