"""Reference implementations the tests compare the package against.

Only tests call these, so they live here rather than in ``src/nonholo``:
float formulas of the energies and the D* -> M map, the momentum-projection
extension of one observable, the projected Lie bracket of two sections, the
matrix of the canonical two-form, the route tables at a point from its own
linear data and the finite-difference evolution check.
"""

import numpy as np

from nonholo import brackets, dsl, geometry, numdiff
from nonholo.errors import InternalConsistencyError, NonholoError
from nonholo.system import DStarPoint, Observable, PhasePoint, SystemDefinition, hamiltonian_observable


class SectionNotInDError(NonholoError):
    """A vector field handed to the projected Lie bracket leaves the distribution."""


def lagrangian(sys: SystemDefinition, q, v) -> float:
    """L = (1/2) v.G(q).v - V(q) for velocities v."""
    met = geometry.metric_at(sys, q)
    v = np.asarray(v, dtype=float)
    return 0.5 * float(v @ met.G @ v) - float(sys.potential_value(list(map(float, q))))


def energy(sys: SystemDefinition, q, v) -> float:
    """E = (1/2) v.G(q).v + V(q)."""
    met = geometry.metric_at(sys, q)
    v = np.asarray(v, dtype=float)
    return 0.5 * float(v @ met.G @ v) + float(sys.potential_value(list(map(float, q))))


def hamiltonian(sys: SystemDefinition, q, p) -> float:
    """H = (1/2) p.G^-1(q).p + V(q)."""
    met = geometry.metric_at(sys, q)
    p = np.asarray(p, dtype=float)
    return 0.5 * float(p @ met.Ginv @ p) + float(sys.potential_value(list(map(float, q))))


def from_dstar(sys: SystemDefinition, y: DStarPoint) -> PhasePoint:
    """Adjoint of the orthogonal projector onto D: p = G E (E^T G E)^-1 pi.

    The image always satisfies the momentum constraints since mu.E = 0.
    """
    geometry.metric_at(sys, y.q)  # validation: the metric must be SPD
    free = geometry.frame_at(sys, y.q).free_cols
    return PhasePoint(q=y.q, p=geometry.dstar_chart(sys, free, y.scalars())[sys.n : 2 * sys.n])


def omega_matrix(n: int) -> np.ndarray:
    """Matrix of the canonical two-form in (dq, dp) block coordinates."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def gamma_extension(sys: SystemDefinition, f: Observable) -> Observable:
    """Extend an observable off M by precomposing with the momentum projection.

    The result is defined on all of phase space, differentiable through the
    configuration dependence of the projection, and restricts to f on M.
    """
    label = f"gamma({f.label})"
    return Observable(label=label, fn=lambda s: f.fn(geometry.gamma_hat_apply(sys, s)))


def section_from_expressions(sys: SystemDefinition, texts):
    """Compile an n-component vector field on configurations."""
    fns = []
    for t in texts:
        e = dsl.parse_expression(t)
        dsl.validate_identifiers(e, set(sys.coords) | set(sys.params))
        fns.append(dsl.compile_expression(e, sys.coords, sys.params))
    if len(fns) != sys.n:
        raise ValueError(f"section needs {sys.n} components, got {len(fns)}")
    return lambda q_s: [fn(q_s) for fn in fns]


def almost_lie_bracket(sys: SystemDefinition, X, Y, q) -> np.ndarray:
    """Projected Lie bracket of two distribution sections at q.

    Validates that both sections lie in the distribution at q, then returns
    the metric-orthogonal projection of [X, Y] back onto it.
    """
    q_list = [float(v) for v in q]
    mu = np.asarray(sys.mu_values(q_list), dtype=float)
    xv = np.array([numdiff.float_core(v) for v in X(q_list)])
    yv = np.array([numdiff.float_core(v) for v in Y(q_list)])
    scale = max(1.0, float(np.max(np.abs(mu))))
    for nm, vec in (("X", xv), ("Y", yv)):
        r = float(np.max(np.abs(mu @ vec)))
        if r > 1e-9 * scale * max(1.0, float(np.max(np.abs(vec)))):
            raise SectionNotInDError(
                f"section {nm} leaves the distribution at q={q_list} (residual {r:.3e})"
            )
    w = brackets.lie_bracket_raw(sys, X, Y, q_list)
    E = geometry.frame_at(sys, q_list).E
    return E @ geometry.frame_components(geometry.metric_at(sys, q_list).G, E, w)


def route_tables(sys: SystemDefinition, x, raw) -> dict:
    """``brackets.bracket_route_tables`` of the rows ``raw`` at an OnMPoint,
    or stacked over a list of them, from the point's own projection
    Jacobian, splitting and algebroid."""
    P = geometry.tangent_splitting(sys, x, np.inf)[0]
    theta, lam, _ = geometry.almost_lie_algebroid(x)
    return brackets.bracket_route_tables(raw, geometry.dgamma(x), P, theta, lam)


def observable_evolution_check(sys: SystemDefinition, traj, f) -> float:
    """Max gap between the finite-difference observable rate and the bracket.

    At each interior sample the centered difference of f along the
    trajectory is compared against the momentum-projection bracket of f with
    the energy. The same call cross-checks the one-side-projected form built
    on the raw energy; the two must agree to 1e-9. A NaN gap is the result,
    and a NaN in either form fails the cross-check.
    """
    pts = traj.points
    if len(pts) < 3:
        raise ValueError("trajectory too short for centered differences")
    h_obs = hamiltonian_observable(sys)
    gaps = []
    for i in range(1, len(pts) - 1):
        xm, x0, xp = pts[i - 1].x, pts[i].x, pts[i + 1].x
        dt2 = pts[i + 1].t - pts[i - 1].t
        fd = (f.at(xp) - f.at(xm)) / dt2
        x0 = geometry.on_m_point(sys, x0)
        rows = brackets.raw_rows(x0, [f, h_obs])
        ext_f, ext_h = rows @ geometry.dgamma(x0)
        br = float(brackets._pair(ext_f, ext_h, sys.n))
        raw = brackets.nh_values_from_grads(x0.splitting[0], ext_f, rows[1])[1]
        if not abs(br - raw) <= 1e-9:
            raise InternalConsistencyError(
                f"evolution bracket forms disagree: {br!r} vs {raw!r}"
            )
        gaps.append(abs(fd - br))
    return float(np.max(gaps))
