"""Reference implementations the tests compare the package against.

Only tests call these, so they live here rather than in ``src/nonholo``:
float formulas of the energies and the D* -> M map, the momentum-projection
extension of one observable, the projected Lie bracket of two sections, the
matrix of the canonical two-form, the route tables at a point from its own
linear data, the finite-difference evolution check, the closure trees and
the width-n dual pass through which the expression tables were evaluated
before ``dsl`` emitted straight-line code, and the numpy assembly of the
multiplier-route field that ``dynamics.FieldEvaluator`` now emits.
"""

import numpy as np

from nonholo import brackets, dsl, geometry, numdiff
from nonholo.errors import DomainError, InternalConsistencyError, NonholoError, UnknownIdentifierError
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


def closure_expression(expr, names, constants=None):
    """The closure tree ``dsl.compile_expression`` once built: a positional
    closure over a scalar sequence, one closure per node, nothing shared.

    ``names[i]`` binds to slot i of the argument; ``constants`` are baked in.
    Constant subtrees are folded at compile time when safe. One pass over
    the tree: each node is built once and reports whether it is constant.
    """
    constants = constants or {}
    index = {nm: i for i, nm in enumerate(names)}

    def build(e):
        """(closure, constant): constant when every name below is baked in."""
        f, const = build_node(e)
        if const:
            try:
                v = f([])
                return (lambda s, v=v: v), True
            except DomainError:
                pass  # leave dynamic so the error surfaces at evaluation
        return f, const

    def build_node(e):
        if isinstance(e, dsl.Num):
            v = e.value
            return (lambda s, v=v: v), True
        if isinstance(e, dsl.Var):
            if e.name in index:
                i = index[e.name]
                return (lambda s, i=i: s[i]), False
            if e.name in constants:
                v = float(constants[e.name])
                return (lambda s, v=v: v), True
            raise UnknownIdentifierError(e.name)
        if isinstance(e, dsl.Neg):
            f, const = build(e.arg)
            return (lambda s, f=f: -f(s)), const
        if isinstance(e, dsl.Bin):
            (lf, lconst), (rf, rconst) = build(e.left), build(e.right)
            op, const = e.op, lconst and rconst
            if op == "+":
                return (lambda s, lf=lf, rf=rf: lf(s) + rf(s)), const
            if op == "-":
                return (lambda s, lf=lf, rf=rf: lf(s) - rf(s)), const
            if op == "*":
                return (lambda s, lf=lf, rf=rf: lf(s) * rf(s)), const
            if op == "/":
                dv = numdiff.divide
                return (lambda s, lf=lf, rf=rf, dv=dv: dv(lf(s), rf(s))), const
            pw = numdiff.power
            return (lambda s, lf=lf, rf=rf, pw=pw: pw(lf(s), rf(s))), const
        fn = numdiff.FUNCTIONS[e.fn]
        af, const = build(e.arg)
        return (lambda s, fn=fn, af=af: fn(af(s))), const

    return build(expr)[0]


def forward_entries(sys: SystemDefinition, flat):
    """(G, dG, V, dV, mu, dmu) from the flat tuple of the forward pass over
    ``dynamics.FieldEvaluator._exprs``: dG[i] = dG/dq_i, symmetrized, and
    dmu[a, j, i] = d mu_aj / d q_i."""
    n = sys.n
    k = n * n  # the metric's entries
    flat = np.array(flat)
    e = len(flat) // (n + 1)  # values, then partials entry by entry
    vals, grads = flat[:e], flat[e:].reshape(e, n)
    dG = grads[:k].reshape(n, n, n).transpose(2, 0, 1)
    dG = 0.5 * (dG + dG.transpose(0, 2, 1))
    return (vals[:k].reshape(n, n), dG, float(vals[k]), grads[k], vals[k + 1 :].reshape(-1, n),
            grads[k + 1 :].reshape(-1, n, n))


def lifted_entries(sys: SystemDefinition, q_list):
    """``forward_entries`` as one width-n lift through the generic tables:
    (G, dG, V, dV, mu, dmu), dG symmetrized."""
    n = sys.n
    duals = numdiff.lift(q_list)

    def values_and_grads(table):
        vals = np.empty((len(table), len(table[0])))
        grads = np.zeros(vals.shape + (n,))
        for i, row in enumerate(table):
            for j, v in enumerate(row):
                if isinstance(v, numdiff.DualScalar):
                    vals[i, j], grads[i, j] = v.value, v.partials
                else:
                    vals[i, j] = v
        return vals, grads

    G, dG = values_and_grads(sys.metric_values(duals))
    dG = np.ascontiguousarray(dG.transpose(2, 0, 1))
    dG = 0.5 * (dG + dG.transpose(0, 2, 1))
    V = sys.potential_value(duals)
    dual = isinstance(V, numdiff.DualScalar)
    V, dV = (V.value, np.array(V.partials)) if dual else (V, np.zeros(n))
    mu, dmu = values_and_grads(sys.mu_values(duals))
    return G, dG, float(V), dV, mu, dmu


def field(sys: SystemDefinition, q, p):
    """(xdot, lam, c, H) of the multiplier route at (q, p), assembled in
    numpy as ``dynamics.FieldEvaluator.evaluate`` once did: the entries of
    ``lifted_entries``, G^-1 by inversion, einsums over the symmetrized dG,
    and a dense solve of the Gram system."""
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    G, dG, V, dV, mu, dmu = lifted_entries(sys, q.tolist())
    Ginv = np.linalg.inv(0.5 * (G + G.T))
    v = Ginv @ p
    dHq = -0.5 * np.einsum("j,ijk,k->i", v, dG, v) + dV
    c = mu @ v
    # dc/dq[a, i] = (d_i mu_a).v - (mu_a Ginv) dG_i v
    muGinv = mu @ Ginv
    dc_q = np.einsum("aji,j->ai", dmu, v) - np.einsum("aj,ijk,k->ai", muGinv, dG, v)
    lam = np.linalg.solve(muGinv @ mu.T, dc_q @ v + muGinv @ (-dHq))
    return np.concatenate([v, -dHq - mu.T @ lam]), lam, c, 0.5 * float(p @ v) + V
