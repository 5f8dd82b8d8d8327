"""Almost-Poisson brackets on the constraint manifold, four ways.

Routes computed here, all of which must coincide on M:

* ``nh``    - pair the symplectic-projected Hamiltonian fields of two
  extensions with the canonical two-form;
* ``nh2``   - same, but only one argument projected (valid because the
  splitting is symplectic);
* ``eden``  - canonical bracket of the momentum-projection extensions,
  restricted to M;
* ``dstar`` - the linear almost-Poisson bracket of the almost Lie
  algebroid on the dual bundle D* (anchor E, projected frame brackets).

``raw_rows`` reads the gradient rows of a whole list of observables off one
lift at a validated point, ``geometry.OnMPoint``, and
``bracket_route_tables`` contracts them with the point's linear data (the
projection Jacobian, the splitting projector, the algebroid), arrays that its
caller builds, into all four routes over every ordered pair; it is the only
bracket formula of the route-table path, and
``verify`` and ``compare_brackets`` read their values from it or from the
rows. Its Hamiltonian fields are ``geometry.hamiltonian_vectors``, the numpy
twin of the generic ``_symp``.

Each route also has one formula over generic scalars, ``_route_rows``, which
evaluates the route's extension map once per lift for all observables; the
Jacobiator nests it (``jacobi_rows``), at one point on float cores or at a
list of points whose scalars are stacked into array cores, and the standalone
functions (``canonical_bracket``, ``eden_bracket``, ``nonholonomic_bracket``,
``dstar_bracket``) are the validation they run plus that formula on floats.
They serve as the oracles the test suite checks the route-table path
against; ``dstar_bracket`` keeps the pullback formula, so it checks the
algebroid bracket. ``field_brackets`` is the one Lie bracket of vector
fields, stacked over configurations: ``lie_bracket_raw`` is its one-point
case, and verify's integrability probe its stacked one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import geometry, numdiff
from .errors import InternalConsistencyError
from .system import (
    DStarObservable,
    DStarPoint,
    Observable,
    PhasePoint,
    SystemDefinition,
)


def _pair(a, b, n: int):
    """Canonical two-form pairing of gradient (or field) block vectors."""
    acc = a[0] * b[n]
    for i in range(1, n):
        acc = acc + a[i] * b[n + i]
    for i in range(n):
        acc = acc - a[n + i] * b[i]
    return acc


def _symp(grad, n: int) -> list:
    """Hamiltonian field components from a gradient: (dF/dp, -dF/dq)."""
    return list(grad[n:]) + [-v for v in grad[:n]]


def canonical_bracket(f: Observable, g: Observable, x: PhasePoint) -> float:
    """{F, G} = sum_i dF/dq_i dG/dp_i - dF/dp_i dG/dq_i via dual gradients."""
    return _pair_value(None, "canonical", f, g, x.scalars())


def _pair_value(sys, kind, f, g, scalars, free_cols=None) -> float:
    """One bracket value of two observables under ``kind`` (see _route_rows)."""
    rf, rg = _route_rows(sys, kind, lambda s: [f.fn(s), g.fn(s)], scalars, free_cols)
    return float(_pair(rf, rg, len(rf) // 2))


def raw_rows(x: geometry.OnMPoint, observables) -> np.ndarray:
    """Raw gradient rows of every observable at the point x, off one lift.

    Their extension rows (gradients of the momentum-projection extensions)
    are these rows ``@ geometry.dgamma(x)``.
    """
    return numdiff.jacobian(lambda s: [f.fn(s) for f in observables], x.scalars())


def nh_values_from_grads(P, gf_ext, gg_ext):
    """(nh, nh2) from caller-supplied extension gradients, with P the
    splitting projector at their point (``geometry.tangent_splitting``).

    Gradients stacked on leading axes give arrays over those axes, each entry
    bitwise its own pair's value; 1-D gradients give floats. P may be a stack
    of B projectors, whose gradients then lead with the batch axis.
    """
    n = P.shape[-1] // 2
    xf, xg = (geometry.hamiltonian_vectors(np.asarray(g, dtype=float)) for g in (gf_ext, gg_ext))
    P = P.reshape(P.shape[:-2] + (1,) * (xf.ndim - P.ndim + 1) + P.shape[-2:])
    pxf, pxg = ((P @ v[..., None])[..., 0] for v in (xf, xg))
    a, b, c = (np.moveaxis(v, -1, 0) for v in (pxf, xf, pxg))
    nh, nh2 = _pair(a, c, n), _pair(b, c, n)
    if xf.ndim == 1:
        return float(nh), float(nh2)
    return nh, nh2


def bracket_route_tables(raw, dgamma, P, theta, lam) -> dict[str, np.ndarray]:
    """All four bracket routes over every ordered observable pair at a point.

    ``raw`` holds the observables' raw gradient rows at the point
    (``raw_rows``), one lift that serves every route; ``dgamma`` is the
    projection Jacobian there (``geometry.dgamma``), P the splitting
    projector (``geometry.tangent_splitting``), and theta and lam the
    algebroid's (``geometry.almost_lie_algebroid``). Returns route-name
    -> (n_obs, n_obs) matrix; entry (i, j) is the bracket of observable i
    with observable j. The pair contraction is a handful of matrix products,
    so full-pair sweeps stay cheap. Every argument may lead with a batch axis
    of B points, ``raw`` as (B, n_obs, 2n); every table then leads with it.
    """
    n = raw.shape[-1] // 2
    gext = raw @ dgamma
    gq, gp = gext[..., :n], gext[..., n:]

    def pair_table(aq, ap, bq, bp):
        return aq @ bp.swapaxes(-1, -2) - ap @ bq.swapaxes(-1, -2)

    eden = pair_table(gq, gp, gq, gp)
    X = geometry.hamiltonian_vectors(gext)  # rows are the extension Hamiltonian fields
    PX = X @ P.swapaxes(-1, -2)
    nh = pair_table(PX[..., :n], PX[..., n:], PX[..., :n], PX[..., n:])
    nh2 = pair_table(X[..., :n], X[..., n:], PX[..., :n], PX[..., n:])
    A = raw @ theta  # rows of the pushed observables on D*
    return {"nh": nh, "nh2": nh2, "eden": eden, "dstar": A @ lam @ A.swapaxes(-1, -2)}


@dataclass(frozen=True)
class BracketReport:
    point: PhasePoint
    f: str
    g: str
    value_nh: float
    value_nh2: float
    value_eden: float
    value_dstar: float

    @property
    def max_pairwise_gap(self) -> float:
        vals = (self.value_nh, self.value_nh2, self.value_eden, self.value_dstar)
        return float(np.max([abs(a - b) for a in vals for b in vals]))  # keeps a NaN


def compare_brackets(
    sys: SystemDefinition,
    f: Observable,
    g: Observable,
    x: PhasePoint,
    on_m_tol: float | None = None,
) -> BracketReport:
    """Evaluate all four bracket routes at one point and report the spread."""
    xm = geometry.on_m_point(sys, x, on_m_tol)
    raw, dgam, (P, _, _) = raw_rows(xm, [f, g]), geometry.dgamma(xm), xm.splitting
    theta, lam, _ = geometry.almost_lie_algebroid(xm)
    tables = bracket_route_tables(raw, dgam, P, theta, lam)
    return BracketReport(
        point=x,
        f=f.label,
        g=g.label,
        value_nh=float(tables["nh"][0, 1]),
        value_nh2=float(tables["nh2"][0, 1]),
        value_eden=float(tables["eden"][0, 1]),
        value_dstar=float(tables["dstar"][0, 1]),
    )


def eden_bracket(
    sys: SystemDefinition,
    f: Observable,
    g: Observable,
    x: PhasePoint,
    on_m_tol: float | None = None,
) -> float:
    """Canonical bracket of the momentum-projection extensions, on M."""
    geometry.require_on_m(sys, x.q, x.p, on_m_tol)
    return _pair_value(sys, "eden", f, g, x.scalars())


def nonholonomic_bracket(
    sys: SystemDefinition,
    f: Observable,
    g: Observable,
    x: PhasePoint,
    on_m_tol: float | None = None,
) -> float:
    """Projected-field bracket; cross-checks its one-side-projected form."""
    # validation only: on M, and the splitting's SVD degeneracy check
    geometry.tangent_splitting(sys, x, on_m_tol)
    n, z = sys.n, x.scalars()
    # unprojected extension fields from the eden rows, projected once below
    xf, xg = (_symp(r, n) for r in _route_rows(sys, "eden", lambda s: [f.fn(s), g.fn(s)], z))
    pxf, pxg = _project_fields(sys, [xf, xg], z)
    a, b = float(_pair(pxf, pxg, n)), float(_pair(xf, pxg, n))
    if abs(a - b) > 1e-9:
        raise InternalConsistencyError(
            f"projected bracket forms disagree at {x}: {a!r} vs {b!r}"
        )
    return a


def dstar_bracket(
    sys: SystemDefinition,
    f: DStarObservable,
    g: DStarObservable,
    y: DStarPoint,
) -> float:
    """Bracket on the dual bundle via canonical pullbacks through the frame."""
    free = geometry.frame_at(sys, y.q).free_cols  # validated: the cometric behind dstar_chart is SPD
    return _pair_value(sys, "dstar", f, g, y.scalars(), free)


def pushforward_observable(
    sys: SystemDefinition, f: Observable, free_cols=None
) -> DStarObservable:
    """Transport a phase-space observable to the dual bundle.

    The frame plan ``free_cols`` is read off each evaluation point unless
    given; a point with array cores (a batch) needs it given.
    """
    n = sys.n

    def fn(s):
        free = _free_cols_at(sys, list(s[:n])) if free_cols is None else free_cols
        return f.fn(geometry.dstar_chart(sys, free, s)[: 2 * n])

    return DStarObservable(label=f"push({f.label})", fn=fn)


def _free_cols_at(sys, q_s):
    if sys.frame_exprs is not None:
        return None
    mu = [[numdiff.float_core(v) for v in row] for row in sys.mu_values(q_s)]
    return geometry.default_frame_plans(numdiff.from_cores(mu, 1))[0][0]


# --- the Lie bracket of vector fields -----------------------------------------


def field_brackets(F, pairs, qs) -> np.ndarray:
    """[X_a, X_b] = (DX_b) X_a - (DX_a) X_b, unprojected, for each pair (a, b)
    of the fields X_0, X_1, ... whose components F lists (n each, over generic
    scalars), at the configurations qs (B, n): (B, pairs, n), each row bitwise
    its point alone. DX is one ``numdiff.jacobian_batch``, X one evaluation
    of F on the same cores."""
    qs = np.asarray(qs, dtype=float)
    B, n = qs.shape
    D = numdiff.jacobian_batch(F, qs).reshape(B, -1, n, n)
    V = numdiff.from_cores([F(numdiff.cores(qs))], B).reshape(B, -1, n, 1)
    return np.stack([(D[:, b] @ V[:, a] - D[:, a] @ V[:, b])[..., 0] for a, b in pairs], 1)


def lie_bracket_raw(sys: SystemDefinition, X, Y, q) -> np.ndarray:
    """[X, Y] = (DY) X - (DX) Y at q, unprojected: ``field_brackets`` at one point."""
    return field_brackets(lambda s: [*X(s), *Y(s)], [(0, 1)], [q])[0, 0]


# --- shared-lift route rows and the Jacobiator --------------------------------


def _route_rows(sys, kind, obs_fn, scalars, free_cols=None):
    """Rows of every value of ``obs_fn`` (a list-valued function) under ``kind``.

    The extension map depends on the point, not the observable, so one lift
    evaluates it once for all values. The rows are extension gradients, or
    for ``nh`` projected Hamiltonian fields; ``_pair`` reads both the same
    way. The scalars are (q, pi) for ``dstar``, else (q, p).
    """
    if kind == "canonical":
        return numdiff.jacobian_generic(obs_fn, scalars)
    n = sys.n
    if kind == "dstar":
        scalars = geometry.dstar_chart(sys, free_cols, scalars)[: 2 * n]

        def ext(s):
            return list(s[:n]) + geometry.to_dstar_apply(sys, s[:n], s[n:], free_cols)

    else:
        ext = functools.partial(geometry.gamma_hat_apply, sys)
    rows = numdiff.jacobian_generic(lambda s: obs_fn(ext(s)), scalars)
    if kind == "nh":
        return _project_fields(sys, [_symp(r, n) for r in rows], scalars)
    return rows


def _project_fields(sys, fields, scalars):
    """Apply P = I - Omega^-1 C^T (C Omega^-1 C^T)^-1 C to every field.

    C holds the splitting rows at the point; the columns below are
    Omega^-1 C^T up to a sign that cancels in P. One elimination with a
    matrix right-hand side serves all fields.
    """
    rows = geometry.splitting_rows(sys, scalars)
    cols = [_symp(r, sys.n) for r in rows]
    K = [[numdiff.sum_prod(r, col) for col in cols] for r in rows]
    U = numdiff.solve_linear(K, [[numdiff.sum_prod(r, v) for v in fields] for r in rows])
    out = []
    for j, v in enumerate(fields):
        u = [row[j] for row in U]
        out.append([v[i] - numdiff.sum_prod([c[i] for c in cols], u) for i in range(len(v))])
    return out


BRACKET_KINDS = ("canonical", "eden", "nh", "dstar")


def jacobiator(
    sys: SystemDefinition,
    kind: str,
    f,
    g,
    h,
    x: PhasePoint,
    on_m_tol: float | None = None,
):
    """J = {f,{g,h}} + {g,{h,f}} + {h,{f,g}} for the selected bracket kind.

    ``f``, ``g`` and ``h`` are observables, giving one float, or
    equal-length sequences of them, giving one float per triple
    ``(f[t], g[t], h[t])``. ``x`` is a PhasePoint or an OnMPoint, or a list
    of them, giving that result per point: the list runs as one stack of
    array cores (``jacobi_rows``), and for ``dstar`` its points must share
    one frame plan.

    Outer derivatives come from evaluating the inner brackets at dual-number
    perturbed points, so every kind reuses its own defining formula without
    symbolic composition (``_jacobi_cores``). For the dual-bundle kind the
    observables are dual-bundle expressions and the evaluation point is the
    image of x.
    """
    single = not isinstance(f, (list, tuple))
    triples = list(zip([f], [g], [h]) if single else zip(f, g, h, strict=True))
    many = isinstance(x, (list, tuple))
    points = geometry.on_m_point(sys, x if many else [x], on_m_tol)
    if kind == "dstar":
        if len(geometry.frame_plans(points)) > 1:
            raise ValueError("dstar points must share one frame plan")
        for y in points:  # each image in D* must be a finite dual-bundle point
            DStarPoint(q=y.q, pi=y.pi)
    body = functools.partial(jacobi_rows, sys, kind, triples)
    rows = geometry.per_point(body, points)
    out = [float(r[0]) if single else r.tolist() for r in rows]
    return out if many else out[0]


def jacobi_rows(sys, kind, triples, points) -> np.ndarray:
    """The Jacobiator of each triple at validated OnMPoints, (B, T), bitwise
    per point: one nested lift over the floats of a lone point or (B,) array
    cores. For ``dstar`` the points share the first one's frame plan, and a
    stack needs observables that do not read it off their point."""
    dstar = kind == "dstar"
    free = points[0].frame.free_cols if dstar else None
    z = numdiff.cores([x.dstar_scalars() if dstar else x.scalars() for x in points])
    return numdiff.from_cores([_jacobi_cores(sys, kind, triples, z, free)], len(points))[:, 0]


def _jacobi_cores(sys, kind, triples, base, free):
    """Float cores of the Jacobiator of each triple at the base scalars.

    The base scalars are floats (one point) or ``(B,)`` arrays (a batch of
    points, each element its point's value). The extension map of a route
    (the momentum projection, the splitting rows, the frame pullback)
    depends on the point and not on the observable, so each nesting level
    lifts once and evaluates it once for every triple: the inner level
    returns each distinct inner bracket ({g,h}, {h,f}, {f,g} of every
    triple) together, and the outer level reads the rows of every distinct
    observable and inner bracket off one lift. Each value is bitwise the
    value of its triple alone.
    """
    if kind not in BRACKET_KINDS:
        raise ValueError(f"unknown bracket kind {kind!r}")
    n = sys.n
    # slots of the distinct observables (by identity) and of the distinct
    # ordered inner pairs; {a,b} and {b,a} differ in rounding, so both stay
    obs = list({id(o): o for t in triples for o in t}.values())
    slot = {id(o): i for i, o in enumerate(obs)}
    tri = [tuple(slot[id(o)] for o in t) for t in triples]
    pairs = list(dict.fromkeys(p for a, b, c in tri for p in ((b, c), (c, a), (a, b))))

    def values(e):
        return [o.fn(e) for o in obs]

    def inner(s):
        rows = _route_rows(sys, kind, values, s, free)
        return [_pair(rows[a], rows[b], n) for a, b in pairs]

    rows = _route_rows(sys, kind, lambda e: values(e) + inner(e), base, free)
    bracket_row = dict(zip(pairs, rows[len(obs) :]))
    out = []
    for a, b, c in tri:
        total = _pair(rows[a], bracket_row[b, c], n)
        total = total + _pair(rows[b], bracket_row[c, a], n)
        total = total + _pair(rows[c], bracket_row[a, b], n)
        out.append(numdiff.float_core(total))
    return out
