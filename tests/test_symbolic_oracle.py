"""Closed forms from sympy as an oracle outside the dual-number engine.

Every route, oracle and pinned value elsewhere runs on ``numdiff`` and the
compiled DSL closures, so a common-mode error in that arithmetic would move
them together. Here the system's expression trees are converted to sympy,
the derivatives are taken symbolically and lambdified, and the package's
per-point objects are checked against them on every catalog system:
the projection Jacobian, the splitting rows, the raw observable rows, the
almost Lie algebroid, the four bracket route tables and the multiplier-route
field. The bracket tables are contracted here from their textbook
definitions, not from the package's formulas. The same objects are checked
once more over each system's seeded points as one stacked batch, the way
``verify`` builds them.
"""

import functools

import numpy as np
import pytest

sp = pytest.importorskip("sympy")

from nonholo import brackets, catalog, dsl, dynamics, geometry, numdiff  # noqa: E402
from reference import route_tables  # noqa: E402

REL = 1e-12
SEEDS = (3, 11)
POINTS_PER_SEED = 2
ENTRIES = catalog.catalog_systems()


def exact(v):
    """The decimal a number was written as, as an exact rational."""
    return sp.Rational(repr(float(v)))


def inverse(M):
    """Adjugate over the determinant, the determinant trig-simplified.

    On the catalog systems the determinants collapse (sin^2 + cos^2 = 1), so
    the inverses and their derivatives stay small.
    """
    return M.adjugate() / sp.trigsimp(M.det())


def to_sympy(e, env):
    """Sympy expression of a DSL tree; ``env`` maps identifiers to symbols."""
    if isinstance(e, dsl.Num):
        return exact(e.value)
    if isinstance(e, dsl.Var):
        return env[e.name]
    if isinstance(e, dsl.Neg):
        return -to_sympy(e.arg, env)
    if isinstance(e, dsl.Call):
        return getattr(sp, e.fn)(to_sympy(e.arg, env))
    left, right = to_sympy(e.left, env), to_sympy(e.right, env)
    return {
        "+": lambda: left + right,
        "-": lambda: left - right,
        "*": lambda: left * right,
        "/": lambda: left / right,
        "^": lambda: left**right,
    }[e.op]()


def _frame(sysd, q, G, mu, free_cols):
    """Frame columns as a sympy n x k matrix, replaying the default frame."""
    if sysd.frame_exprs is not None:
        env = {**dict(zip(sysd.coords, q)), **{k: exact(v) for k, v in sysd.params.items()}}
        return sp.Matrix([[to_sympy(c, env) for c in col] for col in sysd.frame_exprs]).T
    n = sysd.n
    A = inverse(mu * mu.T)
    cols = []
    for j in free_cols:
        e_j = sp.Matrix([1 if i == j else 0 for i in range(n)])
        col = e_j - mu.T * (A * mu[:, j])
        cols.append(col / sp.sqrt(sp.trigsimp((col.T * col)[0, 0])))
    return sp.Matrix.hstack(*cols)


@functools.lru_cache(maxsize=None)
def oracle(entry_id, free_cols):
    """Lambdified closed forms for one system and one default-frame plan."""
    sysd = catalog.get_system(entry_id)
    n, k = sysd.n, sysd.k
    q = sp.Matrix(sp.symbols(f"q0:{n}", real=True))
    p = sp.Matrix(sp.symbols(f"p0:{n}", real=True))
    pi = sp.Matrix(sp.symbols(f"pi0:{k}", real=True))
    z = sp.Matrix.vstack(q, p)
    env = {**dict(zip(sysd.coords, q)), **dict(zip(sysd.momenta, p))}
    env.update({name: exact(v) for name, v in sysd.params.items()})

    G = sp.Matrix([[to_sympy(c, env) for c in row] for row in sysd.metric_exprs])
    mu = sp.Matrix([[to_sympy(c, env) for c in row] for row in sysd.constraint_exprs])
    V = to_sympy(sysd.potential_expr, env)
    Ginv = inverse(G)
    gram = mu * Ginv * mu.T

    # momentum projection and its Jacobian on phase space
    gamma = p - mu.T * (inverse(gram) * (mu * (Ginv * p)))
    dgamma = sp.Matrix.vstack(q, gamma).jacobian(z)

    # splitting rows: differentials of the residuals, then (mu, 0)
    resid = mu * (Ginv * p)
    C_split = sp.Matrix.vstack(resid.jacobian(z), sp.Matrix.hstack(mu, sp.zeros(*mu.shape)))

    # raw rows of the observable test set; H has no tree of its own
    H = (p.T * Ginv * p)[0, 0] / 2 + V
    exprs = [
        H if o.expr is None else to_sympy(o.expr, env)
        for o in catalog.observable_test_set(sysd)
    ]
    raw = sp.Matrix(exprs).jacobian(z)

    # the almost Lie algebroid: anchor E, chart (q, pi) -> (q, p), structure
    # functions of the G-orthogonally projected frame brackets
    E = _frame(sysd, q, G, mu, free_cols)
    K = inverse(E.T * G * E)
    p_of_pi = G * E * (K * pi)
    theta = sp.Matrix.vstack(q, p_of_pi).jacobian(sp.Matrix.vstack(q, pi))
    dE = [E[:, a].jacobian(q) for a in range(k)]
    struct = [[K * E.T * G * (dE[b] * E[:, a] - dE[a] * E[:, b]) for b in range(k)]
              for a in range(k)]
    C_alg = sp.MutableDenseNDimArray.zeros(k, k, k)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                C_alg[c, a, b] = struct[a][b][c]
    piC = sp.Matrix(k, k, lambda a, b: sum(pi[c] * C_alg[c, a, b] for c in range(k)))
    lam = sp.Matrix(sp.BlockMatrix([[sp.zeros(n, n), E], [-E.T, -piC]]))

    # the multiplier route: lam solves d/dt (mu G^-1 p) = 0 along the field
    dHdq = sp.Matrix([H]).jacobian(q).T
    qdot = Ginv * p
    rhs = resid.jacobian(q) * qdot - mu * Ginv * dHdq
    mult = inverse(gram) * rhs
    field = sp.Matrix.vstack(qdot, -dHdq - mu.T * mult)

    def fn(args, expr):
        f = sp.lambdify(args, expr, modules="numpy", cse=True)
        return lambda *vals: np.asarray(f(*vals), dtype=float)

    qp, qpi = (list(q), list(p)), (list(q), list(pi))
    return {
        "dgamma": fn(qp, dgamma),
        "C_split": fn(qp, C_split),
        "raw": fn(qp, raw),
        "theta": fn(qpi, theta),
        "lam": fn(qpi, lam),
        "C_alg": fn((list(q),), sp.Array(C_alg)),
        "E": fn((list(q),), E),
        "field": fn(qp, field),
    }


def points():
    for ent in ENTRIES:
        for seed in SEEDS:
            for i, x in enumerate(catalog.sample_entry_points(ent, POINTS_PER_SEED, seed)):
                yield pytest.param(ent.id, x, id=f"{ent.id}-{seed}-{i}")


def close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= REL * scale, (got, want)


def _setup(entry_id, x):
    sysd = catalog.get_system(entry_id)
    xm = geometry.on_m_point(sysd, x)
    return sysd, xm, oracle(entry_id, xm.frame.free_cols)


def _pair(a, b, n):
    """Table of a_q . b_p - a_p . b_q over two stacks of rows.

    On gradients it is the canonical bracket; on Hamiltonian fields
    (df/dp, -df/dq) it is the canonical two-form, which gives the same.
    """
    return a[:, :n] @ b[:, n:].T - a[:, n:] @ b[:, :n].T


@pytest.mark.parametrize("entry_id,x", points())
def test_linear_data_matches_closed_forms(entry_id, x):
    sysd, xm, orc = _setup(entry_id, x)
    q, p = xm.q, xm.p
    close(geometry.dgamma(xm), orc["dgamma"](q, p))
    close(xm.splitting[2], orc["C_split"](q, p))
    obs = catalog.observable_test_set(sysd)
    close(brackets.raw_rows(xm, obs), orc["raw"](q, p))
    pi = orc["E"](q).T @ p
    close(xm.frame.E, orc["E"](q))
    theta, lam, C = geometry.almost_lie_algebroid(xm)
    close(theta, orc["theta"](q, pi))
    close(lam, orc["lam"](q, pi))
    close(C, orc["C_alg"](q))


def expected_tables(orc, q, p):
    """The four route tables of the observable test set, from closed forms."""
    n = len(q)
    raw = orc["raw"](q, p)

    # eden: canonical bracket of the momentum-projection extensions; on M
    # the projection fixes the point, so the extension rows are raw @ dgamma
    ext = raw @ orc["dgamma"](q, p)

    # nh and nh2: Hamiltonian fields of the extensions, projected along the
    # symplectic complement of ker C
    C = orc["C_split"](q, p)
    omega_inv = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    fields = ext @ omega_inv.T  # rows (df/dp, -df/dq)
    M1 = omega_inv @ C.T
    P = np.eye(2 * n) - M1 @ np.linalg.solve(C @ M1, C)
    PX = fields @ P.T

    # dstar: the linear almost-Poisson bracket of the algebroid,
    # {F, G} = dqF E dpiG - dpiF E^T dqG - pi_c C^c_ab dpiF_a dpiG_b
    E = orc["E"](q)
    pi = E.T @ p
    A = raw @ orc["theta"](q, pi)
    dq, dpi = A[:, :n], A[:, n:]
    piC = np.einsum("c,cab->ab", pi, orc["C_alg"](q))
    return {
        "eden": _pair(ext, ext, n),
        "nh": _pair(PX, PX, n),
        "nh2": _pair(fields, PX, n),
        "dstar": dq @ E @ dpi.T - dpi @ E.T @ dq.T - dpi @ piC @ dpi.T,
    }, P


@pytest.mark.parametrize("entry_id,x", points())
def test_route_tables_match_closed_forms(entry_id, x):
    sysd, xm, orc = _setup(entry_id, x)
    obs = catalog.observable_test_set(sysd)
    tables = route_tables(sysd, xm, brackets.raw_rows(xm, obs))
    want, _ = expected_tables(orc, xm.q, xm.p)
    for route, table in want.items():
        close(tables[route], table)


@pytest.mark.parametrize("ent", ENTRIES, ids=lambda e: e.id)
def test_stacked_batch_matches_closed_forms(ent):
    # every seeded point of the system in one batch: the stacked splitting,
    # algebroid, route tables and both field routes, point by point
    sysd = ent.system()
    sample = [x for seed in SEEDS for x in catalog.sample_entry_points(ent, POINTS_PER_SEED, seed)]
    xs = geometry.on_m_point(sysd, sample)
    obs = catalog.observable_test_set(sysd)
    raw = numdiff.jacobian_batch(lambda s: [f.fn(s) for f in obs], [x.scalars() for x in xs])
    P, _, C = geometry.tangent_splitting(sysd, xs)
    theta, lam, C_alg = geometry.almost_lie_algebroid(xs)
    tables = brackets.bracket_route_tables(raw, geometry.dgamma(xs), P, theta, lam)
    fields = [
        route(sysd, xs).as_vector()
        for route in (dynamics.nonholonomic_field_multiplier, dynamics.nonholonomic_field_projection)
    ]
    assert raw.shape[0] == len(sample) == 2 * POINTS_PER_SEED
    for b, x in enumerate(xs):
        orc = oracle(ent.id, x.frame.free_cols)
        q, p = x.q, x.p
        pi = orc["E"](q).T @ p
        want, want_P = expected_tables(orc, q, p)
        close(C[b], orc["C_split"](q, p))
        close(P[b], want_P)
        close(theta[b], orc["theta"](q, pi))
        close(lam[b], orc["lam"](q, pi))
        close(C_alg[b], orc["C_alg"](q))
        for route, table in want.items():
            close(tables[route][b], table)
        for field in fields:
            close(field[b], orc["field"](q, p)[:, 0])


@pytest.mark.parametrize("entry_id,x", points())
def test_multiplier_field_matches_closed_form(entry_id, x):
    sysd, xm, orc = _setup(entry_id, x)
    got = dynamics.nonholonomic_field_multiplier(sysd, xm).as_vector()
    close(got, orc["field"](xm.q, xm.p)[:, 0])
