import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import numdiff
from nonholo.errors import DomainError, SingularMatrixError, WidthMismatchError
from nonholo.numdiff import DualScalar


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros(len(x))
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (f(list(xp)) - f(list(xm))) / (2 * h)
    return out


def test_lift_seeding():
    (d,) = numdiff.lift([3.0])
    assert d.value == 3.0 and d.partials == (1.0,)
    d1, d2 = numdiff.lift([1.0, 2.0])
    assert d1.partials == (1.0, 0.0) and d2.partials == (0.0, 1.0)
    assert numdiff.lift([]) == []


def test_gradient_polynomial():
    val, grad = numdiff.gradient(lambda s: s[0] * s[0], [3.0])
    assert val == 9.0 and grad[0] == 6.0


def test_gradient_sin_at_zero():
    val, grad = numdiff.gradient(lambda s: numdiff.sin(s[0]), [0.0])
    assert val == 0.0 and grad[0] == 1.0


def test_gradient_matches_finite_differences():
    f = lambda s: numdiff.exp(s[0] * s[1])
    val, grad = numdiff.gradient(f, [1.0, 0.5])
    ref = fd_gradient(lambda s: math.exp(s[0] * s[1]), [1.0, 0.5])
    assert val == pytest.approx(math.exp(0.5), rel=1e-14)
    assert np.max(np.abs(grad - ref)) < 1e-6 * max(1.0, np.max(np.abs(grad)))


def test_jacobian_identity_and_product():
    J = numdiff.jacobian(lambda s: [s[0], s[1]], [0.3, -0.7])
    assert np.array_equal(J, np.eye(2))
    J = numdiff.jacobian(lambda s: [s[0] + s[1], s[0] * s[1]], [1.0, 2.0])
    assert np.allclose(J, [[1.0, 1.0], [2.0, 1.0]], atol=0)


def test_chain_rule_composition():
    def G(s):
        return [s[0] * s[1], numdiff.sin(s[0]), numdiff.exp(s[1])]

    def F(s):
        return [s[0] * s[0] + s[1] * s[2], numdiff.divide(s[2], 1.0 + s[0] * s[0])]

    x = [0.7, -0.4]
    JG = numdiff.jacobian(G, x)
    y = [numdiff.float_core(v.value if isinstance(v, DualScalar) else v) for v in G(x)]
    JF = numdiff.jacobian(F, y)
    JFG = numdiff.jacobian(lambda s: F(G(s)), x)
    assert np.max(np.abs(JFG - JF @ JG)) < 1e-12


@given(
    st.floats(-3, 3), st.floats(-3, 3),
    st.floats(-5, 5), st.floats(-5, 5),
)
@settings(max_examples=60, deadline=None)
def test_gradient_linearity(a, b, x0, x1):
    f = lambda s: numdiff.sin(s[0]) + s[1] * s[0]
    g = lambda s: s[0] * s[0] - numdiff.cos(s[1])
    _, gf = numdiff.gradient(f, [x0, x1])
    _, gg = numdiff.gradient(g, [x0, x1])
    _, gc = numdiff.gradient(lambda s: a * f(s) + b * g(s), [x0, x1])
    assert np.max(np.abs(gc - (a * gf + b * gg))) < 1e-10 * (1 + abs(a) + abs(b))


def test_nested_lift_gives_second_order_structure():
    # d/dx of (d/dy at y=x of x*y^2) = d/dx (x * 2x) = 4x
    def dfdy(s):
        (y,) = numdiff.lift([s[0]])
        out = s[0] * y * y
        return out.partials[0]

    val, grad = numdiff.gradient(dfdy, [1.5])
    assert val == pytest.approx(2 * 1.5 * 1.5, abs=1e-14)
    assert grad[0] == pytest.approx(4 * 1.5, abs=1e-12)


def test_width_mismatch_is_immediate_error():
    a = numdiff.lift([1.0, 2.0])[0]
    b = numdiff.lift([1.0, 2.0, 3.0])[0]
    with pytest.raises(WidthMismatchError):
        a + b


@pytest.mark.parametrize(
    "fn,arg,name",
    [
        (numdiff.log, -1.0, "log"),
        (numdiff.log, 0.0, "log"),
        (numdiff.sqrt, -2.0, "sqrt"),
        (lambda v: numdiff.divide(1.0, v), 0.0, "division"),
        (lambda v: numdiff.power(v, 0.5), -1.0, "power"),
    ],
)
def test_domain_errors_name_primitive(fn, arg, name):
    with pytest.raises(DomainError) as exc:
        fn(arg)
    assert exc.value.primitive == name


def test_domain_errors_on_duals_too():
    (d,) = numdiff.lift([-1.0])
    with pytest.raises(DomainError):
        numdiff.log(d)
    with pytest.raises(DomainError):
        numdiff.power(d, 0.5)


@pytest.mark.parametrize("name", ["sin", "cos", "tan"])
def test_trig_of_an_infinite_core_is_a_domain_error(name):
    # on a float core, on a dual's core and at one element of an array core
    fn, inf = numdiff.FUNCTIONS[name], math.inf
    (d,) = numdiff.lift([-inf])
    packed = numdiff.lift([np.array([0.5, -inf])])[0]
    for arg in (inf, -inf, d, np.array([0.5, inf]), DualScalar(np.array([-inf, 0.5]), (1.0,)), packed):
        with pytest.raises(DomainError) as exc:
            fn(arg)
        assert str(exc.value) == f"domain error in '{name}': argument must be finite"


def test_cores_of_one_point_are_floats_and_from_cores_inverts_them():
    X = RNG.uniform(-1.0, 1.0, size=(4, 3))
    one = numdiff.cores(X[:1])
    assert [type(v) for v in one] == [float] * 3
    many = numdiff.cores(X)
    assert [v.shape for v in many] == [(4,)] * 3
    for z, B in ((one, 1), (many, 4)):
        table = [z, [2.0, z[0], z[2]]]  # a float core is the same at every point
        got = numdiff.from_cores(table, B)
        assert got.shape == (B, 2, 3)
        assert got[:, 0].tobytes() == X[:B].tobytes()
        assert got[:, 1].tolist() == [[2.0, x[0], x[2]] for x in X[:B].tolist()]


def test_integer_powers_of_negative_base():
    (d,) = numdiff.lift([-2.0])
    out = numdiff.power(d, 3)
    assert out.value == -8.0 and out.partials[0] == 12.0


def test_dual_exponent_requires_positive_base():
    base, expo = numdiff.lift([2.0, 3.0])
    out = numdiff.power(base, expo)
    assert out.value == pytest.approx(8.0, rel=1e-14)
    # d/dbase = e*b^(e-1) = 12, d/dexp = b^e log b
    assert out.partials[0] == pytest.approx(12.0, rel=1e-12)
    assert out.partials[1] == pytest.approx(8.0 * math.log(2.0), rel=1e-12)
    nbase, nexpo = numdiff.lift([-2.0, 3.0])
    with pytest.raises(DomainError):
        numdiff.power(nbase, nexpo)


def test_solve_linear_matches_numpy_and_differentiates():
    A = [[2.0, 1.0], [1.0, 3.0]]
    b = [1.0, 2.0]
    x = numdiff.solve_linear(A, b)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-14)

    # derivative of the solve with respect to a matrix entry, vs FD
    def solve_entry(s):
        return numdiff.solve_linear([[s[0], 1.0], [1.0, 3.0]], [1.0, 2.0])[0]

    _, grad = numdiff.gradient(solve_entry, [2.0])
    ref = fd_gradient(lambda s: np.linalg.solve([[s[0], 1.0], [1.0, 3.0]], [1.0, 2.0])[0], [2.0])
    assert abs(grad[0] - ref[0]) < 1e-7


def _same(u, v):
    """Bitwise equality of (nested) duals: level, value and every partial."""
    if isinstance(u, DualScalar) or isinstance(v, DualScalar):
        return (
            isinstance(u, DualScalar) and isinstance(v, DualScalar)
            and u.level == v.level and len(u.partials) == len(v.partials)
            and _same(u.value, v.value)
            and all(_same(a, b) for a, b in zip(u.partials, v.partials))
        )
    return repr(float(u)) == repr(float(v))


def test_fast_paths_match_plain_formulas_bitwise():
    # The arithmetic takes shortcuts (plain-float branches first, map and
    # list comprehensions, `/` once the zero check has run); each result
    # must be bitwise the plain formula it stands for.
    a = DualScalar(0.3, (1.25, -0.7))
    b = DualScalar(-1.9, (0.1, 2.5))
    c = 0.37
    q = 0.3 / -1.9
    r = c / 0.3
    level1 = [
        (-a, DualScalar(-0.3, (-1.25, 0.7))),
        (a + b, DualScalar(0.3 + -1.9, (1.25 + 0.1, -0.7 + 2.5))),
        (a + c, DualScalar(0.3 + c, a.partials)),
        (c + a, DualScalar(0.3 + c, a.partials)),
        (a - b, DualScalar(0.3 - -1.9, (1.25 - 0.1, -0.7 - 2.5))),
        (a - c, DualScalar(0.3 - c, a.partials)),
        (c - a, DualScalar(c - 0.3, (-1.25, 0.7))),
        (a * b, DualScalar(0.3 * -1.9, (1.25 * -1.9 + 0.3 * 0.1, -0.7 * -1.9 + 0.3 * 2.5))),
        (a * c, DualScalar(0.3 * c, (1.25 * c, -0.7 * c))),
        (c * a, DualScalar(0.3 * c, (1.25 * c, -0.7 * c))),
        (a * 2, DualScalar(0.6, (2.5, -1.4))),
        (a / b, DualScalar(q, ((1.25 - q * 0.1) / -1.9, (-0.7 - q * 2.5) / -1.9))),
        (a / c, DualScalar(0.3 / c, (1.25 / c, -0.7 / c))),
        (c / a, DualScalar(r, (-(r * 1.25) / 0.3, -(r * -0.7) / 0.3))),
        (numdiff.sin(a), DualScalar(math.sin(0.3), tuple(math.cos(0.3) * p for p in a.partials))),
        (numdiff.cos(a), DualScalar(math.cos(0.3), tuple(-(math.sin(0.3) * p) for p in a.partials))),
        (numdiff.tan(a), DualScalar(math.tan(0.3), tuple((1.0 + math.tan(0.3) ** 2) * p for p in a.partials))),
        (numdiff.exp(a), DualScalar(math.exp(0.3), tuple(math.exp(0.3) * p for p in a.partials))),
        (numdiff.log(a), DualScalar(math.log(0.3), (1.25 / 0.3, -0.7 / 0.3))),
        (numdiff.sqrt(a), DualScalar(math.sqrt(0.3), tuple(0.5 / math.sqrt(0.3) * p for p in a.partials))),
        (numdiff.power(a, 3.0), DualScalar(0.3**3.0, tuple(0.3**2.0 * 3.0 * p for p in a.partials))),
    ]
    for got, want in level1:
        assert _same(got, want), (got, want)

    # level 2 over level-1 values, mixed with floats and level-1 scalars;
    # the formulas are written with the (checked) level-1 arithmetic
    u1, v1 = numdiff.lift([0.3, -1.2])
    u, v, w = numdiff.lift([u1 * 0.5, v1, 1.7])
    qv = u.value / v.value
    qw = u.value / 1.7
    q1 = u1 / u.value
    level2 = [
        (-u, DualScalar(-u.value, [-p for p in u.partials], 2)),
        (u + v, DualScalar(u.value + v.value, [x + y for x, y in zip(u.partials, v.partials)], 2)),
        (u - v, DualScalar(u.value - v.value, [x - y for x, y in zip(u.partials, v.partials)], 2)),
        (u * v, DualScalar(
            u.value * v.value,
            [x * v.value + u.value * y for x, y in zip(u.partials, v.partials)], 2)),
        (u * c, DualScalar(u.value * c, [p * c for p in u.partials], 2)),
        (u1 * u, DualScalar(u1 * u.value, [u1 * p for p in u.partials], 2)),
        (u * v1, DualScalar(u.value * v1, [p * v1 for p in u.partials], 2)),
        (u1 - u, DualScalar(u1 - u.value, [-p for p in u.partials], 2)),
        (u / v, DualScalar(qv, [(x - qv * y) / v.value for x, y in zip(u.partials, v.partials)], 2)),
        (u / w, DualScalar(qw, [(x - qw * y) / 1.7 for x, y in zip(u.partials, w.partials)], 2)),
        (u / u1, DualScalar(u.value / u1, [p / u1 for p in u.partials], 2)),
        (u1 / u, DualScalar(q1, [-(q1 * p) / u.value for p in u.partials], 2)),
        (numdiff.sin(u), DualScalar(
            numdiff.sin(u.value), [numdiff.cos(u.value) * p for p in u.partials], 2)),
    ]
    for got, want in level2:
        assert _same(got, want), (got, want)

    # the shortcuts keep the width and division checks
    narrow = DualScalar(1.0, (1.0,))
    for op in (
        lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t, lambda s, t: s / t,
    ):
        with pytest.raises(WidthMismatchError):
            op(a, narrow)
        with pytest.raises(WidthMismatchError):
            op(u, DualScalar(u.value, (1.0,), 2))
    zero = DualScalar(0.0, (1.0, 0.0))
    for num, den in ((a, zero), (c, zero), (a, 0.0), (u, DualScalar(u1 - 0.3, (1.0, 0.0, 0.0), 2))):
        with pytest.raises(DomainError) as exc:
            numdiff.divide(num, den)
        assert exc.value.primitive == "division"


# --- batch jets: duals over (B,) array cores, elementwise the float ones ---

RNG = np.random.default_rng(20)
B, W = 6, 3


def jet(values):
    """A level-1 dual whose value and partials are array cores, its partials
    a tuple of (B,) arrays."""
    values = np.asarray(values, dtype=float)
    return DualScalar(values, tuple(RNG.normal(size=(W, len(values)))))


def packed_jet(values):
    """A level-1 dual made by ``lift`` over array cores, so its partials are
    one (W, B) array: random rows on top of the lift's unit seeds."""
    out = np.asarray(values, dtype=float)
    for x, r in zip(numdiff.lift([np.zeros(len(out))] * W), RNG.normal(size=(W, len(out)))):
        out = x * r + out
    assert isinstance(out.partials, np.ndarray) and out.partials.shape == (W, len(values))
    return out


JETS = (jet, packed_jet)


def element(x, b):
    """Batch element b of a (nested) dual or core: every array core at b."""
    if isinstance(x, DualScalar):
        return DualScalar(element(x.value, b), tuple(element(p, b) for p in x.partials), x.level)
    return float(x[b]) if isinstance(x, np.ndarray) else x


def duals(j):
    """The batch elements of a jet as float-core duals."""
    return [element(j, b) for b in range(len(numdiff.float_core(j)))]


def bitwise(got, want):
    """Element b of got is bitwise the scalar want[b]."""
    return all(_same(element(got, b), w) for b, w in enumerate(want))


def _partials_bytes(*xs):
    """The bytes of every partial of the (nested) duals xs, to show that no
    operation wrote into an input's (shared) partials."""
    out = []
    for x in xs:
        if isinstance(x, DualScalar):
            out.append(_partials_bytes(x.value))
            out += [np.asarray(p).tobytes() + _partials_bytes(p) for p in x.partials]
    return b"".join(out)


def test_batch_jet_replays_every_dual_formula_bitwise():
    c = 0.37
    cases = [
        lambda u, v, w: -u,
        lambda u, v, w: u + v,
        lambda u, v, w: u + c,
        lambda u, v, w: c + u,
        lambda u, v, w: u - v,
        lambda u, v, w: u - c,
        lambda u, v, w: c - u,
        lambda u, v, w: u * v,
        lambda u, v, w: u * c,
        lambda u, v, w: c * u,
        lambda u, v, w: u * 2,
        lambda u, v, w: 3 - u,
        lambda u, v, w: u / v,
        lambda u, v, w: u / c,
        lambda u, v, w: c / v,
        lambda u, v, w: 2 / v,
        lambda u, v, w: numdiff.sin(u),
        lambda u, v, w: numdiff.cos(u),
        lambda u, v, w: numdiff.tan(u),
        lambda u, v, w: numdiff.exp(u),
        lambda u, v, w: numdiff.log(w),
        lambda u, v, w: numdiff.sqrt(w),
        lambda u, v, w: numdiff.power(u, 3.0),
        lambda u, v, w: numdiff.power(u, 2),
        lambda u, v, w: numdiff.power(v, -2.0),
        lambda u, v, w: numdiff.power(w, 0.5),
        lambda u, v, w: numdiff.power(w, 2.7),
        lambda u, v, w: numdiff.power(u, 1.0),
        lambda u, v, w: numdiff.power(u, 0.0),
        lambda u, v, w: w**u,
        lambda u, v, w: 2.0**u,
        lambda u, v, w: u**2.0,
        lambda u, v, w: numdiff.sum_prod([u, v, 1.5], [w, c, u]),
    ]
    # over tuple and over packed partials, and with operands of both kinds
    for make_a, make_b in [(jet, jet), (packed_jet, packed_jet), (packed_jet, jet), (jet, packed_jet)]:
        a = make_a(RNG.uniform(-3.0, 3.0, B))
        b = make_b(RNG.uniform(0.5, 2.0, B) * np.sign(RNG.normal(size=B)))
        pos = make_b(RNG.uniform(0.1, 4.0, B))
        before = _partials_bytes(a, b, pos)
        for k, op in enumerate(cases):
            for u, v in ((a, b), (b, a)):
                got = op(u, v, pos)
                want = [op(du, dv, dp) for du, dv, dp in zip(duals(u), duals(v), duals(pos))]
                assert bitwise(got, want), (make_a.__name__, make_b.__name__, k)
        assert _partials_bytes(a, b, pos) == before  # no operation wrote into an input
    # a plain array operand is a constant, element by element a number
    arr = RNG.uniform(0.5, 2.0, B)
    constant_cases = [
        lambda u, k: u + k,
        lambda u, k: k + u,
        lambda u, k: k - u,
        lambda u, k: u * k,
        lambda u, k: k * u,
        lambda u, k: u / k,
        lambda u, k: k / u,
        lambda u, k: k**u,
    ]
    for make in JETS:
        b = make(RNG.uniform(0.5, 2.0, B) * np.sign(RNG.normal(size=B)))
        before = _partials_bytes(b)
        for k, op in enumerate(constant_cases):
            got = op(b, arr)
            want = [op(db, float(e)) for db, e in zip(duals(b), arr)]
            assert bitwise(got, want), (make.__name__, k)
        assert _partials_bytes(b) == before


def test_batch_jet_domain_edges_name_the_primitive():
    for make in JETS:
        z = make([1.0, 0.0, 2.0])
        neg = make([1.0, -0.5, 2.0])
        cases = [
            (lambda: numdiff.divide(1.0, z), "division"),
            (lambda: numdiff.divide(neg, z), "division"),
            (lambda: numdiff.divide(neg, 0.0), "division"),
            (lambda: numdiff.divide(neg, np.array([1.0, 0.0, 2.0])), "division"),
            (lambda: numdiff.log(z), "log"),
            (lambda: numdiff.log(neg), "log"),
            (lambda: numdiff.sqrt(z), "sqrt"),
            (lambda: numdiff.sqrt(neg), "sqrt"),
            (lambda: numdiff.power(neg, 0.5), "power"),
            (lambda: numdiff.power(z, -1.0), "power"),
            (lambda: numdiff.power(z, 0.5), "power"),
            (lambda: numdiff.exp(make([1.0, 800.0, 0.0])), "exp"),
            (lambda: numdiff.power(make([1.0, 1e200, 2.0]), 3.0), "power"),
        ]
        for fn, name in cases:
            with pytest.raises(DomainError) as exc:
                fn()
            assert exc.value.primitive == name


def test_jacobian_batch_is_the_per_point_jacobian():
    def F(s):
        return [s[0] * s[1], numdiff.sin(s[2]) / (1.0 + s[0] * s[0]), 4.0, s[1]]

    X = RNG.uniform(-1.0, 1.0, size=(5, 3))
    J = numdiff.jacobian_batch(F, X)
    assert J.shape == (5, 4, 3)
    for b in range(5):
        assert J[b].tobytes() == numdiff.jacobian(F, X[b]).tobytes()
    assert not J[:, 2].any()  # a constant output has zero rows


def _scalar_solve(a, rhs, b):
    """The scalar solve of batch element b."""

    def elem(e):
        return element(e, b)

    return numdiff.solve_linear(
        [[elem(e) for e in row] for row in a],
        [elem(e) for e in rhs] if not isinstance(rhs[0], list)
        else [[elem(e) for e in row] for row in rhs],
    )


def test_batched_solve_linear_pivots_per_element():
    # column 0 pivots on row 0, 1 and 2 in the three elements; the row swaps
    # select packed, tuple and mixed entries
    for make_st, make_u in [(jet, jet), (packed_jet, packed_jet), (packed_jet, jet)]:
        s, t = make_st([3.0, 0.1, 0.2]), make_st([0.5, 0.4, 2.0])
        u = make_u([1.3, -0.7, 0.9])
        a = [[s, 1.0, 2.0], [1.0, u, 0.5], [t, 2.0, -1.0]]
        for rhs in ([u, 1.0, s], [[u, 1.0], [2.0, s], [t, -0.5]]):
            got = numdiff.solve_linear(a, rhs)
            for b in range(3):
                want = _scalar_solve(a, rhs, b)
                flat_got = got if not isinstance(rhs[0], list) else sum(got, [])
                flat_want = want if not isinstance(rhs[0], list) else sum(want, [])
                for g, w in zip(flat_got, flat_want):
                    assert _same(element(g, b), w)


def test_batched_solve_linear_raises_for_one_bad_member():
    s = jet([2.0, 1.0, 3.0])  # element 1 makes [[s, 1], [1, 1]] singular
    with pytest.raises(SingularMatrixError):
        numdiff.solve_linear([[s, 1.0], [1.0, 1.0]], [1.0, s])
    nan = jet([2.0, float("nan"), 3.0])
    with pytest.raises(DomainError) as exc:
        numdiff.solve_linear([[nan, 1.0], [1.0, 3.0]], [1.0, s])
    assert exc.value.primitive == "solve_linear"


def test_level_two_lift_over_array_cores_is_the_scalar_nesting():
    # a level-2 lift over level-1 duals with array cores; the solve's
    # column 0 pivots on row 0, 1 and 2 in the three elements
    def nested(p, q):
        u, v, w = numdiff.lift([p * 0.5, q, 1.7])
        a = [[u, 1.0, 2.0], [1.0, w, 0.5], [v, 2.0, -1.0]]
        return [
            u * v, p - u, u / v, q / u, numdiff.sin(u) * w, numdiff.sqrt(v * v + p),
            numdiff.power(w, 2.5), u**v, *numdiff.solve_linear(a, [w, p, u]),
        ]

    ps, qs = [4.0, 0.2, 0.4], [0.5, 0.4, 2.0]
    lifted = numdiff.lift([np.array(ps), np.array(qs)])
    assert all(isinstance(x.partials, np.ndarray) for x in lifted)  # packed
    # packed, tuple and mixed level-1 inputs
    for p, q in (lifted, (jet(ps), jet(qs)), (packed_jet(ps), jet(qs))):
        before = _partials_bytes(p, q)
        got = nested(p, q)
        assert got[0].level == 2
        for b in range(3):
            want = nested(element(p, b), element(q, b))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert _same(element(g, b), w)
        assert _partials_bytes(p, q) == before


def test_lift_packs_the_partials_of_array_cores_only():
    # floats keep tuple partials; (B,) array cores get one (w, B) array, and
    # level-1 arithmetic on it stays packed, so no formula falls back to
    # zipping over its rows
    assert all(type(d.partials) is tuple for d in numdiff.lift([0.3, -1.2]))
    u, v = numdiff.lift([np.array([0.3, 1.5, -0.4]), np.array([1.2, 2.5, 0.7])])
    for i, d in enumerate((u, v)):
        assert type(d.partials) is np.ndarray and d.partials.shape == (2, 3)
        assert d.partials.tolist() == [[float(r == i)] * 3 for r in range(2)]
    pos = v * v + 1.0
    results = [
        -u, u + v, u + 1.0, 1.0 + u, u - v, u - 1.0, 1.0 - u, u * v, u * 2.0, 2.0 * u,
        u * np.ones(3), u / v, 1.0 / v, u / 2.0, numdiff.sin(u), numdiff.cos(u), numdiff.tan(u),
        numdiff.exp(u), numdiff.log(pos), numdiff.sqrt(pos), numdiff.power(u, 3.0),
        numdiff.power(pos, u), numdiff.power(2.0, u),
        *numdiff.solve_linear([[u, 1.0], [1.0, v]], [u, v]),  # pivots differ by element
    ]
    assert all(type(r.partials) is np.ndarray and r.partials.shape == (2, 3) for r in results)
    # a second level keeps a tuple of packed duals; jacobian rows of a
    # packed level stay one array
    (w,) = numdiff.lift([u])
    assert type(w.partials) is tuple and type(w.value.partials) is np.ndarray
    rows = numdiff.jacobian_generic(lambda s: [s[0] * s[1], 4.0], [u.value, v.value])
    assert type(rows[0]) is np.ndarray and rows[0].shape == (2, 3) and rows[1] == [0.0, 0.0]


def test_directional_batch_is_the_per_point_directional_derivative():
    def F(s):
        return [s[0] * s[1], numdiff.sin(s[2]) / (1.0 + s[0] * s[0]), 4.0]

    X = RNG.uniform(-1.0, 1.0, size=(5, 3))
    V = RNG.normal(size=(5, 3))
    got = numdiff.directional_batch(F, X, V)
    assert got.shape == (5, 3)
    for b in range(5):
        lone = numdiff.directional_batch(F, X[b : b + 1], V[b : b + 1])[0]
        assert got[b].tobytes() == lone.tobytes()
        assert np.allclose(lone, numdiff.jacobian(F, X[b]) @ V[b], rtol=1e-14, atol=1e-15)


def _src_modules(found):
    """The modules of ``src/nonholo`` holding a node for which ``found(node)``
    holds, once per node."""
    return [
        path.stem
        for path in sorted(Path(numdiff.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if found(node)
    ]


def _named(node, name):
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name)


def test_duals_are_built_only_in_numdiff():
    # the packed class is private to numdiff, and every other module gets
    # its duals from numdiff's entry points (lift, directional_batch, the
    # primitives), so each core keeps the representation its lift chose
    assert set(_src_modules(lambda node: _named(node, "_Packed"))) == {"numdiff"}
    builds = _src_modules(lambda node: isinstance(node, ast.Call) and _named(node.func, "DualScalar"))
    assert builds and set(builds) == {"numdiff"}


# every primitive, on u in [-2, 2] and a positive v; the float rule is the
# primitive on plain floats
PRIMITIVES = {
    "neg": lambda u, v: -u,
    "add": lambda u, v: u + v,
    "sub": lambda u, v: u - v,
    "rsub": lambda u, v: 0.3 - u,
    "mul": lambda u, v: u * v,
    "div": lambda u, v: u / v,
    "rdiv": lambda u, v: 1.7 / v,
    "power_int": lambda u, v: numdiff.power(u, 3),
    "power_real": lambda u, v: numdiff.power(v, 2.7),
    "power_half": lambda u, v: numdiff.power(v, 0.5),
    "power_dual_exponent": lambda u, v: numdiff.power(v, u),
    "power_constant_base": lambda u, v: numdiff.power(1.3, u),
    "sin": lambda u, v: numdiff.sin(u),
    "cos": lambda u, v: numdiff.cos(u),
    "tan": lambda u, v: numdiff.tan(u),
    "exp": lambda u, v: numdiff.exp(u),
    "log": lambda u, v: numdiff.log(v),
    "sqrt": lambda u, v: numdiff.sqrt(v),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_every_primitive_value_is_its_float_rule_bitwise(name):
    """A dual's value is the float evaluation, bit for bit, at levels 1 and
    2, with the operands at one level or at two, and over array cores, where
    the (packed) duals are also elementwise the float-core ones."""
    op = PRIMITIVES[name]
    rng = np.random.default_rng(15)
    us, vs = rng.uniform(-2.0, 2.0, 50), rng.uniform(0.1, 3.0, 50)
    want = np.array([op(u, v) for u, v in zip(us.tolist(), vs.tolist())])

    def results(u, v):
        one = numdiff.lift([u, v])
        two = numdiff.lift(one)
        mixed = (one[0], numdiff.lift([one[1]])[0])  # u at level 1, v at level 2
        return [op(a, b) for a, b in (one, two, mixed)]

    batch = results(us, vs)  # array cores
    for got in batch:
        assert np.broadcast_to(numdiff.float_core(got), us.shape).tobytes() == want.tobytes()
    for k, (u, v) in enumerate(zip(us.tolist(), vs.tolist())):
        for got, lone in zip(batch, results(u, v)):
            assert np.float64(numdiff.float_core(lone)).tobytes() == want[k].tobytes()
            assert _same(element(got, k), lone)
