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
        return numdiff.jacobian_generic(lambda y: [s[0] * y[0] * y[0]], [s[0]])[0][0]

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


def parts(x):
    """The partials of a dual as a list, whatever their representation: a
    tuple's items, a packed level-1 dual's rows, or the entries of a packed
    level-2 dual: level-1 duals, or constants where its partials are one
    plain array."""
    p = x.partials
    if isinstance(p, DualScalar):  # packed level-2 partials, (w1, w2) + core
        return [DualScalar(p.value[j], tuple(p.partials[:, j])) for j in range(len(p.value))]
    return list(p)


def _same(u, v):
    """Bitwise equality of (nested) duals: level, value and every partial,
    whether each is a dual or a constant; floats compare by repr, so the
    sign of a zero and a NaN count."""
    if isinstance(u, DualScalar) or isinstance(v, DualScalar):
        if not (isinstance(u, DualScalar) and isinstance(v, DualScalar)):
            return False
        pu, pv = parts(u), parts(v)
        return (
            u.level == v.level and len(pu) == len(pv) and _same(u.value, v.value)
            and all(_same(a, b) for a, b in zip(pu, pv))
        )
    return repr(float(u)) == repr(float(v))


def tuple_lift(values):
    """The level-2 lift of the tuple nesting, kept as the reference for the
    packed one: each value's partials a tuple of plain float seeds. From
    there DualScalar's own methods and the tuple branches of the primitives
    carry the tuple arithmetic, whose formulas
    test_fast_paths_match_plain_formulas_bitwise writes out."""
    assert max(v.level for v in values if isinstance(v, DualScalar)) == 1
    w = len(values)
    return [DualScalar(v, [float(i == j) for j in range(w)], 2) for i, v in enumerate(values)]


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
    # (packed: the seeds u, v, w keep constant partials; the sine of u and
    # the products with it carry level-1 ones)
    u1, v1 = numdiff.lift([0.3, -1.2])
    for u, v, w in (numdiff.lift([u1 * 0.5, v1, 1.7]), tuple_lift([u1 * 0.5, v1, 1.7])):
        pu, pv, pw = parts(u), parts(v), parts(w)
        s = numdiff.sin(u)
        ps = [numdiff.cos(u.value) * p for p in pu]
        qv = u.value / v.value
        qw = u.value / 1.7
        q1 = u1 / u.value
        qs = s.value / v.value
        level2 = [
            (-u, DualScalar(-u.value, [-p for p in pu], 2)),
            (u + v, DualScalar(u.value + v.value, [x + y for x, y in zip(pu, pv)], 2)),
            (u - v, DualScalar(u.value - v.value, [x - y for x, y in zip(pu, pv)], 2)),
            (u * v, DualScalar(
                u.value * v.value, [x * v.value + u.value * y for x, y in zip(pu, pv)], 2)),
            (u * c, DualScalar(u.value * c, [p * c for p in pu], 2)),
            (u1 * u, DualScalar(u1 * u.value, [u1 * p for p in pu], 2)),
            (u * v1, DualScalar(u.value * v1, [p * v1 for p in pu], 2)),
            (u1 - u, DualScalar(u1 - u.value, [-p for p in pu], 2)),
            (u / v, DualScalar(qv, [(x - qv * y) / v.value for x, y in zip(pu, pv)], 2)),
            (u / w, DualScalar(qw, [(x - qw * y) / 1.7 for x, y in zip(pu, pw)], 2)),
            (u / u1, DualScalar(u.value / u1, [p / u1 for p in pu], 2)),
            (u1 / u, DualScalar(q1, [-(q1 * p) / u.value for p in pu], 2)),
            (s, DualScalar(numdiff.sin(u.value), ps, 2)),
            (s + v, DualScalar(s.value + v.value, [x + y for x, y in zip(ps, pv)], 2)),
            (s * v, DualScalar(
                s.value * v.value, [x * v.value + s.value * y for x, y in zip(ps, pv)], 2)),
            (s * v1, DualScalar(s.value * v1, [p * v1 for p in ps], 2)),
            (s / v, DualScalar(qs, [(x - qs * y) / v.value for x, y in zip(ps, pv)], 2)),
        ]
        for got, want in level2:
            assert _same(got, want), (got, want)

    # the shortcuts keep the width and division checks
    narrow = DualScalar(1.0, (1.0,))
    u, v, w = numdiff.lift([u1 * 0.5, v1, 1.7])
    (narrow2,) = numdiff.lift([u1])
    for op in (
        lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t, lambda s, t: s / t,
    ):
        with pytest.raises(WidthMismatchError):
            op(a, narrow)
        with pytest.raises(WidthMismatchError):
            op(u, narrow2)
        with pytest.raises(WidthMismatchError):
            op(numdiff.sin(u), narrow2)
    zero = DualScalar(0.0, (1.0, 0.0))
    zero2 = numdiff.lift([u1 - 0.3, v1, 1.7])[0]
    for num, den in ((a, zero), (c, zero), (a, 0.0), (u, zero2), (u1, zero2), (numdiff.sin(u), zero2)):
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
        return DualScalar(element(x.value, b), tuple(element(p, b) for p in parts(x)), x.level)
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
            if isinstance(x.partials, DualScalar):  # packed level-2 partials
                out += [np.asarray(x.partials.value).tobytes(), _partials_bytes(x.partials)]
            else:
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


POWER_BASES = (1.5, 0.0, -2.0, 0.7, -0.5, 3.0)
POWER_EXPONENTS = (0.0, 1.0, 2.0, -1.0, 0.5, 1.5)


def _power_outcome(base, e):
    """power(base, e) of a level-1 dual, with a constant result as a dual
    with zero partials, or the message of the DomainError it raises."""
    try:
        out = numdiff.power(base, e)
    except DomainError as exc:
        return str(exc)
    return out if isinstance(out, DualScalar) else DualScalar(out, (0.0,) * len(parts(base)))


def test_power_takes_one_plain_exponent_per_array_core_element():
    # each element is its lone float-core call, bit for bit: 1 with zero
    # partials at exponent 0, the base itself at 1, the monomial rule else;
    # the call raises wherever an element's own call raises, with its message
    mixed = (1.5, 0.0, 2.0, 0.5, -1.0, 1.0)  # no element raises
    cases = [np.array(mixed)]
    for b in range(len(POWER_BASES)):  # every base with every exponent
        for e in POWER_EXPONENTS:
            exps = np.full(len(POWER_BASES), 2.0)
            exps[b] = e
            cases.append(exps)
    raised = 0
    for make in JETS:
        for exps in cases:
            base = make(POWER_BASES)
            lone = [_power_outcome(element(base, b), e) for b, e in enumerate(exps.tolist())]
            got = _power_outcome(base, exps)
            errors = [x for x in lone if isinstance(x, str)]
            if errors:
                raised += 1
                assert got in errors, (make.__name__, exps)
                continue
            assert all(_same(element(got, b), x) for b, x in enumerate(lone)), (make.__name__, exps)
    assert raised == len(JETS) * 6  # -2 and -0.5 at 0.5 and 1.5, 0 at -1 and 0.5


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
    def nested(p, q, lift=numdiff.lift):
        u, v, w = lift([p * 0.5, q, 1.7])
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
    # on float cores (a lone point) the packed level 2 is the tuple nesting
    for b in range(3):
        p, q = numdiff.lift([ps[b], qs[b]])
        before = _partials_bytes(p, q)
        got, want = nested(p, q), nested(p, q, tuple_lift)
        assert isinstance(got[0].partials, DualScalar) and type(want[0].partials) is tuple
        assert len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
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
    # jacobian rows of a packed level-1 stay one array
    rows = numdiff.jacobian_generic(lambda s: [s[0] * s[1], 4.0], [u.value, v.value])
    assert type(rows[0]) is np.ndarray and rows[0].shape == (2, 3) and rows[1] == [0.0, 0.0]
    # a second level is packed over floats and over arrays: the seeds' partials
    # are one constant (w2,) + core array, and after a level-1 factor one
    # packed level-1 dual with value (w2,) + core and partials (w1, w2) + core;
    # its jacobian rows are level-1 duals again, tuples over floats
    x, y = numdiff.lift([0.3, -1.2])
    for (a, b), one, core in ((numdiff.lift([x, y]), x, ()), (numdiff.lift([u, v]), u, (3,))):
        for seed in (a, b, -a, a + b, a * 2.0, a - 1.0):
            assert type(seed.partials) is np.ndarray and seed.partials.shape == (2,) + core
        for r in (a * b, numdiff.sin(a), a * one, one / a, a / b, numdiff.sqrt(a * a + 1.0)):
            assert r.level == 2 and isinstance(r.partials, DualScalar)
            assert r.partials.level == 1 and type(r.partials.partials) is np.ndarray
            assert r.partials.value.shape == (2,) + core
            assert r.partials.partials.shape == (2, 2) + core
    rows = numdiff.jacobian_generic(lambda s: [s[0] * s[1], s[0] + 1.0, x], [x, y])
    assert [type(e) for e in rows[0]] == [DualScalar] * 2
    assert all(type(e.partials) is tuple for e in rows[0])
    assert rows[1] == [1.0, 0.0] and rows[2] == [0.0, 0.0]


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


def _level_two_operands(base, lift_two):
    """Operands over the level-1 duals of ``base`` (floats, or (B,) arrays),
    built by the same operations whichever lift makes level 2: a seed and
    its negation (constant partials, the latter with -0.0 entries), general
    duals with level-1 partials (one near overflow, and its square, whose
    products with zero partials are NaNs), a positive one, a level-1 dual, a
    number and a constant of the cores' shape."""
    s = numdiff.lift(base)
    a1 = s[0] * s[2]  # base[0]'s cores where base[2] is 1, with level-1 partials
    x, y, z = lift_two([a1, s[1] * s[2], s[2] * s[2] + 0.3])
    u = x * y + numdiff.cos(z) * s[1]
    big = (x - 0.25) * 1e300
    pos = z * z + x * x + 0.2
    const = np.full(np.shape(base[0]), 1.25) if np.ndim(base[0]) else 1.25
    operands = {
        "x": x, "-x": -x, "u": u, "big": big, "inf": big * big, "a1": a1, "0.37": 0.37,
        "const": const,
    }
    return s, x, y, z, pos, operands


def _outcome(fn, *args):
    """fn(*args), or the primitive named by the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return exc.primitive


def test_packed_level_two_replays_the_tuple_nesting_bitwise():
    # every primitive, solve_linear and _select over packed level-2 operands,
    # against the tuple nesting (tuple_lift), at float and (B,) array cores:
    # level-2 operands with constant and level-1 partials, mixed with a
    # level-1 dual and constants, in both orders; bits include the sign of a
    # zero and where NaNs are, and no operation writes into an input
    B0, B1, B2 = [3.0, 0.1, 0.2], [0.5, 0.4, 2.0], [1.0, 1.0, 1.0]
    mask = np.array([True, False, True])
    cases = [(np.array(B0), np.array(B1), np.array(B2))] + list(zip(B0, B1, B2))

    def run(base, s, x, y, z, pos, ops):
        two = [k for k, v in ops.items() if isinstance(v, DualScalar) and v.level == 2]
        out = dict(ops)
        for k in two:
            for name, fn in (
                ("neg", lambda t: -t), ("sin", numdiff.sin), ("cos", numdiff.cos),
                ("tan", numdiff.tan), ("exp", numdiff.exp), ("log", numdiff.log),
                ("sqrt", numdiff.sqrt), ("cube", lambda t: numdiff.power(t, 3)),
                ("square", lambda t: t**2.0), ("one", lambda t: numdiff.power(t, 1.0)),
                ("zero", lambda t: numdiff.power(t, 0.0)), ("real", lambda t: numdiff.power(t, 2.7)),
                ("half", lambda t: numdiff.power(t, 0.5)), ("rdiv", lambda t: 1.7 / t),
            ):
                out[name, k] = _outcome(fn, ops[k])
        for (name, fn), dens in (
            (("add", lambda a, b: a + b), ops), (("sub", lambda a, b: a - b), ops),
            (("mul", lambda a, b: a * b), ops), (("div", numdiff.divide), ("x", "u", "a1", "0.37")),
        ):
            for k in ops:
                for d in dens:
                    if k in two or d in two:
                        out[name, k, d] = _outcome(fn, ops[k], ops[d])
        for k in [*two, "a1"]:  # a dual exponent on positive bases of every level
            for i, base_ in enumerate((pos, s[2] + 1.0, 1.3)):
                out["pow", k, i] = _outcome(numdiff.power, base_, ops[k])
        a = [[x, 1.0, 2.0], [s[2], z, ops["u"]], [y, 2.0, -1.0]]
        out["solve"] = numdiff.solve_linear(a, [ops["u"], ops["a1"], ops["-x"]])
        out["solve_m"] = sum(numdiff.solve_linear(a, [[ops["u"], 1.0], [x, ops["big"]], [0.5, z]]), [])
        if np.ndim(base[0]):  # select per element: entries of every level
            for k in ops:
                for d in ops:
                    if k in two or d in two:
                        out["select", k, d] = numdiff._select(mask, ops[k], ops[d])
        return out

    with np.errstate(all="ignore"):
        for base in cases:
            packed, tuples = (_level_two_operands(base, lf) for lf in (numdiff.lift, tuple_lift))
            assert isinstance(packed[5]["u"].partials, DualScalar)
            assert type(packed[5]["-x"].partials) is np.ndarray
            before = [_partials_bytes(*o[:5], *o[5].values()) for o in (packed, tuples)]
            got, want = run(base, *packed), run(base, *tuples)
            assert got.keys() == want.keys()
            nan = 0
            for key, g in got.items():
                w = want[key]
                for ge, we in zip(*(v if isinstance(v, list) else [v] for v in (g, w))):
                    if isinstance(ge, str) or isinstance(we, str):  # a domain error
                        assert ge == we, key
                    elif np.ndim(base[0]):
                        for b in range(3):
                            assert _same(element(ge, b), element(we, b)), (key, b)
                    else:
                        assert _same(ge, we), key
                nan += "nan" in repr(element(g, 0) if np.ndim(base[0]) else g)
            assert nan  # the overflowed operand reaches NaN partials
            assert before == [_partials_bytes(*o[:5], *o[5].values()) for o in (packed, tuples)]

            # jacobian rows at level 2: the entries of the tuple nesting
            def F(t):
                return [t[0] * t[1], numdiff.sin(t[1]) / t[2], t[0] - 1.0, 4.0, t[0].value]

            s = numdiff.lift(base)
            scalars = [s[0] * s[2], s[1] * s[0], s[2] * s[2] + 0.3]
            got = numdiff.jacobian_generic(F, scalars)
            want = [
                list(c.partials) if isinstance(c, DualScalar) and c.level == 2 else [0.0] * 3
                for c in F(tuple_lift(scalars))
            ]
            assert len(got) == len(want) == 5 and got[3:] == [[0.0] * 3] * 2
            for g, w in zip(sum(got, []), sum(want, [])):
                if np.ndim(base[0]):
                    assert all(_same(element(g, b), element(w, b)) for b in range(3))
                else:
                    assert _same(g, w)


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
    # no module outside numdiff reads partials (jacobian rows come as rows)
    readers = set()
    for path in sorted(Path(numdiff.__file__).parent.glob("*.py")):
        if path.stem == "numdiff":
            continue
        _partials_readers(ast.parse(path.read_text()), path.stem, readers)
    assert readers == set()


def _partials_readers(node, scope, found):
    """Add to ``found`` the scope (module, class and function names) of every
    ``.partials`` read below node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            _partials_readers(child, f"{scope}.{child.name}", found)
            continue
        if isinstance(child, ast.Attribute) and child.attr == "partials":
            found.add(scope)
        _partials_readers(child, scope, found)


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
