"""Forward-mode automatic differentiation on scalars.

A DualScalar carries a value plus the partial derivatives with respect to the
independent variables introduced by one ``lift`` call. Lifts nest:
every lift opens a fresh perturbation level, and arithmetic between scalars
from different levels treats the lower level as a constant, so derivatives of
functions that internally take derivatives come out right without any special
casing at the call site.

The float cores under every dual layer are floats or ``(B,)`` arrays. An
array core carries B points through the same formulas at once (vector
forward mode; Griewank & Walther, *Evaluating Derivatives*, 2008, ch. 13):
the arithmetic is elementwise, every libm call and domain check is the float
one applied to each element, and ``solve_linear`` pivots each element by the
scalar rule, so each element is bitwise the float result. A plain ndarray
operand is a constant, as a number is. ``cores`` and its inverse
``from_cores`` are the one conversion between B points and their cores;
``jacobian_batch`` seeds one lift over them, and nests like any level, and
``directional_batch`` one width-1 lift along given directions.

How ``lift`` keeps the partials (packed ones in a private subclass of
DualScalar, see _Packed):
- level 1 over float cores (a lone point: integrate and every single-point
  command): a tuple of floats;
- level 1 over array cores: one (w, B) array, so each term of a formula is
  one ufunc over all w partials and B elements instead of w;
- level 2 over either: one packed level-1 dual over the cores with one more
  leading axis (value (w2,) + core, partials (w1, w2) + core), so a level-2
  term is a handful of ufuncs instead of w2 level-1 operations. Its
  jacobian rows are unpacked once, into the level-1 duals a tuple would
  hold (``jacobian_generic``);
- level 3 and above: a tuple of lower-level duals.

Everything here is pure and first order. Supported primitives: +, -, *, /,
power, sin, cos, tan, exp, log, sqrt and unary minus. Evaluating a primitive
outside its domain (at any element of an array core), an infinite argument
of sin, cos or tan included, raises DomainError naming the primitive.
"""

from __future__ import annotations

import math
from operator import add as _add
from operator import neg as _neg
from operator import sub as _sub
from operator import truediv as _truediv

import numpy as np

from .errors import DomainError, SingularMatrixError, WidthMismatchError

_NUM = (int, float)
_CONST = (int, float, np.ndarray)  # operands with no partials at any level


def float_core(x):
    """Strip all dual layers off a scalar and return the underlying float."""
    while isinstance(x, DualScalar):
        x = x.value
    return x


class DualScalar:
    """Value plus one level of partial derivatives.

    ``partials`` has one slot per independent variable of the lift that
    created this level (a tuple; a packed dual's rows of one array, or the
    entries of one packed level-1 dual at level 2); entries (and ``value``)
    may themselves be duals of a lower level when lifts are nested. The
    float cores below every level are floats or ``(B,)`` arrays.
    """

    __slots__ = ("value", "partials", "level")
    __array_ufunc__ = None  # an ndarray operand defers to the methods below

    def __init__(self, value, partials, level=1):
        self.value = value
        self.partials = partials if type(partials) is tuple else tuple(partials)
        self.level = level

    def _check(self, other: "DualScalar"):
        if len(self.partials) != len(other.partials):
            raise WidthMismatchError(
                f"partials widths differ: {len(self.partials)} vs {len(other.partials)}"
            )

    def __repr__(self):
        return f"DualScalar({self.value!r}, {self.partials!r}, level={self.level})"

    # The arithmetic below is the hot loop of the package on level-1 float
    # cores (packed duals, at level 1 over arrays and at level 2, override
    # it, see _Packed). Partials are built from list comprehensions or map
    # (cheaper than tuple(<generator>)), a plain float operand takes the
    # first branch, and _check runs only when the widths differ. The values
    # are those of the plain formulas. A type test on the partials here would
    # cost the float cores; packed arithmetic therefore lives in the
    # subclass, whose reflected methods Python tries first, and the
    # primitives take one ``type(x) is _Packed`` branch each.

    def __neg__(self):
        return DualScalar(-self.value, tuple(map(_neg, self.partials)), self.level)

    def __add__(self, other):
        if type(other) is float:
            return DualScalar(self.value + other, self.partials, self.level)
        if isinstance(other, DualScalar):
            if other.level == self.level:
                if len(self.partials) != len(other.partials):
                    self._check(other)
                return DualScalar(
                    self.value + other.value,
                    tuple(map(_add, self.partials, other.partials)),
                    self.level,
                )
            if other.level > self.level:
                return DualScalar(self + other.value, other.partials, other.level)
            return DualScalar(self.value + other, self.partials, self.level)
        if isinstance(other, _CONST):
            return DualScalar(self.value + other, self.partials, self.level)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is float:
            return DualScalar(self.value - other, self.partials, self.level)
        if isinstance(other, DualScalar):
            if other.level == self.level:
                if len(self.partials) != len(other.partials):
                    self._check(other)
                return DualScalar(
                    self.value - other.value,
                    tuple(map(_sub, self.partials, other.partials)),
                    self.level,
                )
            if other.level > self.level:
                return DualScalar(
                    self - other.value, tuple(map(_neg, other.partials)), other.level
                )
            return DualScalar(self.value - other, self.partials, self.level)
        if isinstance(other, _CONST):
            return DualScalar(self.value - other, self.partials, self.level)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _CONST):
            return DualScalar(other - self.value, tuple(map(_neg, self.partials)), self.level)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is float:
            return DualScalar(
                self.value * other, tuple([p * other for p in self.partials]), self.level
            )
        if isinstance(other, DualScalar):
            if other.level == self.level:
                if len(self.partials) != len(other.partials):
                    self._check(other)
                sv, ov = self.value, other.value
                return DualScalar(
                    sv * ov,
                    tuple([a * ov + sv * b for a, b in zip(self.partials, other.partials)]),
                    self.level,
                )
            if other.level > self.level:
                return DualScalar(
                    self * other.value,
                    tuple([self * p for p in other.partials]),
                    other.level,
                )
            return DualScalar(
                self.value * other,
                tuple([p * other for p in self.partials]),
                self.level,
            )
        if isinstance(other, _CONST):
            return DualScalar(
                self.value * other, tuple([p * other for p in self.partials]), self.level
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(other, self)

    def __pow__(self, other):
        return power(self, other)

    def __rpow__(self, other):
        return power(other, self)


class _Packed(DualScalar):
    """A dual whose partials are packed into arrays, at level 1 or 2.

    At level 1 (over (B,) array cores, or over a level-2 dual's cores with
    one more leading axis) the w partials are the rows of one (w,) + core
    array, so each term of a formula is one ufunc over every partial and
    element. At level 2 the value is a level-1 dual over the cores (a tuple
    dual over floats, a packed one over (B,) arrays), and the w2 partials are
    one packed level-1 dual whose value has shape (w2,) + core and whose
    partials have shape (w1, w2) + core; while every partial is still a
    constant at level 1 (the seeds, and what constants make of them), they
    are one plain (w2,) + core array, as the tuple nesting kept them plain
    floats, so no ``0 * x`` term or ``0.0 + -0.0`` enters. A level-1 operand
    meets level-2 partials through ``_up``, which inserts the w2 axis into
    its partials; the formulas are the level-1 ones at both levels.

    Each element sees the operations of the tuple formulas in the same order.
    An operand of the same level that is not packed takes the DualScalar
    method, which zips over the array's rows; a reflected call there only
    swaps the operands of + and *, which commute bitwise. The arrays are
    shared between duals and never written."""

    __slots__ = ()

    def __init__(self, value, partials, level=1):
        self.value = value
        self.partials = partials
        self.level = level

    def _check(self, other: "DualScalar"):
        a, b = _width(self.partials), _width(other.partials)
        if a != b:
            raise WidthMismatchError(f"partials widths differ: {a} vs {b}")

    def __neg__(self):
        return _Packed(-self.value, -self.partials, self.level)

    def __add__(self, other):
        if type(other) is _Packed and other.level == self.level:
            sp, op = self.partials, other.partials
            if _width(sp) != _width(op):
                self._check(other)
            return _Packed(self.value + other.value, sp + op, self.level)
        if _below(other, self.level):
            return _Packed(self.value + other, self.partials, self.level)
        if type(other) is _Packed:  # a higher level
            return other.__radd__(self)
        return DualScalar.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is _Packed and other.level == self.level:
            sp, op = self.partials, other.partials
            if _width(sp) != _width(op):
                self._check(other)
            return _Packed(self.value - other.value, sp - op, self.level)
        if _below(other, self.level):
            return _Packed(self.value - other, self.partials, self.level)
        if type(other) is _Packed:
            return other.__rsub__(self)
        return DualScalar.__sub__(self, other)

    def __rsub__(self, other):
        if _below(other, self.level):
            return _Packed(other - self.value, -self.partials, self.level)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is _Packed and other.level == self.level:
            sp, op = self.partials, other.partials
            if _width(sp) != _width(op):
                self._check(other)
            sv, ov = self.value, other.value
            if self.level == 1:  # array values, which broadcast as they are
                return _Packed(sv * ov, sp * ov + sv * op)
            return _Packed(sv * ov, sp * _up(ov) + _up(sv) * op, 2)
        if _below(other, self.level):
            if self.level == 1:
                return _Packed(self.value * other, self.partials * other)
            return _Packed(self.value * other, self.partials * _up(other), 2)
        if type(other) is _Packed:
            return other.__rmul__(self)
        return DualScalar.__mul__(self, other)

    __rmul__ = __mul__


def _width(partials) -> int:
    """The number of partials of a packed dual: the rows of its array, or the
    entries of its level-2 partials."""
    return len(partials) if type(partials) is np.ndarray else len(partials.value)


def _below(x, level) -> bool:
    """Whether x is a constant at ``level``: a number, an array or a dual of a
    lower level."""
    return isinstance(x, _CONST) or (isinstance(x, DualScalar) and x.level < level)


def _up(x):
    """A level-1 factor of level-2 partials, with the w2 axis inserted into its
    partials; a constant as it is (it broadcasts already)."""
    if type(x) is _Packed:
        return _Packed(x.value, x.partials[:, None])
    if isinstance(x, DualScalar):
        return _Packed(x.value, np.array(x.partials)[:, None])
    return x


def _anywhere(cond):
    """A domain test on a float core, or on any element of an array core."""
    return cond if type(cond) is bool else cond.any()


def _map(fn, x):
    """fn(x) on a float core; on an array core, the same call per element.
    (The primitives call fn directly on a float: their leaves are hot.)"""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.tolist()), float, len(x))
    return fn(x)


def divide(num, den):
    """num / den with an explicit zero-denominator domain check.

    Once the check has passed, partials over a float-core denominator value
    are divided with ``/`` directly.
    """
    if isinstance(den, DualScalar):
        dv = den.value
        zero = float_core(dv) == 0.0  # _anywhere inlined: divide is the hot path
        if zero if type(zero) is bool else zero.any():
            raise DomainError("division", "division by zero")
        if type(den) is _Packed and _below(num, den.level):
            q = divide(num, dv)
            return _Packed(q, -(_up(q) * den.partials) / _up(dv), den.level)
        if type(num) is _Packed:
            if num.level > den.level:
                return _Packed(divide(num.value, den), num.partials / _up(den), num.level)
            if type(den) is _Packed:
                if _width(num.partials) != _width(den.partials):
                    num._check(den)
                q = num.value / dv
                return _Packed(q, (num.partials - _up(q) * den.partials) / _up(dv), num.level)
        div = divide if isinstance(dv, DualScalar) else _truediv
        if isinstance(num, DualScalar):
            if num.level == den.level:
                if len(num.partials) != len(den.partials):
                    num._check(den)
                q = divide(num.value, dv)
                return DualScalar(
                    q,
                    tuple([div(a - q * b, dv) for a, b in zip(num.partials, den.partials)]),
                    num.level,
                )
            if num.level > den.level:
                return DualScalar(
                    divide(num.value, den),
                    tuple([divide(p, den) for p in num.partials]),
                    num.level,
                )
        # num is constant relative to den's seeds (a number, an array or a lower level)
        q = divide(num, dv)
        return DualScalar(
            q, tuple([div(-(q * b), dv) for b in den.partials]), den.level
        )
    # den is a constant
    zero = den == 0.0
    if zero if type(zero) is bool else zero.any():
        raise DomainError("division", "division by zero")
    if isinstance(num, DualScalar):
        if type(num) is _Packed:
            return _Packed(num.value / den, num.partials / den, num.level)
        return DualScalar(
            divide(num.value, den),
            tuple([p / den for p in num.partials]),
            num.level,
        )
    return num / den


def power(base, exponent):
    """base ** exponent.

    Plain-number exponents use the monomial rule (integer exponents permit
    negative bases), and a plain array exponent gives each element of array
    cores its own; dual exponents take the partials of
    exp(exponent * log(base)) and therefore require a positive base. The
    value is always the float rule's, at every level.
    """
    if isinstance(exponent, DualScalar):
        d = exp(exponent * log(base))
        below = [x.value if _level(x) == d.level else x for x in (base, exponent)]
        if type(d) is _Packed:
            return _Packed(power(*below), d.partials, d.level)
        return DualScalar(power(*below), d.partials, d.level)
    if not isinstance(base, DualScalar):
        if isinstance(exponent, np.ndarray):  # an array core: one exponent per element
            b = np.broadcast_to(base, exponent.shape).tolist()
            return np.fromiter(map(_float_pow, b, exponent.tolist()), float, len(b))
        return _map(lambda b: _float_pow(b, exponent), base)
    if isinstance(exponent, np.ndarray) and exponent.ndim:
        return _power_each(base, exponent)
    e = float(exponent)
    core = float_core(base.value)
    if _anywhere(core < 0.0) and not e.is_integer():
        raise DomainError("power", "negative base with non-integer exponent")
    if e == 0.0:
        return 1.0
    if e == 1.0:
        return base
    if _anywhere(core == 0.0):
        if e < 0.0:
            raise DomainError("power", "zero base with negative exponent")
        if e < 1.0:
            raise DomainError("power", "derivative of x^e unbounded at 0 for e < 1")
    val = power(base.value, e)
    slope = power(base.value, e - 1.0) * e
    if type(base) is _Packed:
        return _Packed(val, _up(slope) * base.partials, base.level)
    return DualScalar(
        val, tuple([slope * p for p in base.partials]), base.level
    )


def _power_each(base, e):
    """power(base, e) for a dual base over array cores and one plain exponent
    per element: each element takes the rule of its own float exponent (1.0
    with zero partials at 0, the base itself at 1, the monomial rule
    otherwise), and a DomainError is raised wherever an element's own call
    would raise one. The elements are merged by ``_select``, so at level 2 a
    partial that is constant at some elements holds zero partials there."""
    core = float_core(base.value)
    if _anywhere((core < 0.0) & ((np.trunc(e) != e) | np.isinf(e))):
        raise DomainError("power", "negative base with non-integer exponent")
    zero, one = e == 0.0, e == 1.0
    at_zero = (core == 0.0) & ~zero & ~one
    if _anywhere(at_zero & (e < 0.0)):
        raise DomainError("power", "zero base with negative exponent")
    if _anywhere(at_zero & (e < 1.0)):
        raise DomainError("power", "derivative of x^e unbounded at 0 for e < 1")
    e = np.where(zero | one, 1.0, e)  # the monomial rule at 1 is safe everywhere
    val = power(base.value, e)
    slope = power(base.value, e - 1.0) * e
    if type(base) is _Packed:
        mono = _Packed(val, _up(slope) * base.partials, base.level)
    else:
        mono = DualScalar(val, tuple([slope * p for p in base.partials]), base.level)
    return _select(zero, 1.0, _select(one, base, mono))


def _float_pow(b, e):
    b, e = float(b), float(e)
    if b < 0.0 and not e.is_integer():
        raise DomainError("power", "negative base with non-integer exponent")
    if b == 0.0 and e < 0.0:
        raise DomainError("power", "zero base with negative exponent")
    try:
        return b**e
    except OverflowError:
        raise DomainError("power", "overflow") from None


def sin(x):
    if isinstance(x, DualScalar):
        v, c = sin(x.value), cos(x.value)
        if type(x) is _Packed:
            return _Packed(v, _up(c) * x.partials, x.level)
        return DualScalar(v, tuple([c * p for p in x.partials]), x.level)
    try:
        return math.sin(x) if type(x) is float else _map(math.sin, x)
    except ValueError:  # an infinite argument
        raise DomainError("sin", "argument must be finite") from None


def cos(x):
    if isinstance(x, DualScalar):
        v, s = cos(x.value), sin(x.value)
        if type(x) is _Packed:
            return _Packed(v, -(_up(s) * x.partials), x.level)
        return DualScalar(v, tuple([-(s * p) for p in x.partials]), x.level)
    try:
        return math.cos(x) if type(x) is float else _map(math.cos, x)
    except ValueError:  # an infinite argument
        raise DomainError("cos", "argument must be finite") from None


def tan(x):
    if isinstance(x, DualScalar):
        t = tan(x.value)
        sec2 = 1.0 + t * t
        if type(x) is _Packed:
            return _Packed(t, _up(sec2) * x.partials, x.level)
        return DualScalar(t, tuple([sec2 * p for p in x.partials]), x.level)
    try:
        return math.tan(x) if type(x) is float else _map(math.tan, x)
    except ValueError:  # an infinite argument
        raise DomainError("tan", "argument must be finite") from None


def exp(x):
    if isinstance(x, DualScalar):
        v = exp(x.value)
        if type(x) is _Packed:
            return _Packed(v, _up(v) * x.partials, x.level)
        return DualScalar(v, tuple([v * p for p in x.partials]), x.level)
    try:
        return math.exp(x) if type(x) is float else _map(math.exp, x)
    except OverflowError:
        raise DomainError("exp", "overflow") from None


def log(x):
    if _anywhere(float_core(x) <= 0.0):
        raise DomainError("log", "argument must be positive")
    if isinstance(x, DualScalar):
        if type(x) is _Packed:
            return _Packed(log(x.value), x.partials / _up(x.value), x.level)
        return DualScalar(
            log(x.value), tuple([divide(p, x.value) for p in x.partials]), x.level
        )
    return math.log(x) if type(x) is float else _map(math.log, x)


def sqrt(x):
    core = float_core(x)
    if _anywhere(core < 0.0):
        raise DomainError("sqrt", "argument must be nonnegative")
    if isinstance(x, DualScalar):
        if _anywhere(core == 0.0):
            raise DomainError("sqrt", "derivative unbounded at 0")
        v = sqrt(x.value)
        half = divide(0.5, v)
        if type(x) is _Packed:
            return _Packed(v, _up(half) * x.partials, x.level)
        return DualScalar(v, tuple([half * p for p in x.partials]), x.level)
    return math.sqrt(x) if type(x) is float else _map(math.sqrt, x)


FUNCTIONS = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "exp": exp,
    "log": log,
    "sqrt": sqrt,
}


def lift(values):
    """Lift a vector of scalars to duals with unit-basis partials.

    The lift opens a fresh perturbation level one above the deepest level
    present in ``values``; constants keep zero partials implicitly by never
    being lifted. Over (B,) array cores (``cores``: the first value is
    an array) the first level is packed: the partials of value i are one
    (w, B) array whose row i is 1.0. The second level is packed over any
    cores: the partials of value i are one constant (w, w) + core array whose
    row i is 1.0 (see _Packed).
    """
    vals = list(values)
    level = 1 + max(
        (v.level for v in vals if isinstance(v, DualScalar)), default=0
    )
    if level == 1 and vals and type(vals[0]) is np.ndarray:  # array cores
        return _seed(vals, np.eye(len(vals))[:, :, None].repeat(len(vals[0]), 2))
    if level == 2:
        core = max((np.shape(float_core(v)) for v in vals), key=len)
        seeds = np.eye(len(vals))
        return _seed(vals, seeds[:, :, None].repeat(core[0], 2) if core else seeds, 2)
    zeros = (0.0,) * len(vals)
    out = []
    for i, v in enumerate(vals):
        if isinstance(v, _NUM):
            v = float(v)
        out.append(DualScalar(v, zeros[:i] + (1.0,) + zeros[i + 1 :], level))
    return out


def _seed(vals, partials, level=1):
    """Packed duals of ``level``: value i with the partials ``partials[i]``,
    made read-only, as every packed array is shared."""
    partials.flags.writeable = False
    return [
        _Packed(float(v) if isinstance(v, _NUM) else v, p, level) for v, p in zip(vals, partials)
    ]


def gradient(f, x):
    """Return (f(x), grad f(x)) for a scalar map on R^w, exact to roundoff."""
    xs = [float(v) for v in x]
    out = f(lift(xs))
    if isinstance(out, DualScalar):
        return float(out.value), np.asarray(out.partials, dtype=float)
    return float(out), np.zeros(len(xs))


def jacobian(F, x):
    """Row i is the gradient of the i-th component of F at x."""
    return jacobian_batch(F, [x])[0]


def jacobian_generic(F, scalars):
    """Jacobian rows of F over generic scalars, one lift above the inputs.

    Components that do not depend on the new level get zero rows, so this
    also differentiates functions evaluated at dual points. A level-1 row is
    its component's partials as they are: a tuple, or a packed (w, B) array;
    a level-2 row is the list of its packed partials' entries (``_entries``).
    """
    duals = lift(scalars)
    level = duals[0].level
    return [
        (_entries(c.partials) if level == 2 else c.partials)
        if isinstance(c, DualScalar) and c.level == level
        else [0.0] * len(duals)
        for c in F(duals)
    ]


def _entries(partials):
    """The w2 level-1 entries of a level-2 dual's packed partials: tuple duals
    over float cores, packed ones over (B,) array cores, and constant
    partials as floats or (B,) arrays, as the tuple nesting held them."""
    if type(partials) is np.ndarray:
        return partials.tolist() if partials.ndim == 1 else list(partials)
    if partials.value.ndim == 1:  # float cores
        return list(map(DualScalar, partials.value.tolist(), partials.partials.T.tolist()))
    return list(map(_Packed, partials.value, partials.partials.swapaxes(0, 1)))


def jacobian_batch(F, X):
    """Jacobians of F at the B points X: (B, w) -> (B, rows, w), from one
    lift over ``cores(X)``; row b is bitwise the Jacobian at X[b] alone."""
    return from_cores(jacobian_generic(F, cores(X)), len(X))


def directional_batch(F, X, V):
    """Derivatives of F at the B points X (B, w) along the directions V
    (B, w): (B, rows), from one width-1 lift over ``cores(X)`` seeded with
    ``cores(V)`` (packed over array cores); row b is bitwise the derivative
    at X[b] alone."""
    x, v = cores(X), cores(V)
    if len(X) == 1:
        duals = [DualScalar(a, (d,)) for a, d in zip(x, v)]
    else:
        duals = _seed(x, np.asarray(v)[:, None])
    rows = [c.partials[0] if isinstance(c, DualScalar) else 0.0 for c in F(duals)]
    return from_cores([rows], len(X))[:, 0]


def cores(X):
    """The float cores of the points X (B, w): the floats of a lone point, or
    one (B,) array per coordinate, so one point never runs on array cores."""
    X = np.asarray(X, dtype=float)
    return X[0].tolist() if len(X) == 1 else list(X.T.copy())


def from_cores(table, B):
    """The (B, r, c) array of a table of float cores over B points; a float
    core is the same at every point. The inverse of ``cores``."""
    if B == 1:
        return np.asarray(table, dtype=float)[None]
    out = np.empty((B, len(table), len(table[0])))
    for i, row in enumerate(table):
        if type(row) is np.ndarray:  # a packed row (w, B) of jacobian_generic
            out[:, i] = row.T
            continue
        for j, v in enumerate(row):
            out[:, i, j] = v
    return out


# ---------------------------------------------------------------------------
# Small dense linear algebra over generic scalars (floats or duals). Sizes in
# this package never exceed 2n x 2n with n <= 10, so direct elimination with
# partial pivoting is both adequate and differentiation-friendly.
# ---------------------------------------------------------------------------


def solve_linear(a_rows, b):
    """Solve A x = b by Gaussian elimination with partial pivoting.

    ``b`` may be a vector (list) or a matrix (list of rows); the result has
    the same shape. Pivoting compares the float cores so the routine works
    unchanged on nested duals. When the matrix has array cores each element
    pivots on its own values (``_pivot_batch``); the elimination order is the
    same.
    """
    n = len(a_rows)
    a = [list(row) for row in a_rows]
    vector = n > 0 and not isinstance(b[0], (list, tuple))
    if vector:
        rhs = [[v] for v in b]
    else:
        rhs = [list(row) for row in b]
    mags = [abs(float_core(e)) for row in a for e in row]
    # array cores in b alone leave one pivot order for the whole batch
    batched = np.ndarray in set(map(type, mags))
    scale = _first_max(mags) if batched else max(mags, default=0.0)
    if _anywhere(scale == 0.0):
        raise SingularMatrixError("zero matrix")
    for col in range(n):
        if batched:
            _pivot_batch(a, rhs, col, scale)
        else:
            piv, best = col, abs(float_core(a[col][col]))
            for r in range(col + 1, n):
                mag = abs(float_core(a[r][col]))
                if mag > best:
                    piv, best = r, mag
            if best <= 1e-14 * scale:
                raise SingularMatrixError(f"singular matrix (pivot {best:.3e})")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                rhs[col], rhs[piv] = rhs[piv], rhs[col]
        pv = a[col][col]
        for r in range(col + 1, n):
            f = divide(a[r][col], pv)
            if not isinstance(f, (DualScalar, np.ndarray)) and f == 0.0:
                continue
            for c in range(col + 1, n):
                a[r][c] = a[r][c] - f * a[col][c]
            a[r][col] = 0.0
            for c in range(len(rhs[0])):
                rhs[r][c] = rhs[r][c] - f * rhs[col][c]
    for col in range(n - 1, -1, -1):
        pv = a[col][col]
        for c in range(len(rhs[0])):
            acc = rhs[col][c]
            for j in range(col + 1, n):
                acc = acc - a[col][j] * rhs[j][c]
            rhs[col][c] = divide(acc, pv)
    if vector:
        return [row[0] for row in rhs]
    return rhs


def _first_max(mags):
    """Elementwise ``max(mags)``: the first strict maximum wins, NaN never."""
    out = np.asarray(mags[0], dtype=float)
    for m in mags[1:]:
        out = np.where(m > out, m, out)
    return out


def _select(mask, u, v):
    """Entry u where mask, else v, value and partials through every level;
    an entry below the top level is constant there (zero partials)."""
    top = max((e for e in (u, v) if isinstance(e, DualScalar)), key=_level, default=None)
    if top is None:
        return np.where(mask, u, v)
    if type(top) is _Packed and (top.level == 2 or DualScalar not in (type(u), type(v))):
        (uv, up), (vv, vp) = (
            (e.value, e.partials) if _level(e) == top.level else (e, 0.0) for e in (u, v)
        )
        return _Packed(_select(mask, uv, vv), _select(mask, up, vp), top.level)
    zeros = (0.0,) * len(top.partials)
    (uv, up), (vv, vp) = (
        (e.value, e.partials) if _level(e) == top.level else (e, zeros) for e in (u, v)
    )
    return DualScalar(
        _select(mask, uv, vv), [_select(mask, a, b) for a, b in zip(up, vp)], top.level
    )


def _level(e):
    return e.level if isinstance(e, DualScalar) else 0


def _pivot_batch(a, rhs, col, scale):
    """Pivot column ``col`` by the scalar rule, one pivot row per element.

    A non-finite pivot raises DomainError (the scalar path carries it on).
    Rows swap as lists when every element picks the same pivot row, else
    entry by entry under a mask.
    """
    shape = scale.shape
    mags = np.stack([np.broadcast_to(abs(float_core(row[col])), shape) for row in a[col:]])
    best = _first_max(mags)
    piv = col + np.argmax(mags == best, axis=0)  # the first row reaching it
    if not np.all(np.isfinite(best)):
        raise DomainError("solve_linear", "non-finite pivot")
    small = best <= 1e-14 * scale
    if np.any(small):
        raise SingularMatrixError(f"singular matrix (pivot {best[np.argmax(small)]:.3e})")
    for r in range(col + 1, len(a)):
        mask = piv == r
        if not mask.any():
            continue
        for rows in (a, rhs):
            if mask.all():
                rows[col], rows[r] = rows[r], rows[col]
            else:
                top, low = rows[col], rows[r]
                rows[col] = [_select(mask, v, u) for u, v in zip(top, low)]
                rows[r] = [_select(mask, u, v) for u, v in zip(top, low)]


def mat_vec(m, v):
    return [sum_prod(row, v) for row in m]


def sum_prod(u, v):
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum_prod(row, col) for col in cols] for row in a]


def transpose(m):
    return [list(col) for col in zip(*m)]
