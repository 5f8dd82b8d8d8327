"""The straight-line tables ``dsl`` makes: the generic program over any
scalar type against the closure trees it replaced, the float forward mode
against a lift of the generic program, their errors, and what the forward
source may contain."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from nonholo import catalog, dsl, dynamics, geometry, numdiff
from nonholo.errors import DomainError
from nonholo.numdiff import DualScalar
from reference import closure_expression, forward_entries, lifted_entries

DATA = Path(__file__).parent / "data"
SYSTEMS = {e.id: e.system for e in catalog.catalog_systems()} | {
    path.stem: (lambda path=path: dsl.parse_system(path.read_text()))
    for path in sorted(DATA.glob("*.system"))
}
POINTS = 200

# folding corner cases: -0.0, inf and nan constants (bound by name), powers
# folded to 0 and 1, a constant base, shared subtrees
CORNERS = [
    "-0*x + y", "x*(1e300*1e300) - y", "(1e300*1e300 - 1e300*1e300)*x + y", "x - 1e300*1e300",
    "y^0*x + x^1", "x^(2*0.5) + 2^x", "x^y + y^x", "log(x^0 + y)", "sin(x)*sin(x) - cos(x)/sin(x)",
    "-(x - y)/(x*y) + -x", "tan(x)^2 + exp(-y)*sqrt(x)", "(x*y)^0.5 - (x*y)^2",
    "log(x*y + 2) - tan(x*y)*sqrt(x*y) + exp(x/y)/cos(x*y)",
    "x - (y - x*(y*x)) - -(x + y)*-x",
]


def _tables(sysd):
    """Every table of a system, as the tuples ``compile_expression`` takes."""
    tables = [sysd.metric_exprs, sysd.potential_expr, sysd.constraint_exprs]
    return tables + ([] if sysd.frame_exprs is None else [sysd.frame_exprs])


def _flat(table):
    """The entries of a table (tuples or lists of rows), or one tree alone."""
    return [e for row in table for e in row] if isinstance(table, (tuple, list)) else [table]


def _bytes(x):
    """Every bit of a (nested) table of floats, arrays and duals of any
    representation: type, level, value and partials."""
    if isinstance(x, (list, tuple)):
        return b"[" + b",".join(map(_bytes, x)) + b"]"
    if isinstance(x, DualScalar):
        head = f"{type(x).__name__}{x.level}".encode()
        return head + _bytes(x.value) + _bytes(x.partials)
    x = np.asarray(x)
    return f"{x.dtype}{x.shape}".encode() + x.tobytes()


def _forward(sysd):
    """The forward pass that a FieldEvaluator's programs begin with, alone."""
    return dsl.compile_forward(dynamics.FieldEvaluator(sysd)._exprs, sysd.coords, sysd.params)


def _points(n, seed):
    """Seeded configurations where every test system is defined."""
    return np.random.default_rng(seed).uniform(0.25, 1.75, (POINTS, n))


def _inputs(q, Q):
    """One point's floats, one- and two-level lifts of them, and the same
    over the (B,) array cores of the points Q."""
    one, cores = numdiff.lift(q), numdiff.cores(Q)
    lifted = numdiff.lift(cores)
    return [q, one, numdiff.lift(one), cores, lifted, numdiff.lift(lifted)]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_forward_is_a_lift_of_the_generic_table_bitwise(name):
    sysd = SYSTEMS[name]()
    exprs = [e for table in _tables(sysd) for e in _flat(table)]
    forward = dsl.compile_forward(exprs, sysd.coords, sysd.params)
    generic = dsl.compile_expression(tuple(exprs), sysd.coords, sysd.params)
    n = sysd.n
    for q in _points(n, 26).tolist():
        got = np.array(forward(q))
        vals, grads = [], []
        for v in generic(numdiff.lift(q)):
            dual = isinstance(v, DualScalar)
            vals.append(v.value if dual else v)
            grads.extend(v.partials if dual else [0.0] * n)
        assert got.tobytes() == np.array(vals + grads).tobytes()


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_field_evaluator_entries_are_the_lifted_tables_bitwise(name):
    # values, gradients and the symmetrized dG of the evaluator's forward pass
    sysd = SYSTEMS[name]()
    forward = _forward(sysd)
    for q in _points(sysd.n, 30).tolist():
        for got, want in zip(forward_entries(sysd, forward(q)), lifted_entries(sysd, q)):
            got, want = np.asarray(got), np.asarray(want)
            assert (got.tobytes(), got.shape) == (want.tobytes(), want.shape)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_generic_tables_match_the_closure_trees_bitwise(name):
    sysd = SYSTEMS[name]()
    Q = _points(sysd.n, 27)[:5]
    for table in _tables(sysd):
        fn = dsl.compile_expression(table, sysd.coords, sysd.params)
        closures = [closure_expression(e, sysd.coords, sysd.params) for e in _flat(table)]
        for s in _inputs(Q[0].tolist(), Q):
            assert _bytes(_flat(fn(s))) == _bytes([f(s) for f in closures])


@pytest.mark.parametrize("text", CORNERS)
def test_folding_corners_match_the_closure_trees_and_a_lift_bitwise(text):
    expr = dsl.parse_expression(text)
    names = ["x", "y"]
    fn, ref = dsl.compile_expression(expr, names), closure_expression(expr, names)
    forward = dsl.compile_forward([expr], names)
    Q = _points(2, 28)[:5]
    with np.errstate(invalid="ignore"):  # inf times a zero seed in packed partials
        for s in _inputs(Q[0].tolist(), Q):
            assert _bytes(fn(s)) == _bytes(ref(s))
    for q in _points(2, 28).tolist():
        d = ref(numdiff.lift(q))
        want = [d.value, *d.partials] if isinstance(d, DualScalar) else [d, 0.0, 0.0]
        assert np.array(forward(q)).tobytes() == np.array(want).tobytes()


def test_each_distinct_subtree_is_computed_once():
    expr = dsl.parse_expression("sin(x)*sin(x) + sin(x)/(x*y) + x*y")
    code = dsl.compile_expression(expr, ["x", "y"]).args[0]  # the program's operations
    assert [fn for fn, _, _ in code].count(numdiff.sin) == 1 and len(code) == 8
    source = dsl.compile_forward([expr], ["x", "y"]).source
    assert source.count("sin(") == 1 and len(re.findall(r"= t0 \* t\d+\n", source)) == 1


def test_the_forward_source_computes_each_value_once():
    # sin's auxiliary is cos of the same argument and cos's is sin: the
    # sleigh's table calls each once, and no right-hand side repeats anywhere
    source = _forward(catalog.get_system("chaplygin_sleigh")).source
    assert source.count("sin(") == 1 and source.count("cos(") == 1
    for make in SYSTEMS.values():
        lines = _forward(make()).source.splitlines()
        values = [line.split(" = ", 1)[1] for line in lines if " = " in line]
        assert len(values) == len(set(values))


# each raises at (x, y) = (1, 1) in the dual pass, and most on floats too
ERRORS = {
    "x/(y - 1)": ("division", "division by zero"),
    "log(x - 1)": ("log", "argument must be positive"),
    "x + log(0 - 1)": ("log", "argument must be positive"),  # a constant that cannot fold
    "y*x^log(0 - 1)": ("log", "argument must be positive"),  # ... used as an exponent
    "sqrt(x - 1)": ("sqrt", "derivative unbounded at 0"),
    "(x - 1)^0.5": ("power", "derivative of x^e unbounded at 0 for e < 1"),
    "(x - 2)^1.5": ("power", "negative base with non-integer exponent"),
    "(x - 1)^-2": ("power", "zero base with negative exponent"),
    "(x - 2)^y": ("log", "argument must be positive"),
    "sin(1e300*1e300*x)": ("sin", "argument must be finite"),
    "exp(800*x)": ("exp", "overflow"),
    "log(x - 2) + 1/(y - 1)": ("log", "argument must be positive"),
    "1/(y - 1) + log(x - 2)": ("division", "division by zero"),
    "log(x - 2) + (1/(y - 1) + x)*(1/(y - 1) + x)": ("log", "argument must be positive"),
}


def _outcome(fn, s):
    """The bytes of fn(s), or the primitive and message of its DomainError."""
    try:
        return _bytes(fn(s))
    except DomainError as exc:
        return exc.primitive, str(exc)


@pytest.mark.parametrize("text", sorted(ERRORS))
def test_both_outputs_raise_the_closure_trees_domain_error(text):
    expr = dsl.parse_expression(text)
    names = ["x", "y"]
    fn, ref = dsl.compile_expression(expr, names), closure_expression(expr, names)
    forward = dsl.compile_forward([expr], names)
    q = [1.0, 1.0]
    primitive, message = ERRORS[text]
    with np.errstate(invalid="ignore"):
        for s in _inputs(q, np.array([q, [1.5, 1.5]])):
            assert _outcome(fn, s) == _outcome(ref, s)
    with pytest.raises(DomainError) as exc:
        ref(numdiff.lift(q))
    assert (exc.value.primitive, str(exc.value)) == (primitive, f"domain error in '{primitive}': {message}")
    assert _outcome(forward, q) == (exc.value.primitive, str(exc.value))


def test_a_system_raises_the_closure_error_from_both_outputs():
    # the first error of a table pass: metric, then potential, then rows
    sysd = SYSTEMS["all_primitives"]()
    forward = _forward(sysd)
    for q in ([0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [-1.0, 1.0, 1.0]):
        exprs = [e for table in _tables(sysd)[:3] for e in _flat(table)]
        closures = [closure_expression(e, sysd.coords, sysd.params) for e in exprs]
        with pytest.raises(DomainError) as want:
            [f(numdiff.lift(q)) for f in closures]
        with pytest.raises(DomainError) as got:
            forward(q)
        with pytest.raises(DomainError) as generic:
            [table(numdiff.lift(q)) for table in (sysd.metric_values, sysd.potential_value, sysd.mu_values)]
        assert str(got.value) == str(want.value) == str(generic.value)


def _programs(sysd):
    """A FieldEvaluator's field program and its two accepted-state programs
    (projecting, then not), compiled."""
    ev, q = dynamics.FieldEvaluator(sysd), _points(sysd.n, 32)[0]
    ev.state([*q.tolist(), *[0.0] * sysd.n], True)
    ev.state([*q.tolist(), *[0.0] * sysd.n], False)
    return [ev._field, ev._states[True], ev._states[False]]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_emitted_source_holds_slots_temporaries_helpers_and_numbers_only(name):
    sysd = SYSTEMS[name]()
    exprs = [e for table in _tables(sysd) for e in _flat(table)]
    fns = [_forward(sysd), dsl.compile_forward(exprs, sysd.coords, sysd.params), *_programs(sysd)]
    own = set(sysd.coords) | set(sysd.momenta) | set(sysd.params)
    for fn in fns:
        tree = ast.parse(fn.source)
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant):
                assert type(node.value) in (int, float), fn.source
        assert all(nm == "s" or nm in dsl.HELPERS or re.fullmatch(r"[tdk]\d+", nm) for nm in names)
        words = set(re.findall(r"[A-Za-z_]\w*", fn.source))
        assert not words & own, (name, words & own)


# a pivot test of the field's factorizations, returning 0.0
PIVOT_GUARD = re.compile(r"if not -?[td]\d+ > 0\.0: return 0\.0")
# an accepted-state program's tests, each returning 0.0: a pivot, each entry
# finite, a symmetry bound and the bound on every A_ii (A^-1)_jj
_REF = r"-?(?:[td]\d+|\d[\d.e+-]*)"
_PAIR = rf"(?:{_REF} \* )?{_REF} <= [\d.e+-]+"
STATE_GUARD = re.compile(
    rf"if not ({_REF} > 0\.0|\((?:([tk]\d+) - \2 == 0\.0 and )*([tk]\d+) - \3 == 0\.0\)"
    rf"|-(t\d+) <= t\d+ <= \4|\((?:{_PAIR} and )*{_PAIR}\)): return 0\.0"
)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_the_field_program_is_straight_line_code(name):
    # no loop or comprehension; besides the forward pass's own checks at 0,
    # the only branches are the pivot guards (and in an accepted-state
    # program its checks and screens); each right-hand side once
    sysd = SYSTEMS[name]()
    forward = {line.strip() for line in _forward(sysd).source.splitlines()}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda)
    for program, guard in zip(_programs(sysd), (PIVOT_GUARD, STATE_GUARD, STATE_GUARD)):
        source = program.source
        assert not [node for node in ast.walk(ast.parse(source)) if isinstance(node, loops)]
        lines = [line.strip() for line in source.splitlines()[1:]]
        guards = [line for line in lines if line.startswith("if ") and line not in forward]
        assert all(guard.fullmatch(line) for line in guards), guards
        assert [line for line in lines if line.startswith("return ")] == lines[-1:]
        values = [line.split(" = ", 1)[1] for line in lines if " = " in line]
        assert len(values) == len(set(values))


# a name, not a literal: an argument, a temporary or a bound non-finite constant
_NAME = re.compile(r"(?<![\w.])(?:[tdk]\d+|s\[)")


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_no_statement_or_test_reads_literals_alone(name):
    # the emitter folds such a right-hand side, drops such a test where it
    # passes and returns unconditionally where it fails; this covers the
    # field and state programs and geometry's compiled rule
    sysd = SYSTEMS[name]()
    m = sysd.n_constraints
    sources = [fn.source for fn in _programs(sysd)]
    sources += [geometry._rule(sysd.n, k, stack).source for k in (0, m) for stack in (False, True)]
    for source in sources:
        for line in (line.strip() for line in source.splitlines()[1:]):
            if line.startswith("if not "):  # a test
                read = line[len("if not "):].split(": return")[0]
            elif " = " in line and not line.startswith("if "):  # a right-hand side
                read = line.split(" = ", 1)[1]
            else:  # a return, or a check at 0 of the forward pass
                continue
            assert _NAME.search(read), (name, line)


SHADOWS = """\
[system]
name = shadows
dim = 3
coords = s, t0, lift

[params]
k0 = 1e999
d3 = 2

[metric]
row1 = d3 + s^2, 0, 0
row2 = 0, 1 + exp(-t0), 0
row3 = 0, 0, 3 + sin(lift)

[potential]
V = s*t0/lift + k0*0 + d3

[constraint]
form = 1, s, -t0
"""
RENAMED = {"s": "x", "t0": "y", "lift": "z", "k0": "a", "d3": "b"}


def test_emitted_source_does_not_depend_on_the_identifiers():
    # identifiers that spell the argument, temporaries, bound constants and
    # helpers give the source that plain ones give, and the same values
    sysd = dsl.parse_system(SHADOWS)
    plain = dsl.parse_system(re.sub(r"\b(s|t0|lift|k0|d3)\b", lambda m: RENAMED[m[1]], SHADOWS))
    assert plain.coords == ("x", "y", "z") and set(plain.params) == {"a", "b"}

    def program(fn):  # operations, the constants' bits and the result registers
        code, consts, out = fn.args
        return code, np.array(consts).tobytes(), out

    for attr in ("metric_values", "potential_value", "mu_values"):
        assert program(getattr(sysd, attr)) == program(getattr(plain, attr))
    assert _forward(sysd).source == _forward(plain).source
    assert [fn.source for fn in _programs(sysd)] == [fn.source for fn in _programs(plain)]
    q = [0.3, 0.7, 1.1]
    ref = closure_expression(sysd.potential_expr, sysd.coords, sysd.params)
    for s in _inputs(q, _points(3, 29)[:4]):
        assert _bytes(sysd.potential_value(s)) == _bytes(ref(s))
