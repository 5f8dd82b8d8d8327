import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import dsl, numdiff
from nonholo.errors import (
    DomainError,
    ExpressionSyntaxError,
    StructuralError,
    UnknownFunctionError,
    UnknownIdentifierError,
)
from nonholo.rng import SplitMix64


def ev(text, **env):
    return dsl.compile_expression(dsl.parse_expression(text), list(env))(list(env.values()))


def test_arithmetic_and_precedence():
    assert ev("2*3+4") == 10.0
    assert ev("2+3*4") == 14.0
    assert ev("2^3^2") == 512.0  # right-associative
    assert ev("-q1^2", q1=3.0) == -9.0
    assert ev("(-q1)^2", q1=3.0) == 9.0
    assert ev("2*-3") == -6.0
    assert ev("6/3/2") == 1.0
    assert ev("1 - 2 - 3") == -4.0


def test_trig_identity():
    assert ev("sin(q1)^2 + cos(q1)^2", q1=0.7) == pytest.approx(1.0, abs=1e-15)


def test_syntax_error_offsets():
    with pytest.raises(ExpressionSyntaxError) as exc:
        dsl.parse_expression("1 +")
    assert exc.value.offset == 3
    with pytest.raises(ExpressionSyntaxError) as exc:
        dsl.parse_expression("(1+2")
    assert exc.value.offset == 4
    with pytest.raises(ExpressionSyntaxError) as exc:
        dsl.parse_expression("1 $ 2")
    assert exc.value.offset == 2


def test_unknown_function_and_unbound_identifier():
    with pytest.raises(UnknownFunctionError):
        dsl.parse_expression("sinh(q1)")
    with pytest.raises(UnknownIdentifierError):
        ev("q1 + q2", q1=1.0)


def test_momenta_bind_in_observable_env():
    assert ev("q1 + p_q1", q1=1.0, p_q1=2.0) == 3.0


def test_log_domain_error_names_primitive():
    with pytest.raises(DomainError) as exc:
        ev("log(q1)", q1=-1.0)
    assert exc.value.primitive == "log"


def test_constant_folding_matches_the_written_out_values():
    def compiled(text):
        return dsl.compile_expression(dsl.parse_expression(text), ["x"], {"a": 1.5})

    for folded, written in [("2^3^2*x", "512*x"), ("a*2*x", "1.5*2*x"), ("a*2*x", "3*x")]:
        for x in (0.7, -2.5):
            assert compiled(folded)([x]) == compiled(written)([x])
    d = numdiff.lift([0.7])[0]
    assert compiled("2^3^2*x")([d]).partials == (512.0,)


@pytest.mark.parametrize("terms", [100, 300])
def test_compiling_walks_the_tree_once(count_calls, terms):
    # the constancy of each subtree comes back with its closure; no subtree
    # is walked again for its names
    text = "+".join(f"x*{i}" for i in range(terms))
    counts = count_calls(dsl, ["expression_names"])
    fn = dsl.compile_expression(dsl.parse_expression(text), ["x"], {"a": 1.5})
    assert counts["expression_names"] <= 1
    assert fn([2.0]) == float(sum(2 * i for i in range(terms)))


def test_constant_domain_error_surfaces_at_evaluation():
    fn = dsl.compile_expression(dsl.parse_expression("x + log(0 - 1)"), ["x"])
    with pytest.raises(DomainError) as exc:
        fn([1.0])
    assert exc.value.primitive == "log"


def test_implicit_multiplication_rejected():
    with pytest.raises(ExpressionSyntaxError):
        dsl.parse_expression("2 q1")


def test_real_dual_agreement():
    exprs = ["sin(a)*b + exp(a/2)", "a^3 - b^2/(1+a^2)", "sqrt(4+a*a)*cos(b)"]
    for text in exprs:
        fn = dsl.compile_expression(dsl.parse_expression(text), ["a", "b"])
        for a, b in [(0.3, -1.2), (1.7, 0.4)]:
            real = fn([a, b])
            dual = fn(numdiff.lift([a, b]))
            assert real == pytest.approx(dual.value, abs=1e-14)


CORPUS = [
    "1+2*3", "-q1^2", "a - b - c", "a - (b - c)", "a/(b*c)", "(a+b)/c",
    "2^-3", "x^2^3", "(x^2)^3", "-(a+b)", "sin(x)^2+cos(x)^2",
    "m*a*sin(th)", "J + m*a^2", "-sin(th)", "1e-3 + 2.5E+2", "x*p_x",
]


@pytest.mark.parametrize("text", CORPUS)
def test_round_trip_corpus(text):
    tree = dsl.parse_expression(text)
    printed = dsl.format_expression(tree)
    assert dsl.parse_expression(printed) == tree


_leaf = st.one_of(
    st.floats(0, 100, allow_nan=False).map(lambda v: dsl.Num(float(v))),
    st.sampled_from(["x", "y", "p_x", "th"]).map(dsl.Var),
)


def _tree(children):
    return st.one_of(
        children.map(dsl.Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: dsl.Bin(*t)
        ),
        st.tuples(st.sampled_from(dsl.FUNCTION_NAMES), children).map(
            lambda t: dsl.Call(*t)
        ),
    )


@given(st.recursive(_leaf, _tree, max_leaves=20))
@settings(max_examples=150, deadline=None)
def test_round_trip_generated_trees(tree):
    printed = dsl.format_expression(tree)
    assert dsl.parse_expression(printed) == tree


def test_parser_totality_smoke():
    rng = SplitMix64(20240817)
    for _ in range(2000):
        length = rng.next_u64() % 40
        text = "".join(chr(32 + rng.next_u64() % 95) for _ in range(length))
        try:
            dsl.parse_expression(text)
        except (ExpressionSyntaxError, UnknownFunctionError):
            pass


def test_deep_nesting_is_structured_error():
    with pytest.raises(ExpressionSyntaxError):
        dsl.parse_expression("(" * 5000 + "1" + ")" * 5000)


# --- system files -------------------------------------------------------------

GOOD = """\
[system]
name = demo
dim = 2
coords = x, y

[params]
c = 0.5

[metric]
row1 = 1+x^2, 0
row2 = 0, 1

[potential]
V = c*x

[constraint]
form = 0, 1
"""


def test_parse_system_good():
    sysd = dsl.parse_system(GOOD)
    assert sysd.name == "demo" and sysd.n == 2 and sysd.k == 1
    assert sysd.params == {"c": 0.5}
    assert sysd.metric_values([1.0, 0.0])[0][0] == 2.0


def test_parse_system_catalog_golden():
    from nonholo import catalog

    sysd = catalog.get_system("nonholonomic_particle")
    assert sysd.n == 3 and sysd.k == 2
    assert [dsl.format_expression(e) for e in sysd.constraint_exprs[0]] == ["y", "0.0", "-1.0"]


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda t: t.replace("form = 0, 1", "form = 0, 1\n\n[constraint]\nform = 1, 0"), "constraint count"),
        (lambda t: t.replace("row1 = 1+x^2, 0", "row1 = 1+x^2, 1"), "differs"),
        (lambda t: t.replace("row2 = 0, 1", "row2 = 0, 1, 2"), "entries"),
        (lambda t: t.replace("c = 0.5", "x = 0.5"), "shadows"),
        (lambda t: t.replace("dim = 2", "dim = 3"), "coordinate names"),
        (lambda t: t.replace("V = c*x", "V = c*q"), "unknown identifier"),
        (lambda t: t.replace("[potential]\nV = c*x\n", ""), "potential"),
    ],
)
def test_parse_system_structural_errors(mutate, needle):
    with pytest.raises(StructuralError) as exc:
        dsl.parse_system(mutate(GOOD))
    assert needle in str(exc.value)


def test_frame_section_arity():
    text = GOOD + "\n[frame]\ncol1 = 1, 0\n"
    sysd = dsl.parse_system(text)
    assert sysd.frame_exprs is not None
    bad = GOOD + "\n[frame]\ncol1 = 1, 0\ncol2 = 0, 1\n"
    with pytest.raises(StructuralError):
        dsl.parse_system(bad)


def test_comments_and_momentum_names_rejected_in_sections():
    text = GOOD.replace("V = c*x", "V = c*x  # potential comment")
    assert dsl.parse_system(text).name == "demo"
    bad = GOOD.replace("V = c*x", "V = p_x")
    with pytest.raises(StructuralError):
        dsl.parse_system(bad)


def test_metric_symmetric_numerically_but_not_textually():
    text = GOOD.replace("row1 = 1+x^2, 0", "row1 = 1+x^2, x*y/4").replace(
        "row2 = 0, 1", "row2 = y*x/4, 1"
    )
    sysd = dsl.parse_system(text)
    g = sysd.metric_values([0.5, 0.5])
    assert g[0][1] == g[1][0]
