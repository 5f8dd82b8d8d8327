"""Scalar-expression language and the system-definition file format.

Grammar (recursive descent, one token of lookahead)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?          # right-associative
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Power binds tighter than unary minus, so ``-q1^2`` is -(q1^2). The function
set is closed and matches the differentiation engine exactly. Numbers are
doubles; implicit multiplication is rejected.

A parsed tree is evaluated only through the straight-line programs that one
emitter makes from a table of trees (``_Emitter``), each distinct subtree
once: ``compile_expression``, a list of generic operations over any scalar
type, for the tables, observables and symmetry probe, and
``compile_forward``, Python source of numdiff's float forward mode, which
``dynamics.FieldEvaluator`` runs followed by its whole field. That source
is built only from slot indices, temporaries, float reprs and the names in
``HELPERS``: never from the text of a system file. ``sum_source`` writes
one left-to-right sum of products, and ``rule_ops`` the operations of
``geometry.ldl``, the validity rule, as such source. A right-hand side or
test over literals alone is evaluated as Python would as it is emitted
(``fold``), so none reaches the source.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from types import SimpleNamespace

from . import numdiff
from .errors import (
    DomainError,
    ExpressionSyntaxError,
    StructuralError,
    UnknownFunctionError,
    UnknownIdentifierError,
)

_MAX_DEPTH = 400  # of nesting and of tree height: a syntax error, not a RecursionError


# --- expression trees -------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Num | Var | Neg | Bin | Call


# --- tokenizer ---------------------------------------------------------------

_T_NUM, _T_IDENT, _T_OP, _T_LP, _T_RP, _T_EOF = range(6)
_OPS = "+-*/^"
_DIGITS = "0123456789"  # ASCII only; unicode "digits" are not numbers here


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _OPS:
            toks.append((_T_OP, ch, i))
            i += 1
        elif ch == "(":
            toks.append((_T_LP, ch, i))
            i += 1
        elif ch == ")":
            toks.append((_T_RP, ch, i))
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j] in _DIGITS:
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    j = k
                    while j < n and text[j] in _DIGITS:
                        j += 1
            toks.append((_T_NUM, text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append((_T_IDENT, text[i:j], i))
            i = j
        else:
            raise ExpressionSyntaxError(
                i, ("number", "identifier", "operator", "'('"), found=ch
            )
    toks.append((_T_EOF, "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.height = 0  # of the tree last parsed: a chain is as tall as it is long

    def _peek(self):
        return self.toks[self.pos]

    def _next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def _fail(self, expected):
        kind, text, off = self._peek()
        found = text if kind != _T_EOF else "end of input"
        raise ExpressionSyntaxError(off, expected, found=found)

    def _enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self._too_deep()

    def _too_deep(self):
        found = "expression nested too deeply"
        raise ExpressionSyntaxError(self._peek()[2], ("shallower nesting",), found=found)

    def _over(self, left=0):
        """The height of a node over the tree last parsed and one left of it."""
        self.height = 1 + max(left, self.height)
        if self.height > _MAX_DEPTH:
            self._too_deep()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self._peek()
        if kind != _T_EOF:
            self._fail(("operator", "end of input"))
        return e

    def expr(self) -> Expr:
        return self._chain("+-", self.term)

    def term(self) -> Expr:
        return self._chain("*/", self.factor)

    def _chain(self, ops, operand):
        """operand (op operand)* for op in ops, as a left-deep tree."""
        self._enter()
        e = operand()
        while (tok := self._peek())[0] == _T_OP and tok[1] in ops:
            left = self.height
            e = Bin(self._next()[1], e, operand())
            self._over(left)
        self.depth -= 1
        return e

    def factor(self) -> Expr:
        self._enter()
        kind, text, _ = self._peek()
        if kind == _T_OP and text == "-":
            self._next()
            out = Neg(self.factor())
            self._over()
        else:
            out = self.power()
        self.depth -= 1
        return out

    def power(self) -> Expr:
        self._enter()
        base = self.atom()
        kind, text, _ = self._peek()
        if kind == _T_OP and text == "^":
            self._next()
            left = self.height
            base = Bin("^", base, self.factor())
            self._over(left)
        self.depth -= 1
        return base

    def atom(self) -> Expr:
        kind, text, off = self._peek()
        self.height = 0  # of a number or a name
        if kind == _T_NUM:
            self._next()
            return Num(float(text))
        if kind == _T_IDENT:
            self._next()
            nkind, _, _ = self._peek()
            if nkind == _T_LP:
                if text not in numdiff.FUNCTIONS:
                    raise UnknownFunctionError(text, off)
                self._next()
                arg = self.expr()
                ckind, _, _ = self._peek()
                if ckind != _T_RP:
                    self._fail(("')'",))
                self._next()
                self._over()
                return Call(text, arg)
            return Var(text)
        if kind == _T_LP:
            self._next()
            e = self.expr()
            ckind, _, _ = self._peek()
            if ckind != _T_RP:
                self._fail(("')'",))
            self._next()
            return e
        self._fail(("number", "identifier", "'('"))


def parse_expression(text: str) -> Expr:
    return _Parser(text).parse()


# --- compilation -------------------------------------------------------------


def expression_names(expr: Expr) -> set[str]:
    out: set[str] = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            out.add(e.name)
        elif isinstance(e, Neg):
            stack.append(e.arg)
        elif isinstance(e, Bin):
            stack.append(e.left)
            stack.append(e.right)
        elif isinstance(e, Call):
            stack.append(e.arg)
    return out


def validate_identifiers(expr: Expr, allowed):
    for name in sorted(expression_names(expr)):
        if name not in allowed:
            raise UnknownIdentifierError(name)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": numdiff.divide,
         "^": numdiff.power, "neg": operator.neg, **numdiff.FUNCTIONS}
# each operation's value in the emitted source: the generic call, which on
# floats is numdiff's float rule
_GENERIC = {"+": "{x} + {y}", "-": "{x} - {y}", "*": "{x} * {y}", "/": "divide({x}, {y})",
            "^": "power({x}, {y})", "neg": "-{x}", "slot": "s[{x}]",
            **{fn: fn + "({x})" for fn in numdiff.FUNCTIONS}}
# numdiff's level-1 float-core partials by operation and by which operands are
# duals (d) or floats (c), from the operand values x, y, their partials a, b,
# the value v and an auxiliary u (_AUX, written after v); an operation missing
# here shares its dual operand's partials
_PARTIAL = {
    "neg d": "-{a}", "+ dd": "{a} + {b}", "- dd": "{a} - {b}", "- cd": "-{b}",
    "* dd": "{a} * {y} + {x} * {b}", "* dc": "{a} * {y}", "* cd": "{b} * {x}",
    "/ dd": "({a} - {v} * {b}) / {y}", "/ dc": "{a} / {y}", "/ cd": "-({v} * {b}) / {y}",
    "^ dc": "{u} * {a}", "sin d": "{u} * {a}", "cos d": "-({u} * {a})", "tan d": "{u} * {a}",
    "exp d": "{v} * {a}", "log d": "{a} / {x}", "sqrt d": "{u} * {a}",
}
_AUX = {"^": "power({x}, {y} - 1.0) * {y}", "sin": "cos({x})", "cos": "sin({x})",
        "tan": "1.0 + {v} * {v}", "sqrt": "0.5 / {v}"}
# the free names of an emitted source besides its argument s, its temporaries
# t<i> and d<i>, and the names k<i> of folded constants with no literal
HELPERS = {"divide": numdiff.divide, "power": numdiff.power, "lift": numdiff.lift, "abs": abs, "max": max}
HELPERS.update(numdiff.FUNCTIONS)


class _Emitter:
    """One walk over frozen expression trees that makes a straight-line
    program of a scalar sequence s. Each distinct subtree is one operation,
    placed where a recursive evaluation (left operand first) first reaches
    it, so the first error raised is the same. A subtree over constants
    alone is folded with the float primitives; one whose fold raises
    DomainError stays an operation that raises there, and nothing follows
    it. With a ``width`` the program is Python source: statements of
    numdiff's level-1 float-core formulas for each value and its partials
    over the width inputs (source transformation: Griewank & Walther,
    *Evaluating Derivatives*, 2nd ed., 2008, ch. 6). Otherwise it is a list
    of generic operations, over any scalar type, that ``_run`` performs."""

    def __init__(self, names, constants, width=0):
        self.index = {nm: i for i, nm in enumerate(names)}
        self.constants, self.width = constants or {}, width
        self.env = dict(HELPERS) if width else {}  # the source's global names
        self.bound, self.folded, self.memo, self.grads = {}, {}, {}, {}
        self.nodes, self.lines, self.texts, self.dead = {}, [], {}, False

    def walk(self, e):
        """The reference of e's value: a temporary or a folded constant."""
        if isinstance(e, Num):
            return self.const(e.value)
        if isinstance(e, Bin):
            op, args = e.op, (self.walk(e.left), self.walk(e.right))
        elif isinstance(e, (Neg, Call)):
            op, args = "neg" if isinstance(e, Neg) else e.fn, (self.walk(e.arg),)
        elif e.name in self.index:
            return self.step("slot", self.index[e.name])
        elif e.name in self.constants:
            return self.const(float(self.constants[e.name]))
        else:
            raise UnknownIdentifierError(e.name)
        if args[0] in self.folded and args[-1] in self.folded:
            try:
                return self.const(_OPS[op](*map(self.folded.get, args)))
            except DomainError:  # it raises there at evaluation
                ref, self.dead = self.step(op, *args), True
                return ref
        return self.step(op, *args)

    def const(self, v):
        """A folded constant's source: its repr, or a name bound to inf or nan."""
        ref = repr(v)
        if not math.isfinite(v):
            ref = self.bound.setdefault((ref, math.copysign(1.0, v)), f"k{len(self.bound)}")
            self.env.setdefault(ref, v)
        self.folded.setdefault(ref, v)
        return ref

    def step(self, op, *args):
        """The value of op(args), made once (none once dead): a temporary of
        the source, or a node of the program."""
        key = (op, *args)
        if key not in self.memo and not self.dead:
            if self.width:
                self.memo[key] = self.forward(op, *args)
            else:
                self.memo[key] = ref = f"t{len(self.nodes)}"
                self.nodes[ref] = (op, args)
        return self.memo.get(key, "")

    def new(self, src, prefix="t"):
        """The temporary of src, made once (sin's auxiliary is cos's value), or src's ``fold``."""
        if src not in self.texts:
            v = fold(src)
            self.texts[src] = f"{prefix}{len(self.lines)}" if v is None else self.const(v)
            if v is None:
                self.lines.append(f"{self.texts[src]} = {src}")
        return self.texts[src]

    def forward(self, op, x, y=None):
        """One operation on float and level-1 dual operands as numdiff
        computes it: the value, every domain check, then each partial."""
        a, b = self.grads.get(x), self.grads.get(y)
        kind = ("d" if a else "c") + ("" if y is None else "d" if b else "c")
        if "d" not in kind:  # floats, or an input and its seeds
            v = self.new(_GENERIC[op].format(x=x, y=y))
            if op == "slot":
                self.grads[v] = ["1.0" if i == x else "0.0" for i in range(self.width)]
            return v
        if op == "^" and b:  # exp(y log x), valued by the float power
            d = self.step("exp", self.step("*", y, self.step("log", x)))
            self.grads[v := self.new(f"power({x}, {y})")] = self.grads[d]
            return v
        e = float(self.folded[y]) if op == "^" else None
        if e in (0.0, 1.0):  # numdiff gives the constant 1.0, or the base
            return self.const(1.0) if e == 0.0 else x
        swap = kind == "cd" and op in "+*"  # the dual operand's own method
        v = self.new(_GENERIC[op].format(x=y, y=x) if swap else _GENERIC[op].format(x=x, y=y))
        if op == "sqrt" or e is not None and 0.0 < e < 1.0:  # the dual's own check at 0
            self.lines.append(f"if {x} == 0.0: " + _GENERIC[op].format(x=f"lift([{x}])[0]", y=y))
        u = self.new(_AUX[op].format(x=x, y=y, v=v)) if op in _AUX else None
        partial = _PARTIAL.get(f"{op} {kind}")
        self.grads[v] = a or b
        if partial is not None:
            pairs = zip(a or b, b or a)
            self.grads[v] = [self.new(partial.format(a=p, b=r, x=x, y=y, v=v, u=u), "d") for p, r in pairs]
        return v


def compile_expression(table, names, constants=None):
    """A table's straight-line program, as one function of a scalar sequence
    s over any scalar type (floats, duals, array cores): ``names[i]`` binds
    to s[i], ``constants`` fold in. ``table`` is one tree, whose value the
    function returns, or a tuple of trees or of rows of trees, whose values
    it returns as a list or a list of lists."""
    em = _Emitter(names, constants)

    def walk(t):
        return [walk(u) for u in t] if isinstance(t, (tuple, list)) else em.walk(t)

    refs = walk(table)
    reg = {ref: i for i, ref in enumerate([*em.folded, *em.nodes])}  # constants, then nodes
    code = [(_OPS.get(op), reg.get(args[0], args[0]), reg[args[1]] if len(args) > 1 else None)
            for op, args in em.nodes.values()]  # a slot's operand is its index in s

    def index(r):
        return [index(u) for u in r] if isinstance(r, list) else reg.get(r, -1)

    return functools.partial(_run, code, list(em.folded.values()), index(refs))


def _run(code, consts, out, s):
    """Run a program over the scalars s: each instruction appends its value,
    a slot of s or an operation on earlier values, to the constants."""
    r = consts.copy()
    append = r.append
    for fn, a, b in code:
        if fn is None:
            append(s[a])
        elif b is None:
            append(fn(r[a]))
        else:
            append(fn(r[a], r[b]))
    if type(out) is int:
        return r[out]
    return [r[o] if type(o) is int else [r[i] for i in o] for o in out]


def compile_forward(exprs, names, constants=None, then=None):
    """numdiff's level-1 forward mode over a lift of the float scalars s as
    one straight-line function, returning one flat tuple: the values of the
    trees ``exprs``, then their partials entry by entry (0.0 for a constant),
    bitwise those of the generic function over ``numdiff.lift(s)``. With
    ``then(new, put, values, partials)``, it returns the references that
    ``then`` returns after the statements it writes: ``new(src)`` is the
    temporary of a right-hand side (made once), ``put(line)`` a statement."""
    em = _Emitter(names, constants, len(names))
    refs = [em.walk(e) for e in exprs]
    grads = [em.grads.get(r, ["0.0"] * len(names)) for r in refs]
    if then is None or em.dead:
        flat = refs + [p for g in grads for p in g]
    else:
        flat = then(em.new, em.lines.append, refs, grads)
    body = em.lines + ([] if em.dead else ["return (" + "".join(f"{p}, " for p in flat) + ")"])
    src = "def table(s):\n" + "".join(f"    {line}\n" for line in body)  # no return after a raise
    exec(compile(src, "<dsl>", "exec"), em.env)
    em.env["table"].source = src
    return em.env["table"]


ZEROS = ("0.0", "-0.0")


def fold(src):
    """The value of src where it reads float literals, + - * / and unary minus
    alone, as Python evaluates it; else None, also where it divides by 0.0."""
    return None if src.strip("-+*/ .0123456789e") else _literal_value(src)


@functools.lru_cache(maxsize=1024)
def _literal_value(src):  # the grammar's precedence is Python's here, and walk folds with float primitives
    em = _Emitter((), None)
    return em.folded.get(em.walk(parse_expression(src)))


def sum_source(new, head, plus=(), minus=()):
    """The reference of head + the products of the pairs ``plus`` - those
    of ``minus``, left to right; a product with a zero literal is left out
    (0 * x is 0, or NaN for x inf) and a factor 1.0 elided."""
    if not plus and not minus and " " not in head:
        return "0.0" if head in ZEROS else head
    src = "" if head in ZEROS else " + " + head
    for sign, pairs in ((" + ", plus), (" - ", minus)):
        for a, b in pairs:
            if a not in ZEROS and b not in ZEROS:
                src += sign + (b if a == "1.0" else a if b == "1.0" else a + " * " + b)
    src = "0.0" if not src else src[3:] if src[1] == "+" else "-" + src[3:]
    return new(src) if " " in src else src


def rule_ops(new, put, fails=("0.0", "0.0"), masks=None):
    """``geometry.ldl``'s operations as source, each sum one line: a pivot
    that is not > 0 (NaN too) returns ``fails[0]`` before anything divides
    by it, a failed bound ``fails[1]``; a test over literals alone is dropped
    where it passes and returns unconditionally where it fails (``fold``).
    With ``masks`` (a dict) the tests run over (B,) arrays of entries that
    are never literals: each failed test's mask joins ``masks[code]``."""

    def check(xs, passes, tests, code):  # an x over literals alone is decided here, by passes
        live = []
        for x in xs:
            if (v := fold(x)) is None:
                live.append(x)
            elif not passes(v):
                return put(f"return {code}")
        if live and masks is None:
            put(f"if not {tests(live)}: return {code}")
        elif live:
            masks.setdefault(code, []).append(new(f"~({tests(live).replace(' and ', ') & (')})"))

    def within(diag, ts, bound):
        xs = dict.fromkeys(t if a == "1.0" else a if t == "1.0" else f"{a} * {t}" for t in ts for a in diag)
        check(xs, lambda v: v <= bound, lambda xs: f"({' and '.join(f'{x} <= {bound!r}' for x in xs)})", fails[1])

    return SimpleNamespace(
        minus=lambda head, pairs: sum_source(new, head, minus=pairs), plus=lambda pairs: sum_source(new, "0.0", pairs),
        over=lambda a, d: "0.0" if a in ZEROS else a if d == "1.0" else new(f"{a} / {d}"),
        const=lambda v: repr(float(v)), within=within,
        pivot=lambda d: check([d], lambda v: v > 0.0, lambda xs: f"{xs[0]} > 0.0", fails[0]),
    )


# --- pretty printer ----------------------------------------------------------

_PREC_SUM, _PREC_TERM, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(e: Expr) -> int:
    if isinstance(e, (Num, Var, Call)):
        return _PREC_ATOM
    if isinstance(e, Neg):
        return _PREC_UNARY
    if e.op in "+-":
        return _PREC_SUM
    if e.op in "*/":
        return _PREC_TERM
    return _PREC_POW


def format_expression(e: Expr) -> str:
    """Unparse with minimal parentheses; the result reparses to an equal tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({format_expression(e.arg)})"
    if isinstance(e, Neg):
        inner = format_expression(e.arg)
        if _prec(e.arg) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    lhs, rhs = format_expression(e.left), format_expression(e.right)
    if e.op in "+-":
        if _prec(e.right) <= _PREC_SUM:
            rhs = f"({rhs})"
        return f"{lhs} {e.op} {rhs}"
    if e.op in "*/":
        if _prec(e.left) < _PREC_TERM:
            lhs = f"({lhs})"
        if _prec(e.right) <= _PREC_TERM:
            rhs = f"({rhs})"
        return f"{lhs}{e.op}{rhs}"
    # power: right-associative, left operand must be atomic
    if _prec(e.left) < _PREC_ATOM:
        lhs = f"({lhs})"
    if _prec(e.right) < _PREC_UNARY:
        rhs = f"({rhs})"
    return f"{lhs}^{rhs}"


# --- system-definition files -------------------------------------------------


@dataclass
class SystemFile:
    """Raw sectioned content of a system file, before semantic validation."""

    system: dict
    params: list  # (name, text) pairs in file order
    metric_rows: dict  # row index (1-based) -> list of cell texts
    potential: str | None
    constraint_rows: list  # list of lists of cell texts
    frame_cols: dict  # col index (1-based) -> list of cell texts


def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def read_system_sections(text: str) -> SystemFile:
    sf = SystemFile({}, [], {}, None, [], {})
    section = None
    constraint_current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("system", "params", "metric", "potential", "constraint", "frame"):
                raise StructuralError(f"line {lineno}: unknown section [{section}]")
            if section == "constraint":
                constraint_current = {}
                sf.constraint_rows.append(constraint_current)
            continue
        if section is None:
            raise StructuralError(f"line {lineno}: content before any section header")
        if "=" not in line:
            raise StructuralError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise StructuralError(f"line {lineno}: empty key")
        if section == "system":
            if key not in ("name", "dim", "coords"):
                raise StructuralError(f"line {lineno}: unknown [system] key '{key}'")
            if key in sf.system:
                raise StructuralError(f"line {lineno}: duplicate [system] key '{key}'")
            sf.system[key] = value
        elif section == "params":
            sf.params.append((key, value))
        elif section in ("metric", "frame"):
            prefix, var = ("row", "i") if section == "metric" else ("col", "a")
            table = sf.metric_rows if section == "metric" else sf.frame_cols
            if not key.startswith(prefix):
                raise StructuralError(f"line {lineno}: [{section}] keys must be {prefix}<{var}>")
            try:
                idx = int(key[3:])
            except ValueError:
                bad = f"line {lineno}: bad {section} {prefix} key '{key}'"
                raise StructuralError(bad) from None
            if idx in table:
                raise StructuralError(f"line {lineno}: duplicate {section} {prefix}{idx}")
            table[idx] = [c.strip() for c in value.split(",")]
        elif section == "potential":
            if key != "V":
                raise StructuralError(f"line {lineno}: [potential] key must be V")
            if sf.potential is not None:
                raise StructuralError(f"line {lineno}: duplicate potential")
            sf.potential = value
        else:  # constraint
            if key != "form":
                raise StructuralError(f"line {lineno}: [constraint] key must be form")
            if "form" in constraint_current:
                raise StructuralError(f"line {lineno}: duplicate form in constraint section")
            constraint_current["form"] = [c.strip() for c in value.split(",")]
    return sf


def _check_ident(name: str, what: str):
    if not name or not (name[0].isalpha()):
        raise StructuralError(f"{what} '{name}' is not a valid identifier")
    for ch in name[1:]:
        if not (ch.isalnum() or ch == "_"):
            raise StructuralError(f"{what} '{name}' is not a valid identifier")
    if name in numdiff.FUNCTIONS:
        raise StructuralError(f"{what} '{name}' collides with a builtin function name")


def _parse_cell(text: str, where: str, allowed) -> Expr:
    """One expression cell of a system file, over the identifiers allowed."""
    if not text:
        raise StructuralError(f"{where}: empty expression")
    try:
        e = parse_expression(text)
        validate_identifiers(e, allowed)
    except (ExpressionSyntaxError, UnknownFunctionError, UnknownIdentifierError) as exc:
        raise StructuralError(f"{where}: {exc}") from exc
    return e


def _parse_number(text: str, where: str) -> float:
    try:
        e = parse_expression(text)
    except (ExpressionSyntaxError, UnknownFunctionError) as exc:
        raise StructuralError(f"{where}: {exc}") from exc
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg) and isinstance(e.arg, Num):
        return -e.arg.value
    raise StructuralError(f"{where}: expected a number literal")


def parse_system(text: str):
    """Parse and validate a system-definition file into a SystemDefinition."""
    from .system import SystemDefinition

    sf = read_system_sections(text)
    for key in ("name", "dim", "coords"):
        if key not in sf.system:
            raise StructuralError(f"[system] is missing '{key}'")
    name = sf.system["name"]
    _check_ident(name, "system name")
    try:
        dim = int(sf.system["dim"])
    except ValueError:
        raise StructuralError("[system] dim must be an integer") from None
    coords = tuple(c.strip() for c in sf.system["coords"].split(","))
    if len(coords) != dim:
        raise StructuralError(f"expected {dim} coordinate names, got {len(coords)}")
    for c in coords:
        _check_ident(c, "coordinate")
    if len(set(coords)) != dim:
        raise StructuralError("coordinate names must be distinct")
    momenta = tuple("p_" + c for c in coords)
    reserved = set(coords) | set(momenta)

    params: dict[str, float] = {}
    for key, value in sf.params:
        _check_ident(key, "parameter")
        if key in reserved:
            raise StructuralError(
                f"parameter '{key}' shadows a coordinate or momentum name"
            )
        if key in params:
            raise StructuralError(f"duplicate parameter '{key}'")
        params[key] = _parse_number(value, f"[params] {key}")
    for c in coords:
        if c in momenta:
            raise StructuralError(f"coordinate '{c}' collides with a momentum name")

    allowed = set(coords) | set(params)

    def parse_cells(cells, head, across):
        """The dim cells of one metric row, constraint row or frame column."""
        if len(cells) != dim:
            raise StructuralError(f"{head} must have {dim} entries")
        return tuple(
            _parse_cell(cell, f"{head} {across} {j}", allowed)
            for j, cell in enumerate(cells, start=1)
        )

    if sorted(sf.metric_rows) != list(range(1, dim + 1)):
        raise StructuralError(f"[metric] must define rows row1..row{dim}")
    metric = tuple(
        parse_cells(sf.metric_rows[i], f"[metric] row{i}", "column") for i in range(1, dim + 1)
    )

    if sf.potential is None:
        raise StructuralError("[potential] section with V = <expr> is required")
    pot = _parse_cell(sf.potential, "[potential] V", allowed)

    m = len(sf.constraint_rows)
    if not 1 <= m <= dim - 1:
        raise StructuralError(
            f"constraint count must lie in [1, {dim - 1}], got {m}"
        )
    constraints = []
    for r, block in enumerate(sf.constraint_rows, start=1):
        if "form" not in block:
            raise StructuralError(f"[constraint] section {r} is missing 'form'")
        constraints.append(parse_cells(block["form"], f"[constraint] row {r}", "column"))

    k = dim - m
    frame = None
    if sf.frame_cols:
        if sorted(sf.frame_cols) != list(range(1, k + 1)):
            raise StructuralError(f"[frame] must define columns col1..col{k}")
        frame = tuple(
            parse_cells(sf.frame_cols[a], f"[frame] col{a}", "row") for a in range(1, k + 1)
        )

    sysdef = SystemDefinition(
        name=name,
        coords=coords,
        params=params,
        metric_exprs=metric,
        potential_expr=pot,
        constraint_exprs=tuple(constraints),
        frame_exprs=frame,
        source=text,
    )
    _validate_metric_symmetry(sysdef)
    return sysdef


def _validate_metric_symmetry(sysdef):
    """Accept metrics symmetric as written, else check numerically at probes."""
    n = sysdef.n
    exprs = sysdef.metric_exprs
    pending = []
    for i in range(n):
        for j in range(i + 1, n):
            a = format_expression(exprs[i][j]).replace(" ", "")
            b = format_expression(exprs[j][i]).replace(" ", "")
            if a != b:
                pending.append((i, j))
    if not pending:
        return
    from .rng import SplitMix64

    rng = SplitMix64(0x6D6574726963)
    probes = []
    for _ in range(8):
        probes.append([rng.uniform(-1.0, 1.0) for _ in range(n)])
    pairs = [(exprs[i][j], exprs[j][i]) for i, j in pending]
    fns = [compile_expression(pair, sysdef.coords, sysdef.params) for pair in pairs]
    checked = 0
    for q in probes:
        try:
            for (i, j), fn in zip(pending, fns):
                va, vb = fn(q)
                if abs(va - vb) > 1e-10 * max(1.0, abs(va), abs(vb)):
                    raise StructuralError(
                        f"[metric] entry ({i + 1},{j + 1}) differs from ({j + 1},{i + 1}) "
                        f"at probe point (|{va!r} - {vb!r}|)"
                    )
        except DomainError:
            continue
        checked += 1
    if checked == 0:
        raise StructuralError(
            "[metric] symmetry could not be validated: all probe points hit domain errors"
        )
