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

A parsed tree is evaluated only through ``compile_expression``: one
positional closure per tree, the same over floats and dual scalars. Constant
folding and the metric-symmetry probe call these closures too.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import numdiff
from .errors import (
    DomainError,
    ExpressionSyntaxError,
    StructuralError,
    UnknownFunctionError,
    UnknownIdentifierError,
)

FUNCTION_NAMES = tuple(sorted(numdiff.FUNCTIONS))

_MAX_DEPTH = 400  # parser totality: structured error instead of RecursionError


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
            _, _, off = self._peek()
            raise ExpressionSyntaxError(
                off, ("shallower nesting",), found="expression nested too deeply"
            )

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self._peek()
        if kind != _T_EOF:
            self._fail(("operator", "end of input"))
        return e

    def expr(self) -> Expr:
        self._enter()
        e = self.term()
        while True:
            kind, text, _ = self._peek()
            if kind == _T_OP and text in "+-":
                self._next()
                e = Bin(text, e, self.term())
            else:
                self.depth -= 1
                return e

    def term(self) -> Expr:
        self._enter()
        e = self.factor()
        while True:
            kind, text, _ = self._peek()
            if kind == _T_OP and text in "*/":
                self._next()
                e = Bin(text, e, self.factor())
            else:
                self.depth -= 1
                return e

    def factor(self) -> Expr:
        self._enter()
        kind, text, _ = self._peek()
        if kind == _T_OP and text == "-":
            self._next()
            out = Neg(self.factor())
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
            base = Bin("^", base, self.factor())
        self.depth -= 1
        return base

    def atom(self) -> Expr:
        kind, text, off = self._peek()
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


def compile_expression(expr: Expr, names, constants=None):
    """Compile to a positional closure over a scalar sequence.

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
        if isinstance(e, Num):
            v = e.value
            return (lambda s, v=v: v), True
        if isinstance(e, Var):
            if e.name in index:
                i = index[e.name]
                return (lambda s, i=i: s[i]), False
            if e.name in constants:
                v = float(constants[e.name])
                return (lambda s, v=v: v), True
            raise UnknownIdentifierError(e.name)
        if isinstance(e, Neg):
            f, const = build(e.arg)
            return (lambda s, f=f: -f(s)), const
        if isinstance(e, Bin):
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
    fns = sysdef._metric_fns
    checked = 0
    for q in probes:
        try:
            for i, j in pending:
                va, vb = fns[i][j](q), fns[j][i](q)
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
