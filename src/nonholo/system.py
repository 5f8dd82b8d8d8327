"""Domain model: system definitions, phase points, observables, energies.

A mechanical system is (Q, g, V, D): coordinates, a kinetic-energy metric,
a potential, and a rank-k velocity distribution cut out by n-k one-forms.
All scalar data arrives as expression trees; this module compiles each table
once per system into one straight-line program of q (``dsl``) that
evaluates identically over plain floats, dual scalars and array cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import dsl, geometry, numdiff
from .errors import StructuralError


@dataclass
class SystemDefinition:
    name: str
    coords: tuple[str, ...]
    params: dict[str, float]
    metric_exprs: tuple
    potential_expr: object
    constraint_exprs: tuple
    frame_exprs: tuple | None = None
    source: str | None = None

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def n_constraints(self) -> int:
        return len(self.constraint_exprs)

    @property
    def k(self) -> int:
        return self.n - self.n_constraints

    @cached_property
    def momenta(self) -> tuple[str, ...]:
        return tuple("p_" + c for c in self.coords)

    @cached_property
    def phase_names(self) -> tuple[str, ...]:
        return self.coords + self.momenta

    # -- the tables over any scalar type: one program of q each (dsl) --

    @cached_property
    def metric_values(self):
        return dsl.compile_expression(self.metric_exprs, self.coords, self.params)

    @cached_property
    def potential_value(self):
        return dsl.compile_expression(self.potential_expr, self.coords, self.params)

    @cached_property
    def mu_values(self):
        return dsl.compile_expression(self.constraint_exprs, self.coords, self.params)

    @cached_property
    def frame_values(self):
        """The user frame's columns, or None without a [frame] section."""
        if self.frame_exprs is None:
            return lambda q_scalars: None
        return dsl.compile_expression(self.frame_exprs, self.coords, self.params)


@dataclass(frozen=True)
class PhasePoint:
    """A point (q, p) of momentum phase space in ambient coordinates."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise StructuralError("phase point has non-finite entries")

    def scalars(self) -> list[float]:
        return [*self.q.tolist(), *self.p.tolist()]


@dataclass(frozen=True)
class DStarPoint:
    """Base point plus fiber components in the chosen distribution frame."""

    q: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.pi))):
            raise StructuralError("dual-bundle point has non-finite entries")

    def scalars(self) -> list[float]:
        return [*self.q.tolist(), *self.pi.tolist()]


@dataclass(frozen=True)
class Observable:
    """Scalar function of a phase point, evaluable over floats and duals.

    ``fn`` takes the flat scalar list (q_1..q_n, p_1..p_n). Expression-backed
    observables keep their parsed tree in ``expr``; composites (projections,
    bracket residues) wrap arbitrary closures and leave it None.
    """

    label: str
    fn: object
    expr: object = None

    def __call__(self, scalars):
        return self.fn(scalars)

    def at(self, x: PhasePoint) -> float:
        return float(self.fn(x.scalars()))

    @staticmethod
    def from_expression(sys: SystemDefinition, text: str) -> "Observable":
        expr = dsl.parse_expression(text)
        allowed = set(sys.phase_names) | set(sys.params)
        dsl.validate_identifiers(expr, allowed)
        fn = dsl.compile_expression(expr, sys.phase_names, sys.params)
        return Observable(label=text, fn=fn, expr=expr)

    @staticmethod
    def product(a: "Observable", b: "Observable") -> "Observable":
        return Observable(
            label=f"({a.label})*({b.label})",
            fn=lambda s, fa=a.fn, fb=b.fn: fa(s) * fb(s),
        )


@dataclass(frozen=True)
class DStarObservable:
    """Scalar function on the dual bundle, in variables (q_1.., pi_1..pi_k)."""

    label: str
    fn: object
    expr: object = None

    def __call__(self, scalars):
        return self.fn(scalars)

    def at(self, y: DStarPoint) -> float:
        return float(self.fn(y.scalars()))

    @staticmethod
    def from_expression(sys: SystemDefinition, text: str) -> "DStarObservable":
        expr = dsl.parse_expression(text)
        names = sys.coords + tuple(f"pi_{a + 1}" for a in range(sys.k))
        dsl.validate_identifiers(expr, set(names) | set(sys.params))
        fn = dsl.compile_expression(expr, names, sys.params)
        return DStarObservable(label=text, fn=fn, expr=expr)


# --- energies and the fiber-derivative maps ----------------------------------


def legendre(sys: SystemDefinition, q, v) -> PhasePoint:
    """Fiber derivative of L: for mechanical systems, p = G(q) v."""
    return PhasePoint(q=np.asarray(q, dtype=float), p=geometry.flat(sys, q, v))


def hamiltonian_scalar(sys: SystemDefinition, scalars):
    """H evaluated over a flat scalar list; works on duals as well as floats."""
    n = sys.n
    q_s, p_s = scalars[:n], scalars[n:]
    v = geometry.cometric_apply(sys, q_s, p_s)
    return 0.5 * numdiff.sum_prod(p_s, v) + sys.potential_value(q_s)


def hamiltonian_observable(sys: SystemDefinition) -> Observable:
    return Observable(label="H", fn=lambda s: hamiltonian_scalar(sys, s))
