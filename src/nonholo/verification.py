"""Verification sweeps: every pointwise identity, measured over seeded samples.

One sweep evaluates, per sampled point on the constraint manifold: the
four-route bracket coincidence over all observable pairs, skew-symmetry and
the Leibniz rule per route, extension independence, agreement of the two
projected-bracket forms, the two dynamics routes, field tangency, projector
laws, the projection-Jacobian identity on admissible tangents, the
distribution membership of extension fields, and the Jacobiator policy
(zero everywhere for an integrable distribution, a reproducible nonzero
witness otherwise). The policy is probed first: do the frame fields' Lie
brackets (``brackets.field_brackets``, stacked per frame plan) stay in D?

The sample is drawn once, then validated once into ``geometry.OnMPoint``s,
which carry their metric, constraint rows and frame, in stacked passes
(``geometry.on_m_point`` of a list, ``geometry.frame_batch``): a validation
or frame error names the sample's first failing point, whatever the number
of workers. The Jacobiator runs first, at every point: one nested lift per
kind (per frame plan for the dual-bundle kind). The other suites run in one
stacked pass over the points: one batched lift per object (the projection
Jacobian, the splitting, the algebroid's chart per frame plan, the table
observables, and H per dynamics route), each built once as an array, then
the float algebra as (B, ...) arrays reduced per point, the Leibniz factors
and the least squares of the complement-vertical suite (one
``_lapack.lstsq``) included; only the route tables, which grow with the
square of the number of observables, are built over fixed slices of those
arrays. A stacked pass passes or raises; one that raises reruns its points
one by one (``geometry.per_point``), so the first failing point raises as it
would alone. Overflow in a suite is not reported as a numpy warning: the
non-finite value reaches the report and fails its suite.

Every suite is one row of the ``SUITES`` table and one column of a (points x
suites) float array, and each column is reduced once: to its first
non-finite value, else its first largest, at its ``worst_point_index``.
With workers, each process (at most one per CPU) gets one run of
consecutive points; it parses the system and validates its run again,
bitwise as the whole sample was validated, and the runs' rows join in index
order, so reports are byte-identical for any worker count. The
informational ``strong_projection_gap`` row reports how far the projection
Jacobian is from the symplectic projector off the admissible sub-bundle
without asserting anything about it.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _lapack, brackets, catalog, dsl, dynamics, geometry, numdiff
from .system import Observable

WITNESS_FLOOR = 1e-3
_SLICE = 25  # points per slice of the route tables

# the suites in report order, one column each, with their tolerance: a
# number, the config's compare_tol, or None (reported only); where D is not
# integrable, jacobiator_defect is a witness that must exceed WITNESS_FLOOR
SUITES = (
    ("bracket_coincidence", "compare_tol"),
    ("projected_forms_agreement", "compare_tol"),
    ("skew_symmetry", 1e-12),
    ("leibniz_rule", 1e-10),
    ("extension_independence", "compare_tol"),
    ("dynamics_two_route", "compare_tol"),
    ("field_tangency", 1e-9),
    ("projector_laws", 1e-10),
    ("projection_identity_on_admissible", 1e-9),
    ("extension_field_base_in_distribution", 1e-9),
    ("extension_field_complement_vertical", 1e-9),
    ("jacobiator_canonical", 1e-8),
    ("jacobiator_defect", 1e-8),
    ("strong_projection_gap", None),
)


@dataclass
class VerifyConfig:
    system_source: str
    system_label: str
    seed: int = 1
    count: int = 100
    on_m_tol: float = geometry.ON_M_TOL
    compare_tol: float = 1e-9
    workers: int = 1
    region: tuple | None = None
    momentum_scale: float = 1.0


def _jacobiator_triples(n_obs: int, n: int):
    return [
        (n - 1, n, n + 1),
        (0, n, 2 * n),
        (n, n + 1, min(2 * n + 1, n_obs - 1)),
    ]


def _leibniz_triples(n_obs: int, n: int):
    return [
        (0, n, 2 * n),
        (1 % n_obs, (n + 1) % n_obs, (2 * n + 1) % n_obs),
        (n, 2 * n, 0),
    ]


def _system_is_integrable(sysd, region, seed) -> bool:
    """Probe the distribution: do projected frame fields close under brackets?"""
    from .rng import derive_seed

    sample = catalog.sample_m_points(
        sysd, 12, derive_seed(seed, "integrability-probe"), region=region
    )
    points = geometry.on_m_point(sysd, sample, np.inf)
    geometry.frame_batch(points)
    residuals = []  # the brackets' parts outside the distribution
    for free, group in geometry.frame_plans(points).items():
        ws = _frame_brackets(sysd, free, geometry.stacked(group, "q"))
        residuals.append(ws @ geometry.stacked(group, "cons.mu").swapaxes(1, 2))
    return _max_abs(*residuals) <= 1e-10  # a NaN residual is not integrable


def _frame_brackets(sysd, free, qs):
    """The frame fields' Lie brackets at configurations qs (B, n) of one frame
    plan, (B, pairs, n): [X_a, X_b] for a < b, or [X, q_0 X] with one field;
    one ``brackets.field_brackets`` (``per_point``), bitwise ``lie_bracket_raw``."""
    k = sysd.k

    def fields(s):
        cols = geometry.frame_apply(sysd, s, free)
        return sum(cols, []) + ([s[0] * v for v in cols[0]] if k == 1 else [])

    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)] or [(0, 1)]
    body = functools.partial(brackets.field_brackets, fields, pairs)
    return np.asarray(geometry.per_point(body, qs))


def _max_abs(*parts) -> float:
    """Largest absolute entry over all parts; a NaN anywhere is the result."""
    return float(np.max([np.max(np.abs(p)) for p in parts]))


def _table_observables(observables, n):
    """The observables plus the Leibniz products, the rows of one table call."""
    triples = _leibniz_triples(len(observables), n)
    prods = [Observable.product(observables[i], observables[j]) for i, j, _ in triples]
    return observables + prods


def _point_max(parts):
    """``_max_abs`` per point (the leading axis), each part reduced in turn."""
    return np.max([np.abs(p).reshape(len(p), -1).max(axis=1) for p in parts], axis=0)


def _table_suites(z, raw, linear, observables, n):
    """The coincidence, forms, skew and Leibniz suites per point, from the
    points' stacked (q, p) ``z``, their table rows ``raw`` and their linear
    data (dgamma, P, theta, lam); the route tables are built ``_SLICE``
    points at a time, since they grow with the square of the number of
    observables."""
    n_obs = len(observables)
    routes = ("nh", "nh2", "eden", "dstar")
    triples = _leibniz_triples(n_obs, n)
    out = []
    for lo in range(0, len(z), _SLICE):
        part = slice(lo, lo + _SLICE)
        tables = brackets.bracket_route_tables(*(a[part] for a in (raw, *linear)))
        vals = {r: tables[r][:, :n_obs, :n_obs] for r in routes}
        # every ordered route pair, a route with itself too (inf - inf is NaN)
        coincidence = _point_max(
            vals[r] - vals[s] for i, r in enumerate(routes) for s in routes[i:]
        )
        forms_gap = _point_max([vals["nh"] - vals["nh2"]])
        skew = _point_max(vals[r] + vals[r].swapaxes(-1, -2) for r in routes)

        # the factors' values, one call per observable
        cores = numdiff.cores(z[part])
        value = {o: observables[o].fn(cores) for i, j, _ in triples for o in (i, j)}
        resids = []
        for t, (i, j, g_idx) in enumerate(triples):
            fv, f2v = value[i], value[j]
            for r in routes:
                tab = tables[r]
                resids.append(tab[:, n_obs + t, g_idx] - fv * tab[:, j, g_idx] - f2v * tab[:, i, g_idx])
        out.append((coincidence, forms_gap, skew, _point_max(resids)))
    return [np.concatenate(v) for v in zip(*out)]


def _chunk_metrics(sysd, points, observables):
    """Every suite but the Jacobi pair at validated points, as one stacked
    (B, ...) pass over the points' own lifts; (B, 12) in ``SUITES`` order.
    Each lifted object is built once; the splitting also fills each point's
    own, which the projection route reads."""
    n, k = sysd.n, sysd.k
    n_obs = len(observables)
    dgam = geometry.dgamma(points)
    theta, lam, _ = geometry.almost_lie_algebroid(points)
    P, Q, C = geometry.tangent_splitting(sysd, points, np.inf)
    z = np.concatenate([geometry.stacked(points, a) for a in "qp"], -1)
    # the Leibniz products join the one table call; the other suites read
    # the n_obs x n_obs block of the observables themselves
    table = _table_observables(observables, n)
    raw = numdiff.jacobian_batch(lambda s: [f.fn(s) for f in table], z)
    coincidence, forms_gap, skew, leibniz = _table_suites(
        z, raw, (dgam, P, theta, lam), observables, n
    )

    resid = C[:, : sysd.n_constraints]  # the gradients of the membership residuals
    ext = raw[:, :n_obs] @ dgam
    # two pairs as they are, then with either gradient moved off M along the
    # residual gradient by 1, -1 and 10: one stacked call for all 14 per point
    gf, gg = ext[:, [0, n]], ext[:, [n, min(2 * n, n_obs - 1)]]
    shifts = [c * resid[:, :1] for c in (1.0, -1.0, 10.0)]
    nh, nh2 = brackets.nh_values_from_grads(
        P,
        np.stack([gf] + [gf + s for s in shifts] + [gf] * 3, 1),
        np.stack([gg] + [gg] * 3 + [gg + s for s in shifts], 1),
    )
    ext_ind = _point_max([nh[:, 1:] - nh[:, :1], nh2[:, 1:] - nh2[:, :1]])

    # the points are validated already; each route reads its own lift of H
    a = dynamics.nonholonomic_field_multiplier(sysd, points, np.inf)
    b = dynamics.nonholonomic_field_projection(sysd, points, np.inf)
    mult, proj = a.as_vector(), b.as_vector()
    two_route = _point_max([mult - proj])
    tangency = _point_max([resid @ mult[..., None]])
    projector_laws = _point_max([P @ P - P, C @ P])
    # each basis has its own rank: the columns past it are masked out
    u, s, _ = np.linalg.svd(P)
    keep = s > 1e-8 * s[:, :1]
    pu = (P @ u) * keep[:, None, :]
    proj_identity = np.where(keep.sum(1) == 2 * k, _point_max([dgam @ pu - pu]), np.inf)

    mu_T = geometry.stacked(points, "cons.mu").swapaxes(-1, -2)
    fields = geometry.hamiltonian_vectors(ext)  # extension fields, by row
    base_in_d = _point_max([fields[..., :n] @ mu_T])
    qx = fields @ Q.swapaxes(-1, -2)  # must be vertical, with dp in span(mu^T)
    rhs = qx[..., n:].swapaxes(-1, -2)
    coef = _lapack.lstsq(mu_T, rhs)
    vertical = _point_max([qx[..., :n], mu_T @ coef - rhs])

    # informational: projection Jacobian vs projector on base-admissible
    # vectors that leave the manifold tangent space
    E = geometry.stacked(points, "frame.E")
    zvecs = np.concatenate([E, np.ones(E.shape)], -2)
    strong_gap = _point_max([(dgam - P) @ zvecs])

    return np.stack([
        coincidence, forms_gap, skew, leibniz, ext_ind, two_route, tangency, projector_laws,
        proj_identity, base_in_d, vertical, strong_gap,
    ], 1)


def _validated(sysd, sample, on_m_tol):
    """The sample's OnMPoints, validated and framed in stacked passes; the
    first point that fails raises, as it would alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        points = geometry.on_m_point(sysd, sample, on_m_tol)
        geometry.frame_batch(points)
    return points


def _chunk_values(sysd, points, integrable):
    """Every suite at validated points, (B, len(SUITES)) in ``SUITES`` order."""
    observables = catalog.observable_test_set(sysd)
    with np.errstate(over="ignore", invalid="ignore"):
        jacobi = _jacobi_metrics(sysd, points, observables, integrable)  # before the lifts
        metrics = geometry.per_point(lambda xs: _chunk_metrics(sysd, xs, observables), points)
    metrics = np.asarray(metrics)  # per_point's rows, when the stacked pass raised
    # the Jacobi pair goes before the informational last column
    return np.concatenate([metrics[:, :-1], jacobi, metrics[:, -1:]], 1)


def _chunk_worker(source, on_m_tol, integrable, sample):
    """``_chunk_values`` of one run of sample points in a worker process, the
    system parsed and the run validated again, bitwise as in ``run_verify``."""
    sysd = dsl.parse_system(source)
    return _chunk_values(sysd, _validated(sysd, sample, on_m_tol), integrable)


def _jacobi_metrics(sysd, points, observables, integrable):
    """Both Jacobi suites at every point, on verify's triples, (B, 2): the
    canonical Jacobiator, then the defect.

    One stacked ``brackets.jacobi_rows`` per kind over all the points, and
    per frame plan for ``dstar``; the defect collects eden, plus nh and dstar
    when the distribution is integrable.
    """
    n_obs = len(observables)
    f, g, h = ([observables[t[c]] for t in _jacobiator_triples(n_obs, sysd.n)] for c in range(3))
    calls = [(0, "canonical", (f, g, h), points), (1, "eden", (f, g, h), points)]
    if integrable:
        calls.append((1, "nh", (f, g, h), points))
        for free, group in geometry.frame_plans(points).items():
            push = {id(o): brackets.pushforward_observable(sysd, o, free) for o in f + g + h}
            fgh = tuple([push[id(o)] for o in col] for col in (f, g, h))
            calls.append((1, "dstar", fgh, group))
    pos = {id(x): i for i, x in enumerate(points)}
    worst = np.full((len(points), 2), -np.inf)  # largest |J| per point; np.maximum keeps a NaN
    for col, kind, fgh, group in calls:
        body = functools.partial(brackets.jacobi_rows, sysd, kind, list(zip(*fgh)))
        rows = np.asarray(geometry.per_point(body, group))
        at = [pos[id(x)] for x in group]
        worst[at, col] = np.maximum(worst[at, col], np.abs(rows).max(1))
    return worst


def run_verify(cfg: VerifyConfig) -> dict:
    """Run every suite and assemble the deterministic report object."""
    sysd = dsl.parse_system(cfg.system_source)
    integrable = _system_is_integrable(sysd, cfg.region, cfg.seed)
    sample = catalog.sample_m_points(
        sysd, cfg.count, cfg.seed, region=cfg.region, momentum_scale=cfg.momentum_scale
    )
    points = _validated(sysd, sample, cfg.on_m_tol)
    if cfg.workers > 1:
        # one run of consecutive points per process
        procs = min(cfg.workers, os.cpu_count() or 1, cfg.count)
        cuts = [cfg.count * i // procs for i in range(procs + 1)]
        worker = functools.partial(_chunk_worker, cfg.system_source, cfg.on_m_tol, integrable)
        with ProcessPoolExecutor(max_workers=procs) as pool:
            runs = pool.map(worker, [sample[a:b] for a, b in zip(cuts, cuts[1:])])
            values = np.concatenate(list(runs))
    else:
        values = _chunk_values(sysd, points, integrable)

    # a suite reports its first non-finite value, else its first largest
    bad = ~np.isfinite(values)
    index = np.where(bad.any(0), bad.argmax(0), values.argmax(0))
    suites = []
    for (name, tol), value, at in zip(
        SUITES, values[index, np.arange(len(SUITES))].tolist(), index.tolist()
    ):
        witness = name == "jacobiator_defect" and not integrable
        tol = WITNESS_FLOOR if witness else (getattr(cfg, tol) if isinstance(tol, str) else tol)
        ok = math.isfinite(value) and (tol is None or (value > tol if witness else value <= tol))
        suites.append({
            "name": name,
            "statistic": "max_witness" if witness else "max_abs",
            "value": value,
            "tolerance": tol,
            "worst_point_index": at,
            "pass": ok,
        })

    return {
        "command": "verify",
        "system": cfg.system_label,
        "seed": cfg.seed,
        "count": cfg.count,
        "on_m_tol": cfg.on_m_tol,
        "compare_tol": cfg.compare_tol,
        "integrable_distribution": integrable,
        "suites": suites,
        "pass": all(s["pass"] for s in suites),
    }
