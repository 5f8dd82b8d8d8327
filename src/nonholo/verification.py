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

Each point is validated once into a ``geometry.OnMPoint``, which carries its
metric, constraint rows and frame. A chunk's points are sampled, validated
and framed in stacked passes (``catalog.sample_m_points``,
``geometry.on_m_point`` of a list, ``geometry.frame_batch``). The Jacobiator
runs first, at every point: one nested lift per kind over the chunk (per
frame plan for the dual-bundle kind). The other suites run in one stacked
pass over the chunk: one batched lift per object (the projection Jacobian,
the splitting, the algebroid's chart per frame plan, the table observables,
and H per dynamics route), each built once as an array, then the float
algebra as (B, ...) arrays reduced per point, the Leibniz factors included;
only the route tables, which grow with the square of the number of
observables, are built over fixed slices of those arrays. A stacked pass
passes or raises; one that raises reruns its points one by one
(``geometry.per_point``), so the first failing point raises as it would
alone. Overflow in a suite is not reported as a numpy warning: the
non-finite value reaches the report and fails its suite.

Points are distributed by index across at most one worker chunk per
process, and at most one process per CPU; per-point results are merged in
index order, so reports are byte-identical for any worker count. The
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

from . import brackets, catalog, dsl, dynamics, geometry, numdiff
from .system import Observable

WITNESS_FLOOR = 1e-3
_SLICE = 25  # points per slice of the route tables


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

        # the factors' values, one closure call per observable
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
    (B, ...) pass over the points' own lifts; one metric dict per point.
    Each lifted object is built once; the splitting also fills each point's
    own, which the projection route reads."""
    n, k, B = sysd.n, sysd.k, len(points)
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

    mu = geometry.stacked(points, "cons.mu")
    fields = geometry.hamiltonian_vectors(ext)  # extension fields, by row
    base_in_d = _point_max([fields[..., :n] @ mu.swapaxes(-1, -2)])
    qx = fields @ Q.swapaxes(-1, -2)  # must be vertical, with dp in span(mu^T)
    vertical = []
    for mb, qb in zip(mu, qx):  # lstsq takes one matrix at a time
        coef, *_ = np.linalg.lstsq(mb.T, qb[:, n:].T, rcond=None)
        vertical.append(_max_abs(qb[:, :n], mb.T @ coef - qb[:, n:].T))

    # informational: projection Jacobian vs projector on base-admissible
    # vectors that leave the manifold tangent space
    E = geometry.stacked(points, "frame.E")
    zvecs = np.concatenate([E, np.ones(E.shape)], -2)
    strong_gap = _point_max([(dgam - P) @ zvecs])

    out = {
        "bracket_coincidence": coincidence,
        "projected_forms_agreement": forms_gap,
        "skew_symmetry": skew,
        "leibniz_rule": leibniz,
        "extension_independence": ext_ind,
        "dynamics_two_route": two_route,
        "field_tangency": tangency,
        "projector_laws": projector_laws,
        "projection_identity_on_admissible": proj_identity,
        "extension_field_base_in_distribution": base_in_d,
        "extension_field_complement_vertical": vertical,
        "strong_projection_gap": strong_gap,
    }
    return [{name: float(v[b]) for name, v in out.items()} for b in range(B)]


def _chunk_worker(payload):
    sysd = dsl.parse_system(payload["source"])
    observables = catalog.observable_test_set(sysd)
    points = catalog.sample_m_points(
        sysd,
        payload["count"],
        payload["seed"],
        region=payload["region"],
        momentum_scale=payload["momentum_scale"],
    )
    indices = payload["indices"]
    tol = payload["on_m_tol"]
    with np.errstate(over="ignore", invalid="ignore"):
        # validated and framed in stacked passes; the first point that fails
        # raises, as it would alone
        valid = geometry.on_m_point(sysd, [points[idx] for idx in indices], tol)
        geometry.frame_batch(valid)
        jacobi = _jacobi_metrics(sysd, valid, observables, payload)  # before the lifts
        metrics = geometry.per_point(lambda xs: _chunk_metrics(sysd, xs, observables), valid)
        for m, j in zip(metrics, jacobi):
            m.update(j)
    return list(zip(indices, metrics))


def _jacobi_metrics(sysd, points, observables, cfg_dict):
    """Both Jacobi suites at every point, on verify's triples.

    One stacked ``brackets.jacobi_rows`` per kind over all the points, and
    per frame plan for ``dstar``; the defect collects eden, plus nh and dstar
    when the distribution is integrable.
    """
    if not points:
        return []
    n_obs = len(observables)
    f, g, h = ([observables[t[c]] for t in _jacobiator_triples(n_obs, sysd.n)] for c in range(3))
    calls = [
        ("jacobiator_canonical", "canonical", (f, g, h), points),
        ("jacobiator_defect", "eden", (f, g, h), points),
    ]
    if cfg_dict["integrable"]:
        calls.append(("jacobiator_defect", "nh", (f, g, h), points))
        for free, group in geometry.frame_plans(points).items():
            push = {id(o): brackets.pushforward_observable(sysd, o, free) for o in f + g + h}
            fgh = tuple([push[id(o)] for o in col] for col in (f, g, h))
            calls.append(("jacobiator_defect", "dstar", fgh, group))
    pos = {id(x): i for i, x in enumerate(points)}
    worst = {}  # suite -> (B,) largest |J| per point; np.maximum keeps a NaN
    for suite, kind, fgh, group in calls:
        body = functools.partial(brackets.jacobi_rows, sysd, kind, list(zip(*fgh)))
        rows = np.asarray(geometry.per_point(body, group))
        at = [pos[id(x)] for x in group]
        acc = worst.setdefault(suite, np.full(len(points), -np.inf))
        acc[at] = np.maximum(acc[at], np.abs(rows).max(1))
    return [{suite: float(acc[i]) for suite, acc in worst.items()} for i in range(len(points))]


def run_verify(cfg: VerifyConfig) -> dict:
    """Run every suite and assemble the deterministic report object."""
    sysd = dsl.parse_system(cfg.system_source)
    region = cfg.region
    integrable = _system_is_integrable(sysd, region, cfg.seed)
    payload_base = {
        "source": cfg.system_source,
        "count": cfg.count,
        "seed": cfg.seed,
        "region": region,
        "momentum_scale": cfg.momentum_scale,
        "on_m_tol": cfg.on_m_tol,
        "integrable": integrable,
    }
    indices = list(range(cfg.count))
    if cfg.workers > 1:
        # every chunk samples all the points again, so one chunk per process
        procs = min(cfg.workers, os.cpu_count() or 1, cfg.count)
        chunks = [{**payload_base, "indices": indices[i::procs]} for i in range(procs)]
        with ProcessPoolExecutor(max_workers=procs) as pool:
            results = []
            for part in pool.map(_chunk_worker, chunks):
                results.extend(part)
    else:
        results = _chunk_worker({**payload_base, "indices": indices})
    results.sort(key=lambda item: item[0])

    # a suite reports its largest value, or its first non-finite one: a NaN
    # compares false with everything, so it must displace a finite value
    merged: dict[str, float] = {}
    argmax: dict[str, int] = {}
    for idx, metrics in results:
        for name, value in metrics.items():
            if (
                name not in merged
                or value > merged[name]
                or (math.isfinite(merged[name]) and not math.isfinite(value))
            ):
                merged[name] = value
                argmax[name] = idx

    suites = []

    def add(name, tolerance, mode="max"):
        value = merged.get(name, 0.0)
        if not math.isfinite(value):
            ok = False
        elif tolerance is None:
            ok = True
        elif mode == "max":
            ok = value <= tolerance
        else:  # witness: the statistic must exceed the floor
            ok = value > tolerance
        suites.append(
            {
                "name": name,
                "statistic": "max_abs" if mode == "max" else "max_witness",
                "value": value,
                "tolerance": tolerance,
                "worst_point_index": argmax.get(name, 0),
                "pass": bool(ok),
            }
        )

    add("bracket_coincidence", cfg.compare_tol)
    add("projected_forms_agreement", cfg.compare_tol)
    add("skew_symmetry", 1e-12)
    add("leibniz_rule", 1e-10)
    add("extension_independence", cfg.compare_tol)
    add("dynamics_two_route", cfg.compare_tol)
    add("field_tangency", 1e-9)
    add("projector_laws", 1e-10)
    add("projection_identity_on_admissible", 1e-9)
    add("extension_field_base_in_distribution", 1e-9)
    add("extension_field_complement_vertical", 1e-9)
    add("jacobiator_canonical", 1e-8)
    if integrable:
        add("jacobiator_defect", 1e-8)
    else:
        add("jacobiator_defect", WITNESS_FLOOR, mode="witness")
    add("strong_projection_gap", None)

    report = {
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
    return report
