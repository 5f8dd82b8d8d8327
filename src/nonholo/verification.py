"""Verification sweeps: every pointwise identity, measured over seeded samples.

One sweep evaluates, per sampled point on the constraint manifold: the
four-route bracket coincidence over all observable pairs, skew-symmetry and
the Leibniz rule per route, extension independence, agreement of the two
projected-bracket forms, the two dynamics routes, field tangency, projector
laws, the projection-Jacobian identity on admissible tangents, the
distribution membership of extension fields, and the Jacobiator policy
(zero everywhere for an integrable distribution, a reproducible nonzero
witness otherwise).

Each point is validated once into a ``geometry.OnMPoint``, and every suite
at that point reads the metric, constraint rows, splitting, projection
Jacobian, frame and algebroid it carries. The Jacobiator runs at every
point, batched: one nested lift per kind over all the points of a chunk
(per frame plan for the dual-bundle kind). Overflow in a suite is not
reported as a numpy warning: the non-finite value reaches the report and
fails its suite.

Points are distributed by index across at most one worker chunk per
process, and at most one process per CPU; per-point results are merged in
index order, so reports are byte-identical for any worker count. The
informational ``strong_projection_gap`` row reports how far the projection
Jacobian is from the symplectic projector off the admissible sub-bundle
without asserting anything about it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import brackets, catalog, dsl, dynamics, geometry, numdiff
from .system import Observable, hamiltonian_scalar

WITNESS_FLOOR = 1e-3


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

    rng_points = catalog.sample_m_points(
        sysd, 12, derive_seed(seed, "integrability-probe"), region=region
    )
    plans = {}
    for x in rng_points:
        q = list(x.q)
        plans.setdefault(geometry.frame_at(sysd, q).free_cols, []).append(q)
    residuals = []  # the brackets' parts outside the distribution
    for free, qs in plans.items():
        for q, ws in zip(qs, _frame_brackets(sysd, free, qs)):
            mu = np.asarray(sysd.mu_values(q), dtype=float)
            residuals += [mu @ w for w in ws]
    return _max_abs(*residuals) <= 1e-10  # a NaN residual is not integrable


def _frame_brackets(sysd, free, qs):
    """Lie brackets of the frame fields at configurations of one frame plan.

    Per point: [X_a, X_b] for every a < b, or [X, q_0 X] when the frame has
    one field. One batched lift gives the Jacobian DX of every field, and
    [X, Y] = DY X - DX Y; each bracket is bitwise ``brackets.lie_bracket_raw``
    of its two fields.
    """
    n, k = sysd.n, sysd.k

    def fields(s):
        cols = geometry.frame_apply(sysd, s, free)
        if k == 1:
            cols = cols + [[s[0] * v for v in cols[0]]]
        return sum(cols, [])

    try:
        jac = numdiff.jacobian_batch(fields, qs)
    except geometry.BATCH_FAILURES:
        jac = [numdiff.jacobian(fields, q) for q in qs]
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)] or [(0, 1)]
    out = []
    for q, jq in zip(qs, jac):
        d = jq.reshape(-1, n, n)
        v = np.array(fields(q), dtype=float).reshape(-1, n)
        out.append([d[b] @ v[a] - d[a] @ v[b] for a, b in pairs])
    return out


def _max_abs(*parts) -> float:
    """Largest absolute entry over all parts; a NaN anywhere is the result."""
    return float(np.max([np.max(np.abs(p)) for p in parts]))


def _table_observables(observables, n):
    """The observables plus the Leibniz products, the rows of one table call."""
    triples = _leibniz_triples(len(observables), n)
    prods = [Observable.product(observables[i], observables[j]) for i, j, _ in triples]
    return observables + prods


def _point_metrics(sysd, x, observables, cfg_dict, batched=None):
    """Every suite at one point; what ``batched`` lacks is lifted here."""
    batched = batched or {}
    n = sysd.n
    tol = cfg_dict["on_m_tol"]
    # the one validated state of this point: every step below reads its
    # metric, constraint rows, splitting, frame and algebroid instead of
    # validating again
    x = geometry.on_m_point(sysd, x, tol)
    n_obs = len(observables)
    routes = ("nh", "nh2", "eden", "dstar")
    triples = _leibniz_triples(n_obs, n)
    # the Leibniz products join the one table call; the other suites read
    # the n_obs x n_obs block of the observables themselves
    raw = batched.get("raw")
    if raw is None:
        raw = brackets.raw_rows(x, _table_observables(observables, n))
    tables = brackets.bracket_route_tables(x, raw)
    vals = {r: tables[r][:n_obs, :n_obs] for r in routes}
    stacked = np.stack([vals[r] for r in routes])
    coincidence = float(np.max(np.abs(stacked[:, None] - stacked[None, :])))
    forms_gap = float(np.max(np.abs(vals["nh"] - vals["nh2"])))
    skew = _max_abs(*(vals[r] + vals[r].T for r in routes))

    resids = []
    for t, (i, j, g_idx) in enumerate(triples):
        fv, f2v = observables[i].at(x), observables[j].at(x)
        for r in routes:
            tab = tables[r]
            resids.append(tab[n_obs + t, g_idx] - fv * tab[j, g_idx] - f2v * tab[i, g_idx])
    leibniz = _max_abs(resids)

    ext = raw[:n_obs] @ x.dgamma
    # two pairs as they are, then with either gradient moved off M along the
    # residual gradient by 1, -1 and 10: one stacked call for all 14
    gf, gg = ext[[0, n]], ext[[n, min(2 * n, n_obs - 1)]]
    shifts = [c * brackets.residual_gradients(x)[0] for c in (1.0, -1.0, 10.0)]
    nh, nh2 = brackets.nh_values_from_grads(
        x,
        np.stack([gf] + [gf + s for s in shifts] + [gf] * 3),
        np.stack([gg] + [gg] * 3 + [gg + s for s in shifts]),
    )
    ext_ind = _max_abs(nh[1:] - nh[0], nh2[1:] - nh2[0])

    a = dynamics.nonholonomic_field_multiplier(sysd, x, tol, batched.get("dH_multiplier"))
    b = dynamics.nonholonomic_field_projection(sysd, x, tol, batched.get("dH_projection"))
    two_route = float(np.max(np.abs(a.as_vector() - b.as_vector())))
    P, Q, C = x.splitting
    tangency = float(np.max(np.abs(brackets.residual_gradients(x) @ a.as_vector())))
    projector_laws = _max_abs(P @ P - P, C @ P)
    dgam = x.dgamma
    u, s, _ = np.linalg.svd(P)
    rank = int(np.sum(s > 1e-8 * s[0]))
    basis = u[:, :rank]
    proj_identity = float(np.max(np.abs(dgam @ (P @ basis) - P @ basis)))
    if rank != 2 * sysd.k:
        proj_identity = float("inf")

    mu = x.cons.mu
    fields = np.hstack([ext[:, n:], -ext[:, :n]])  # extension fields, by row
    base_in_d = float(np.max(np.abs(fields[:, :n] @ mu.T)))
    qx = fields @ Q.T  # must be vertical, with dp in span(mu^T)
    lam, *_ = np.linalg.lstsq(mu.T, qx[:, n:].T, rcond=None)
    off_span = mu.T @ lam - qx[:, n:].T
    vertical = _max_abs(qx[:, :n], off_span)

    # informational: projection Jacobian vs projector on base-admissible
    # vectors that leave the manifold tangent space
    E = x.frame.E
    zvecs = np.vstack([E, np.ones((n, E.shape[1]))])
    strong_gap = float(np.max(np.abs((dgam - P) @ zvecs)))

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

    return out


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
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        # validate in index order up to the first failure; the pass below
        # meets that point unvalidated and raises there, as it would alone
        valid = []
        for idx in indices:
            try:
                x = geometry.on_m_point(sysd, points[idx], payload["on_m_tol"])
                x.frame  # built and checked here, before the batched lifts
            except geometry.BATCH_FAILURES:
                break
            valid.append(x)
        batched = _batched_lifts(sysd, valid, observables)
        jacobi = _jacobi_metrics(sysd, valid, observables, payload)
        for pos, idx in enumerate(indices):
            on = pos < len(valid)
            metrics = _point_metrics(
                sysd,
                valid[pos] if on else points[idx],
                observables,
                payload,
                batched=batched[pos] if on else None,
            )
            if on:  # a point's cached linear data is not needed again
                metrics.update(jacobi[pos])
                valid[pos] = batched[pos] = None
            out.append((idx, metrics))
    return out


def _batched_lifts(sysd, points, observables):
    """Seed the points' lifted data; return, per point, its table rows and
    each dynamics route's gradient of H (one lift per route: the routes share
    only the point). An object whose batched build raises is left out."""
    if not points:
        return []
    geometry.lift_batch(points)
    table = _table_observables(observables, sysd.n)
    z = [x.scalars() for x in points]

    lifted = {}
    for name, fn in (
        ("raw", lambda s: [f.fn(s) for f in table]),
        ("dH_multiplier", lambda s: [hamiltonian_scalar(sysd, s)]),
        ("dH_projection", lambda s: [hamiltonian_scalar(sysd, s)]),
    ):
        try:
            rows = numdiff.jacobian_batch(fn, z)
        except geometry.BATCH_FAILURES:
            continue
        lifted[name] = rows if name == "raw" else rows[:, 0]
    return [{name: rows[b] for name, rows in lifted.items()} for b in range(len(points))]


def _jacobi_metrics(sysd, points, observables, cfg_dict):
    """Both Jacobi suites at every point, on verify's triples.

    One batched call per kind over all the points, and per frame plan for
    ``dstar``; the defect collects eden, plus nh and dstar when the
    distribution is integrable. A kind whose batched call raises runs the
    scalar ``jacobiator`` point by point, in index order, so a point raises
    where it would alone.
    """
    if not points:
        return []
    n_obs = len(observables)
    f, g, h = ([observables[t[c]] for t in _jacobiator_triples(n_obs, sysd.n)] for c in range(3))
    calls = [
        ("jacobiator_canonical", "canonical", (f, g, h), None, points),
        ("jacobiator_defect", "eden", (f, g, h), None, points),
    ]
    if cfg_dict["integrable"]:
        calls.append(("jacobiator_defect", "nh", (f, g, h), None, points))
        plans = {}
        for x in points:
            plans.setdefault(x.frame.free_cols, []).append(x)
        for free, group in plans.items():
            push = {id(o): brackets.pushforward_observable(sysd, o, free) for o in f + g + h}
            fgh = tuple([push[id(o)] for o in col] for col in (f, g, h))
            calls.append(("jacobiator_defect", "dstar", fgh, free, group))
    pos = {id(x): i for i, x in enumerate(points)}
    values = [{} for _ in points]
    for suite, kind, fgh, free, group in calls:
        try:
            per_point = np.stack(brackets.jacobiator_batch(sysd, kind, *fgh, group, free), 1)
        except geometry.BATCH_FAILURES:
            tol = cfg_dict["on_m_tol"]
            per_point = [brackets.jacobiator(sysd, kind, *fgh, x, on_m_tol=tol) for x in group]
        for x, v in zip(group, per_point):
            values[pos[id(x)]].setdefault(suite, []).extend(v)
    return [{suite: _max_abs(v) for suite, v in d.items()} for d in values]


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
