"""Per-point work of the verify sweep: one validation, one stacked pass per
chunk, one batched call per kind."""

import functools
from pathlib import Path

import numpy as np
import pytest

from nonholo import brackets, catalog, dsl, dynamics, geometry, numdiff, verification
from nonholo.errors import DomainError, SplittingDegenerateError

VALIDATION = ("tangent_splitting", "metric_at", "constraints_at")


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_point_metrics_validate_each_point_once(count_calls, ent):
    sysd = ent.system()
    observables = catalog.observable_test_set(sysd)
    points = catalog.sample_entry_points(ent, 3, 5)
    counts = count_calls(geometry, VALIDATION)
    for x in points:
        counts.update(dict.fromkeys(VALIDATION, 0))
        verification._chunk_metrics(sysd, [geometry.on_m_point(sysd, x)], observables)
        assert counts["tangent_splitting"] == 1
        assert counts["metric_at"] <= 1 and counts["constraints_at"] <= 1


# the particle with y past its catalog region: two default frame plans
TWO_PLAN_REGION = ((-1.0, 1.0), (-2.0, 2.0), (-1.0, 1.0))


def _chunk_points(sysd, sample):
    """The sample validated, frames built, as ``_chunk_worker`` holds it."""
    points = [geometry.on_m_point(sysd, x) for x in sample]
    for x in points:
        x.frame
    return points


def test_a_chunk_builds_each_lifted_object_once(monkeypatch, count_calls):
    # one stacked build per object over the chunk, the chart Jacobian one per
    # frame plan; only the projection route restacks the splitting
    sysd = catalog.get_system("nonholonomic_particle")
    points = _chunk_points(sysd, catalog.sample_m_points(sysd, 10, 5, region=TWO_PLAN_REGION))
    plans = {x.frame.free_cols for x in points}
    assert len(plans) == 2
    observables = catalog.observable_test_set(sysd)
    counts = count_calls(geometry, ("dgamma", "tangent_splitting", "almost_lie_algebroid"))
    lifts, reads = [], []
    jacobian_batch, stacked = numdiff.jacobian_batch, geometry.stacked

    def lifted(F, X):
        if isinstance(F, functools.partial):  # a builder's, not an observable table's
            lifts.append((F.func.__name__, F.args[1:], len(X)))
        return jacobian_batch(F, X)

    def restacked(x, name):
        reads.append(name)
        return stacked(x, name)

    monkeypatch.setattr(numdiff, "jacobian_batch", lifted)
    monkeypatch.setattr(geometry, "stacked", restacked)
    verification._chunk_metrics(sysd, points, observables)
    assert counts == {"dgamma": 1, "tangent_splitting": 1, "almost_lie_algebroid": 1}
    per_plan = [
        ("dstar_chart", (free,), sum(x.frame.free_cols == free for x in points)) for free in plans
    ]
    assert sorted(lifts) == sorted([("gamma_hat_apply", (), 10)] + per_plan)
    assert reads.count("splitting") <= 1


def _scalar_jacobi(sysd, x, observables, cfg):
    """Both Jacobi suites at one point from the per-point ``jacobiator``."""
    triples = verification._jacobiator_triples(len(observables), sysd.n)
    f, g, h = ([observables[t[c]] for t in triples] for c in range(3))

    def jac(kind, f, g, h):
        return brackets.jacobiator(sysd, kind, f, g, h, x, on_m_tol=cfg["on_m_tol"])

    defects = jac("eden", f, g, h)
    if cfg["integrable"]:
        push = {id(o): brackets.pushforward_observable(sysd, o) for o in f + g + h}
        fd, gd, hd = ([push[id(o)] for o in col] for col in (f, g, h))
        defects += jac("nh", f, g, h) + jac("dstar", fd, gd, hd)
    return {
        "jacobiator_canonical": verification._max_abs(jac("canonical", f, g, h)),
        "jacobiator_defect": verification._max_abs(defects),
    }


@pytest.mark.parametrize("integrable", [True, False])
def test_point_metrics_call_the_jacobiator_once_per_kind(monkeypatch, integrable):
    sysd = catalog.get_system("nonholonomic_particle")
    points = _chunk_points(sysd, catalog.sample_m_points(sysd, 10, 5, region=TWO_PLAN_REGION))
    plans = {x.frame.free_cols for x in points}
    assert len(plans) == 2
    observables = catalog.observable_test_set(sysd)
    cfg = {"on_m_tol": geometry.ON_M_TOL, "integrable": integrable}
    alone = [_scalar_jacobi(sysd, x, observables, cfg) for x in points]
    calls = []
    original = brackets.jacobi_rows

    def counted(sys, kind, triples, group):
        calls.append((kind, group[0].frame.free_cols if kind == "dstar" else None, len(group)))
        return original(sys, kind, triples, group)

    monkeypatch.setattr(brackets, "jacobi_rows", counted)
    monkeypatch.setattr(brackets, "jacobiator", None)  # the scalar path stays unused
    out = verification._jacobi_metrics(sysd, points, observables, cfg)
    expected = [("canonical", None, 10), ("eden", None, 10)]
    if integrable:
        expected.append(("nh", None, 10))
        expected += [
            ("dstar", free, sum(x.frame.free_cols == free for x in points)) for free in plans
        ]
    assert sorted(calls) == sorted(expected)
    assert out == alone
    assert max(m["jacobiator_defect"] for m in out) > verification.WITNESS_FLOOR


def _payload(ent, count, indices):
    sysd = ent.system()
    return {
        "source": ent.definition,
        "count": count,
        "seed": 3,
        "region": ent.sample_region,
        "momentum_scale": ent.momentum_scale,
        "on_m_tol": geometry.ON_M_TOL,
        "integrable": verification._system_is_integrable(sysd, ent.sample_region, 3),
        "indices": indices,
    }


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_chunk_metrics_do_not_depend_on_the_batch(ent):
    # the batched lifts and the stacked suites cover whatever points a chunk
    # holds; every metric at an index is exactly its value in any other
    # chunk, and exactly the metric of the point taken alone at B = 1
    count = 14
    full = dict(verification._chunk_worker(_payload(ent, count, list(range(count)))))
    indices = list(range(count))
    for chunk in (indices[::2], indices[1::2], [count - 1], [0]):
        part = verification._chunk_worker(_payload(ent, count, chunk))
        assert [idx for idx, _ in part] == chunk
        for idx, metrics in part:
            assert metrics == full[idx]
    sysd = ent.system()
    points = catalog.sample_entry_points(ent, count, 3)
    observables = catalog.observable_test_set(sysd)
    cfg = _payload(ent, count, [])
    for idx in (0, count - 1):
        x = geometry.on_m_point(sysd, points[idx])
        [alone] = verification._chunk_metrics(sysd, [x], observables)
        alone.update(_scalar_jacobi(sysd, geometry.on_m_point(sysd, points[idx]), observables, cfg))
        assert alone == full[idx]


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_every_chunk_point_gets_both_jacobi_suites(
    monkeypatch, count_calls, ent
):
    # jacobian_batch and jacobi_rows seed their lifts over array cores;
    # no lift in the chunk runs over float cores, and no per-point jacobian
    # or gradient runs
    payload = _payload(ent, 6, list(range(6)))
    counts = count_calls(numdiff, ["jacobian", "gradient"])
    cores = []
    lift = numdiff.lift

    def recorded(values):
        values = list(values)
        cores.extend(type(numdiff.float_core(v)) for v in values)
        return lift(values)

    monkeypatch.setattr(numdiff, "lift", recorded)
    out = verification._chunk_worker(payload)
    assert counts == {"jacobian": 0, "gradient": 0}
    assert cores and set(cores) == {np.ndarray}
    assert [idx for idx, _ in out] == list(range(6))
    for _, metrics in out:
        assert {"jacobiator_canonical", "jacobiator_defect"} <= set(metrics)


def test_verify_workers_are_bounded_by_the_host(monkeypatch):
    # a serial stand-in for the pool records how many processes were asked for
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verification, "ProcessPoolExecutor", SerialPool)
    # every chunk samples all the points again: one chunk per process
    chunks = []
    worker = verification._chunk_worker

    def counted(payload):
        chunks.append(payload["indices"])
        return worker(payload)

    monkeypatch.setattr(verification, "_chunk_worker", counted)
    ent = catalog.get_entry("nonholonomic_particle")

    def run(workers):
        return verification.run_verify(verification.VerifyConfig(
            system_source=ent.definition, system_label="particle", seed=3, count=5,
            workers=workers, region=ent.sample_region, momentum_scale=ent.momentum_scale,
        ))

    serial = run(1)
    for cpus, workers, expected in ((2, 5, 2), (None, 5, 1), (8, 3, 3)):
        monkeypatch.setattr(verification.os, "cpu_count", lambda cpus=cpus: cpus)
        asked.clear()
        chunks.clear()
        assert run(workers) == serial
        assert asked == [expected]
        assert len(chunks) == expected
        assert sorted(i for c in chunks for i in c) == list(range(5))


def test_a_failed_batched_lift_falls_back_to_the_per_point_lift(monkeypatch):
    # the stacked build of the projection Jacobian, then of the algebroid's
    # chart Jacobian, then every stacked lift raises: the chunk's points
    # rerun alone, on float cores
    ent = catalog.get_entry("chaplygin_sleigh")
    payload = _payload(ent, 6, list(range(6)))
    batched = verification._chunk_worker(payload)
    jacobian_batch = numdiff.jacobian_batch
    for builder in (geometry.gamma_hat_apply, geometry.dstar_chart, None):
        refused = []

        def refuse(F, X, builder=builder):  # a stack; one point lifts on float cores
            if len(X) > 1 and builder in (None, getattr(F, "func", None)):
                refused.append(len(X))
                raise DomainError("solve_linear", "non-finite pivot")
            return jacobian_batch(F, X)

        monkeypatch.setattr(numdiff, "jacobian_batch", refuse)
        assert verification._chunk_worker(payload) == batched
        assert refused == [6]


def test_a_failed_stacked_pass_falls_back_to_the_per_point_pass(monkeypatch):
    # the chunk's stacked pass raises, and then each of its points runs alone
    # at B = 1
    count = verification._SLICE + 5
    payload = _payload(catalog.get_entry("vertical_rolling_disk"), count, list(range(count)))
    stacked = verification._chunk_worker(payload)
    sizes = []
    chunk_metrics = verification._chunk_metrics

    def refuse(sysd, points, observables):
        sizes.append(len(points))
        if len(points) > 1:
            raise DomainError("solve_linear", "non-finite pivot")
        return chunk_metrics(sysd, points, observables)

    monkeypatch.setattr(verification, "_chunk_metrics", refuse)
    assert verification._chunk_worker(payload) == stacked
    assert sizes == [count] + [1] * count


def test_a_nan_point_in_a_stacked_pass_reports_as_it_would_alone(monkeypatch):
    # V = 1e308*x^3 overflows into NaN at points 8, 11, 12, 21, 23 and 24 of
    # this sample; the stacked passes carry them, and every point keeps the
    # values it has alone
    src = catalog.get_entry("nonholonomic_particle").definition.replace("V = 0", "V = 1e308*x^3")
    sysd = dsl.parse_system(src)
    count = 30
    payload = {
        "source": src, "count": count, "seed": 1, "region": None, "momentum_scale": 1.0,
        "on_m_tol": geometry.ON_M_TOL, "integrable": False, "indices": list(range(count)),
    }
    sizes, slices = [], []
    chunk_metrics = verification._chunk_metrics
    route_tables = brackets.bracket_route_tables

    def recorded(sysd, points, observables):
        sizes.append(len(points))
        return chunk_metrics(sysd, points, observables)

    def sliced(raw, *linear_data):
        slices.append(len(raw))
        return route_tables(raw, *linear_data)

    monkeypatch.setattr(verification, "_chunk_metrics", recorded)
    monkeypatch.setattr(brackets, "bracket_route_tables", sliced)
    chunk = verification._chunk_worker(payload)
    assert sizes == [count]
    # the route tables, which grow with n_obs^2, stay in bounded slices
    assert slices == [verification._SLICE, count - verification._SLICE]
    points = catalog.sample_m_points(sysd, count, 1)
    observables = catalog.observable_test_set(sysd)
    nan_points = set()
    for idx, metrics in chunk:
        x = geometry.on_m_point(sysd, points[idx])
        with np.errstate(over="ignore", invalid="ignore"):
            [alone] = verification._chunk_metrics(sysd, [x], observables)
        for name, value in alone.items():
            assert repr(metrics[name]) == repr(value), (idx, name)
        if np.isnan(alone["extension_field_base_in_distribution"]):
            nan_points.add(idx)
    assert nan_points == {8, 11, 12, 21, 23, 24}
    report = verification.run_verify(verification.VerifyConfig(
        system_source=src, system_label="overflow", seed=1, count=count,
    ))
    suite = next(
        s for s in report["suites"] if s["name"] == "extension_field_base_in_distribution"
    )
    assert np.isnan(suite["value"]) and suite["worst_point_index"] == 8


def test_a_degenerate_point_in_a_stacked_pass_raises_as_it_would_alone(monkeypatch):
    # the residual rows vanish at the middle point of the chunk, so its
    # splitting matrix is singular there and nowhere else
    ent = catalog.get_entry("chaplygin_sleigh")
    payload = _payload(ent, 9, list(range(9)))
    assert not payload["integrable"]  # no nh or dstar Jacobiator reads the rows
    sysd = ent.system()
    sample = catalog.sample_entry_points(ent, 9, 3)
    bad = sample[4]
    residual_phase = geometry.residual_phase

    def vanishing_at_bad(sys, s):
        keep = (numdiff.float_core(s[0]) != bad.q[0]) * 1.0  # a float, or one per point
        return [r * keep for r in residual_phase(sys, s)]

    monkeypatch.setattr(geometry, "residual_phase", vanishing_at_bad)
    with pytest.raises(SplittingDegenerateError) as chunk:
        verification._chunk_worker(payload)
    observables = catalog.observable_test_set(sysd)
    with pytest.raises(SplittingDegenerateError) as alone:
        verification._chunk_metrics(sysd, [geometry.on_m_point(sysd, bad)], observables)
    assert str(chunk.value) == str(alone.value)
    with pytest.raises(SplittingDegenerateError) as trio:
        geometry.tangent_splitting(sysd, sample[3:6])
    assert str(trio.value) == str(alone.value)
    for x in (sample[3], sample[5]):  # the points beside it are regular
        verification._chunk_metrics(sysd, [geometry.on_m_point(sysd, x)], observables)


PARTICLE = catalog.get_entry("nonholonomic_particle")
USER_FRAME_SOURCE = (Path(__file__).parent / "data" / "particle_user_frame.system").read_text()
# (source, region, momentum scale): the catalog systems, the particle with a
# user frame, and the particle with y in [-3, 3], whose sample holds two
# default frame plans
LINEAR_DATA_CASES = {
    **{e.id: (e.definition, e.sample_region, e.momentum_scale) for e in catalog.catalog_systems()},
    "particle_user_frame": (USER_FRAME_SOURCE, PARTICLE.sample_region, PARTICLE.momentum_scale),
    "particle_wide_y": (
        PARTICLE.definition, ((-1.0, 1.0), (-3.0, 3.0), (-1.0, 1.0)), PARTICLE.momentum_scale
    ),
}


@pytest.mark.parametrize("name", LINEAR_DATA_CASES)
def test_stacked_linear_data_is_bitwise_the_per_point_data(name):
    # each stacked build (the projection Jacobian, the splitting, the
    # algebroid) gives, row by row, the arrays of each point taken alone, and
    # so do the route tables and both field routes read from them
    source, region, scale = LINEAR_DATA_CASES[name]
    sysd = dsl.parse_system(source)
    sample = catalog.sample_m_points(sysd, 10, 21, region=region, momentum_scale=scale)
    observables = catalog.observable_test_set(sysd)

    def data(x, raw):
        dgam = geometry.dgamma(x)
        splitting = geometry.tangent_splitting(sysd, x)
        algebroid = geometry.almost_lie_algebroid(x)
        tables = brackets.bracket_route_tables(raw, dgam, splitting[0], *algebroid[:2])
        fields = [
            route(sysd, x).as_vector()
            for route in (dynamics.nonholonomic_field_multiplier, dynamics.nonholonomic_field_projection)
        ]
        return [dgam, *splitting, *algebroid, *tables.values(), *fields]

    points = geometry.on_m_point(sysd, sample)
    assert len(geometry.frame_plans(points)) == (2 if name == "particle_wide_y" else 1)
    stacked = data(points, np.stack([brackets.raw_rows(x, observables) for x in points]))
    for b, x in enumerate(sample):
        for got, want in zip(points[b].splitting, stacked[1:4]):  # filled by the stack
            assert got.tobytes() == want[b].tobytes()
        x = geometry.on_m_point(sysd, x)
        for got, want in zip(stacked, data(x, brackets.raw_rows(x, observables))):
            assert got[b].tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["holonomic_control", "chaplygin_sleigh"])
def test_a_failed_batched_jacobiator_falls_back_to_the_scalar_path(monkeypatch, name):
    payload = _payload(catalog.get_entry(name), 6, list(range(6)))
    batched = verification._chunk_worker(payload)
    kinds = []
    rows = brackets.jacobi_rows

    def refuse_stacks(sys, kind, triples, points):
        if len(points) > 1:
            raise DomainError("solve_linear", "non-finite pivot")
        kinds.append(kind)
        return rows(sys, kind, triples, points)

    monkeypatch.setattr(brackets, "jacobi_rows", refuse_stacks)
    assert verification._chunk_worker(payload) == batched
    per_point = ["canonical", "eden"] + (["nh", "dstar"] if payload["integrable"] else [])
    assert sorted(kinds) == sorted(per_point * 6)


PROBE_CASES = [(ent.id, ent.sample_region, 1) for ent in catalog.catalog_systems()]
PROBE_CASES.append(("nonholonomic_particle", TWO_PLAN_REGION, 2))


def reference_lie_bracket(X, Y, q):
    """[X, Y] = (DY) X - (DX) Y at one point: the Jacobian of each field
    alone, then the product with the other field's float values."""
    q = [float(v) for v in q]
    jx, jy = numdiff.jacobian(X, q), numdiff.jacobian(Y, q)
    xv = np.array([numdiff.float_core(v) for v in X(q)])
    yv = np.array([numdiff.float_core(v) for v in Y(q)])
    return jy @ xv - jx @ yv


@pytest.mark.parametrize("name, region, n_plans", PROBE_CASES)
def test_integrability_probe_brackets_are_the_scalar_lie_brackets(name, region, n_plans):
    sysd = catalog.get_system(name)
    plans = {}
    for x in catalog.sample_m_points(sysd, 12, 17, region=region):
        q = list(x.q)
        plans.setdefault(geometry.frame_at(sysd, q).free_cols, []).append(q)
    assert len(plans) == n_plans
    # the probe's fields: the frame columns, or X and q_0 X with one column
    pairs = [(a, b) for a in range(sysd.k) for b in range(a + 1, sysd.k)] or [(0, 1)]
    for free, qs in plans.items():
        def field(a):
            if sysd.k == 1 and a == 1:
                return lambda s: [s[0] * v for v in geometry.frame_apply(sysd, s, free)[0]]
            return lambda s: geometry.frame_apply(sysd, s, free)[a]

        got = verification._frame_brackets(sysd, free, qs)
        assert got.shape == (len(qs), len(pairs), sysd.n)
        for q, ws in zip(qs, got):
            for (a, b), w in zip(pairs, ws):
                ref = reference_lie_bracket(field(a), field(b), q)
                assert w.tobytes() == ref.tobytes()
                raw = brackets.lie_bracket_raw(sysd, field(a), field(b), q)
                assert raw.tobytes() == ref.tobytes()
