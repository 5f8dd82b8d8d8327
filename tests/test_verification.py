"""Per-point work of the verify sweep: one validation, one stacked pass per
chunk, one batched call per kind, one (points x suites) array."""

import functools
import math
from pathlib import Path

import numpy as np
import pytest

from nonholo import brackets, catalog, cli, dsl, dynamics, geometry, numdiff, verification
from nonholo.errors import DomainError, SplittingDegenerateError

VALIDATION = ("tangent_splitting", "metric_at", "constraints_at")
SUITE_NAMES = [name for name, _ in verification.SUITES]
JACOBI = [SUITE_NAMES.index("jacobiator_canonical"), SUITE_NAMES.index("jacobiator_defect")]


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
    """The sample validated, frames built, as ``_chunk_values`` gets it."""
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


def _scalar_jacobi(sysd, x, observables, integrable):
    """Both Jacobi suites at one point from the per-point ``jacobiator``, as
    the row (canonical, defect)."""
    triples = verification._jacobiator_triples(len(observables), sysd.n)
    f, g, h = ([observables[t[c]] for t in triples] for c in range(3))

    def jac(kind, f, g, h):
        return brackets.jacobiator(sysd, kind, f, g, h, x)

    defects = jac("eden", f, g, h)
    if integrable:
        push = {id(o): brackets.pushforward_observable(sysd, o) for o in f + g + h}
        fd, gd, hd = ([push[id(o)] for o in col] for col in (f, g, h))
        defects += jac("nh", f, g, h) + jac("dstar", fd, gd, hd)
    canonical = jac("canonical", f, g, h)
    return np.array([verification._max_abs(canonical), verification._max_abs(defects)])


@pytest.mark.parametrize("integrable", [True, False])
def test_point_metrics_call_the_jacobiator_once_per_kind(monkeypatch, integrable):
    sysd = catalog.get_system("nonholonomic_particle")
    points = _chunk_points(sysd, catalog.sample_m_points(sysd, 10, 5, region=TWO_PLAN_REGION))
    plans = {x.frame.free_cols for x in points}
    assert len(plans) == 2
    observables = catalog.observable_test_set(sysd)
    alone = np.stack([_scalar_jacobi(sysd, x, observables, integrable) for x in points])
    calls = []
    original = brackets.jacobi_rows

    def counted(sys, kind, triples, group):
        calls.append((kind, group[0].frame.free_cols if kind == "dstar" else None, len(group)))
        return original(sys, kind, triples, group)

    monkeypatch.setattr(brackets, "jacobi_rows", counted)
    monkeypatch.setattr(brackets, "jacobiator", None)  # the scalar path stays unused
    out = verification._jacobi_metrics(sysd, points, observables, integrable)
    expected = [("canonical", None, 10), ("eden", None, 10)]
    if integrable:
        expected.append(("nh", None, 10))
        expected += [
            ("dstar", free, sum(x.frame.free_cols == free for x in points)) for free in plans
        ]
    assert sorted(calls) == sorted(expected)
    assert out.tobytes() == alone.tobytes()
    assert out[:, 1].max() > verification.WITNESS_FLOOR


def _worker_args(ent, count, indices):
    """``_chunk_worker``'s arguments for the points ``indices`` of the seed-3
    sample of ``count`` points."""
    sample = catalog.sample_entry_points(ent, count, 3)
    integrable = verification._system_is_integrable(ent.system(), ent.sample_region, 3)
    return ent.definition, geometry.ON_M_TOL, integrable, [sample[i] for i in indices]


def _row(metrics, jacobi):
    """One point's ``_chunk_metrics`` row and Jacobi pair in ``SUITES`` order."""
    return np.insert(metrics, JACOBI[0], jacobi)


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_chunk_metrics_do_not_depend_on_the_batch(ent):
    # the batched lifts and the stacked suites cover whatever points a chunk
    # holds; every metric at an index is exactly its value in any other
    # chunk, and exactly the metric of the point taken alone at B = 1
    count = 14
    indices = list(range(count))
    args = _worker_args(ent, count, indices)
    full = verification._chunk_worker(*args)
    assert full.shape == (count, len(verification.SUITES))
    for chunk in (indices[::2], indices[1::2], [count - 1], [0]):
        part = verification._chunk_worker(*_worker_args(ent, count, chunk))
        assert part.tobytes() == full[chunk].tobytes()
    sysd = ent.system()
    points = catalog.sample_entry_points(ent, count, 3)
    observables = catalog.observable_test_set(sysd)
    for idx in (0, count - 1):
        x = geometry.on_m_point(sysd, points[idx])
        [alone] = verification._chunk_metrics(sysd, [x], observables)
        jacobi = _scalar_jacobi(sysd, geometry.on_m_point(sysd, points[idx]), observables, args[2])
        assert _row(alone, jacobi).tobytes() == full[idx].tobytes()


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_every_chunk_point_gets_both_jacobi_suites(
    monkeypatch, count_calls, ent
):
    # jacobian_batch and jacobi_rows seed their lifts over array cores;
    # no lift in the chunk runs over float cores, and no per-point jacobian
    # or gradient runs
    args = _worker_args(ent, 6, range(6))
    counts = count_calls(numdiff, ["jacobian", "gradient"])
    cores = []
    lift = numdiff.lift

    def recorded(values):
        values = list(values)
        cores.extend(type(numdiff.float_core(v)) for v in values)
        return lift(values)

    monkeypatch.setattr(numdiff, "lift", recorded)
    out = verification._chunk_worker(*args)
    assert counts == {"jacobian": 0, "gradient": 0}
    assert cores and set(cores) == {np.ndarray}
    assert out.shape == (6, len(verification.SUITES))
    assert (out[:, JACOBI] > -np.inf).all()  # no point is left at the fill value


class SerialPool:
    """A stand-in for the process pool that maps in this process and records
    how many processes were asked for."""

    asked = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_verify_workers_are_bounded_by_the_host(monkeypatch):
    monkeypatch.setattr(verification, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(SerialPool, "asked", [])
    # each process gets one run of consecutive points of the one sample
    chunks = []
    worker = verification._chunk_worker

    def counted(source, on_m_tol, integrable, sample):
        chunks.append(sample)
        return worker(source, on_m_tol, integrable, sample)

    monkeypatch.setattr(verification, "_chunk_worker", counted)
    ent = catalog.get_entry("nonholonomic_particle")
    sample = [x.q.tobytes() for x in catalog.sample_entry_points(ent, 5, 3)]

    def run(workers):
        return verification.run_verify(verification.VerifyConfig(
            system_source=ent.definition, system_label="particle", seed=3, count=5,
            workers=workers, region=ent.sample_region, momentum_scale=ent.momentum_scale,
        ))

    serial = run(1)
    assert chunks == []  # one process runs its points in place
    for cpus, workers, expected in ((2, 5, 2), (None, 5, 1), (8, 3, 3)):
        monkeypatch.setattr(verification.os, "cpu_count", lambda cpus=cpus: cpus)
        SerialPool.asked.clear()
        chunks.clear()
        assert run(workers) == serial
        assert SerialPool.asked == [expected]
        assert [len(c) for c in chunks] == [5 * (i + 1) // expected - 5 * i // expected
                                            for i in range(expected)]
        assert [x.q.tobytes() for c in chunks for x in c] == sample


@pytest.mark.parametrize("name", ["chaplygin_sleigh", "vertical_rolling_disk"])
def test_a_validation_error_is_the_samples_first_whatever_the_workers(monkeypatch, capsys, name):
    # at --tol 1e-16 several points of these samples are off M; the sample is
    # validated once, so a run of two processes names the point one does
    monkeypatch.setattr(verification, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verification.os, "cpu_count", lambda: 2)
    argv = ["verify", "--system", f"catalog:{name}", "--count", "40", "--seed", "1",
            "--tol", "1e-16"]
    outcomes = []
    for workers in ("1", "2"):
        code = cli.main([*argv, "--workers", workers])
        outcomes.append((code, *capsys.readouterr()))
    assert outcomes[0][:2] == (cli.EXIT_VALIDATION, "")
    assert outcomes[0][2].startswith("error: ") and outcomes[0][2].count("\n") == 1
    assert outcomes[1] == outcomes[0]


def _merged(column):
    """The value and index a suite reported before its column was reduced at
    once: a loop over the points in index order."""
    value, at = column[0], 0
    for idx, v in enumerate(column):
        if v > value or (math.isfinite(value) and not math.isfinite(v)):
            value, at = v, idx
    return value, at


@pytest.mark.parametrize("column, value, index", [
    ([1.0, math.inf, math.nan, 5.0], math.inf, 1),
    ([math.nan, math.inf], math.nan, 0),
    ([2.0, 5.0, 5.0], 5.0, 1),
    ([0.0, 0.0], 0.0, 0),
])
def test_a_suite_reports_its_first_non_finite_value_else_its_first_largest(
    monkeypatch, column, value, index
):
    assert repr(_merged(column)) == repr((value, index))
    rows = np.tile(np.array(column)[:, None], len(verification.SUITES))
    monkeypatch.setattr(verification, "_chunk_values", lambda sysd, points, integrable: rows)
    report = verification.run_verify(verification.VerifyConfig(
        system_source=PARTICLE.definition, system_label="particle", count=len(column),
        region=PARTICLE.sample_region, momentum_scale=PARTICLE.momentum_scale,
    ))
    assert [s["name"] for s in report["suites"]] == SUITE_NAMES
    for s in report["suites"]:
        assert repr((s["value"], s["worst_point_index"])) == repr((value, index))
        assert type(s["value"]) is float and type(s["worst_point_index"]) is int


def test_a_failed_batched_lift_falls_back_to_the_per_point_lift(monkeypatch):
    # the stacked build of the projection Jacobian, then of the algebroid's
    # chart Jacobian, then every stacked lift raises: the chunk's points
    # rerun alone, on float cores
    args = _worker_args(catalog.get_entry("chaplygin_sleigh"), 6, range(6))
    batched = verification._chunk_worker(*args)
    jacobian_batch = numdiff.jacobian_batch
    for builder in (geometry.gamma_hat_apply, geometry.dstar_chart, None):
        refused = []

        def refuse(F, X, builder=builder):  # a stack; one point lifts on float cores
            if len(X) > 1 and builder in (None, getattr(F, "func", None)):
                refused.append(len(X))
                raise DomainError("solve_linear", "non-finite pivot")
            return jacobian_batch(F, X)

        monkeypatch.setattr(numdiff, "jacobian_batch", refuse)
        assert verification._chunk_worker(*args).tobytes() == batched.tobytes()
        assert refused == [6]


def test_a_failed_stacked_pass_falls_back_to_the_per_point_pass(monkeypatch):
    # the chunk's stacked pass raises, and then each of its points runs alone
    # at B = 1
    count = verification._SLICE + 5
    args = _worker_args(catalog.get_entry("vertical_rolling_disk"), count, range(count))
    stacked = verification._chunk_worker(*args)
    sizes = []
    chunk_metrics = verification._chunk_metrics

    def refuse(sysd, points, observables):
        sizes.append(len(points))
        if len(points) > 1:
            raise DomainError("solve_linear", "non-finite pivot")
        return chunk_metrics(sysd, points, observables)

    monkeypatch.setattr(verification, "_chunk_metrics", refuse)
    assert verification._chunk_worker(*args).tobytes() == stacked.tobytes()
    assert sizes == [count] + [1] * count


def test_a_nan_point_in_a_stacked_pass_reports_as_it_would_alone(monkeypatch):
    # V = 1e308*x^3 overflows into NaN at points 8, 11, 12, 21, 23 and 24 of
    # this sample; the stacked passes carry them, and every point keeps the
    # values it has alone
    src = catalog.get_entry("nonholonomic_particle").definition.replace("V = 0", "V = 1e308*x^3")
    sysd = dsl.parse_system(src)
    count = 30
    points = catalog.sample_m_points(sysd, count, 1)
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
    chunk = verification._chunk_worker(src, geometry.ON_M_TOL, False, points)
    assert sizes == [count]
    # the route tables, which grow with n_obs^2, stay in bounded slices
    assert slices == [verification._SLICE, count - verification._SLICE]
    observables = catalog.observable_test_set(sysd)
    base_in_d = SUITE_NAMES.index("extension_field_base_in_distribution")
    nan_points = set()
    for idx, row in enumerate(chunk):
        x = geometry.on_m_point(sysd, points[idx])
        with np.errstate(over="ignore", invalid="ignore"):
            [alone] = verification._chunk_metrics(sysd, [x], observables)
        got = np.delete(row, JACOBI)
        assert [repr(v) for v in got.tolist()] == [repr(v) for v in alone.tolist()], idx
        if np.isnan(alone[base_in_d]):
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
    args = _worker_args(ent, 9, range(9))
    assert not args[2]  # not integrable: no nh or dstar Jacobiator reads the rows
    sysd = ent.system()
    sample = catalog.sample_entry_points(ent, 9, 3)
    bad = sample[4]
    residual_phase = geometry.residual_phase

    def vanishing_at_bad(sys, s):
        keep = (numdiff.float_core(s[0]) != bad.q[0]) * 1.0  # a float, or one per point
        return [r * keep for r in residual_phase(sys, s)]

    monkeypatch.setattr(geometry, "residual_phase", vanishing_at_bad)
    with pytest.raises(SplittingDegenerateError) as chunk:
        verification._chunk_worker(*args)
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
    args = _worker_args(catalog.get_entry(name), 6, range(6))
    batched = verification._chunk_worker(*args)
    kinds = []
    rows = brackets.jacobi_rows

    def refuse_stacks(sys, kind, triples, points):
        if len(points) > 1:
            raise DomainError("solve_linear", "non-finite pivot")
        kinds.append(kind)
        return rows(sys, kind, triples, points)

    monkeypatch.setattr(brackets, "jacobi_rows", refuse_stacks)
    assert verification._chunk_worker(*args).tobytes() == batched.tobytes()
    per_point = ["canonical", "eden"] + (["nh", "dstar"] if args[2] else [])
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
