import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from nonholo import catalog, dsl, dynamics, geometry
from nonholo.errors import (
    DomainError,
    InternalConsistencyError,
    NonholoError,
    NotOnMError,
    NotSPDError,
    RankDeficientError,
    StepFailureError,
)
from nonholo.system import Observable, PhasePoint, hamiltonian_observable
import reference
from reference import observable_evolution_check

SYS_A = catalog.get_system("holonomic_control")
SYS_B = catalog.get_system("nonholonomic_particle")
SYS_C = catalog.get_system("chaplygin_sleigh")


def test_hamiltonian_field_free_particle():
    v = dynamics.hamiltonian_field(SYS_A, PhasePoint(q=[0.0, 0.0], p=[1.0, 0.0]))
    assert np.array_equal(v.dq, [1.0, 0.0]) and np.array_equal(v.dp, [0.0, 0.0])
    v = dynamics.hamiltonian_field(SYS_B, PhasePoint(q=[0.0, 1.0, 0.0], p=[1.0, 0.0, 1.0]))
    assert np.allclose(v.dq, [1.0, 0.0, 1.0], atol=0) and np.allclose(v.dp, 0.0, atol=0)


def test_hamiltonian_field_constant_force():
    from nonholo import dsl

    sysd = dsl.parse_system(
        "[system]\nname = slope\ndim = 2\ncoords = q1, q2\n"
        "[metric]\nrow1 = 1, 0\nrow2 = 0, 1\n[potential]\nV = q1\n"
        "[constraint]\nform = 0, 1\n"
    )
    v = dynamics.hamiltonian_field(sysd, PhasePoint(q=[0.0, 0.0], p=[0.0, 0.0]))
    assert np.allclose(v.dq, 0.0, atol=0) and np.allclose(v.dp, [-1.0, 0.0], atol=0)


def closed_form_multiplier(x):
    # independent oracle for the particle system: lam = p_x p_y / (1 + y^2)
    return x.p[0] * x.p[1] / (1.0 + x.q[1] ** 2)


def test_multipliers_closed_form_and_fd():
    cases = [
        PhasePoint(q=[0.0, 1.0, 0.0], p=[1.0, 0.0, 1.0]),
        PhasePoint(q=[0.0, 1.0, 0.0], p=[1.0, 1.0, 1.0]),
    ]
    lams = [dynamics._free_field_and_multipliers(SYS_B, geometry.on_m_point(SYS_B, x))[1] for x in cases]
    assert np.allclose(lams[0], [0.0], atol=1e-14)
    assert np.allclose(lams[1], [0.5], atol=1e-14)
    for x in catalog.sample_entry_points(catalog.get_entry("nonholonomic_particle"), 20, 3):
        lam = dynamics._free_field_and_multipliers(SYS_B, geometry.on_m_point(SYS_B, x))[1]
        assert lam[0] == pytest.approx(closed_form_multiplier(x), abs=1e-10)
        # finite differences of the residual along the free flow
        h = 1e-6
        xh = dynamics.hamiltonian_field(SYS_B, x).as_vector()
        zp = np.concatenate([x.q, x.p]) + h * xh
        zm = np.concatenate([x.q, x.p]) - h * xh
        cdot = (
            geometry.velocity_constraint(SYS_B, zp[:3], zp[3:])
            - geometry.velocity_constraint(SYS_B, zm[:3], zm[3:])
        ) / (2 * h)
        cons = geometry.constraints_at(SYS_B, x.q)
        lam_fd = np.linalg.solve(cons.gram, cdot)
        assert np.max(np.abs(lam - lam_fd)) < 1e-8


def test_multipliers_require_on_m():
    with pytest.raises(NotOnMError):
        geometry.on_m_point(SYS_B, PhasePoint(q=[0.0, 1.0, 0.0], p=[0.0, 0.0, 1.0]))


def test_nonholonomic_field_examples():
    x = PhasePoint(q=[0.1, 0.7], p=[1.0, 0.0])
    v = dynamics.nonholonomic_field_multiplier(SYS_A, x)
    assert np.array_equal(v.dq, [1.0, 0.0]) and np.allclose(v.dp, 0.0, atol=0)
    x = PhasePoint(q=[0.0, 1.0, 0.0], p=[1.0, 0.0, 1.0])
    v = dynamics.nonholonomic_field_multiplier(SYS_B, x)
    assert np.allclose(v.dq, [1.0, 0.0, 1.0], atol=0) and np.allclose(v.dp, 0.0, atol=1e-14)
    x = PhasePoint(q=[0.0, 1.0, 0.0], p=[1.0, 1.0, 1.0])
    v = dynamics.nonholonomic_field_multiplier(SYS_B, x)
    assert np.allclose(v.dp, [-0.5, 0.0, 0.5], atol=1e-14)


def test_field_tangency():
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        n = sysd.n
        for x in catalog.sample_entry_points(ent, 25, 11):
            xv = dynamics.nonholonomic_field_multiplier(sysd, x).as_vector()
            rows = geometry.splitting_rows(sysd, x.scalars())
            dc = np.asarray(rows[: sysd.n_constraints], dtype=float)
            assert np.max(np.abs(dc @ xv)) < 1e-9


def test_two_route_agreement():
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        for x in catalog.sample_entry_points(ent, 50, 13):
            a = dynamics.nonholonomic_field_multiplier(sysd, x).as_vector()
            b = dynamics.nonholonomic_field_projection(sysd, x).as_vector()
            assert np.max(np.abs(a - b)) < 1e-9
            # the projected field has no component in the complement
            _, Q, _ = geometry.tangent_splitting(sysd, x)
            assert np.max(np.abs(Q @ b)) < 1e-10


def test_field_evaluator_matches_public_field():
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        ev = dynamics.FieldEvaluator(sysd)
        for x in catalog.sample_entry_points(ent, 20, 17):
            fast, lam, c, H = ev.evaluate(x.q, x.p)
            ref = dynamics.nonholonomic_field_multiplier(sysd, x).as_vector()
            assert np.max(np.abs(fast - ref)) < 1e-11
            _, ref_lam = dynamics._free_field_and_multipliers(sysd, geometry.on_m_point(sysd, x))
            assert np.max(np.abs(lam - ref_lam)) < 1e-11


DATA = Path(__file__).parent / "data"
ORACLE_SYSTEMS = [(e.id, e.system, e) for e in catalog.catalog_systems()] + [
    (name, lambda name=name: dsl.parse_system((DATA / f"{name}.system").read_text()), None)
    for name in ("disk_with_potential", "all_primitives")
]


@pytest.mark.parametrize("name, make, ent", ORACLE_SYSTEMS, ids=[s[0] for s in ORACLE_SYSTEMS])
def test_compiled_field_matches_the_numpy_assembly(name, make, ent):
    """The emitted field against the numpy assembly it replaced, at 50 seeded
    points on M and at off-M stage-like points (p kicked by a seeded normal):
    xdot, lam, c and H within 1e-13 of the oracle, relative to the largest
    of its entries or 1."""
    sysd = make()
    ev, rng = dynamics.FieldEvaluator(sysd), np.random.default_rng(31)
    if ent is not None:
        points = [(x.q, x.p) for x in catalog.sample_entry_points(ent, 50, 31)]
    else:  # all_primitives is defined for positive coordinates
        qs = rng.uniform(0.25, 1.75, (50, sysd.n))
        points = [(q, geometry.eden_project(sysd, q, rng.normal(size=sysd.n))) for q in qs]
    for q, on_m in points:
        for p in (on_m, on_m + rng.normal(scale=0.5, size=sysd.n)):
            for got, want in zip(ev.evaluate(q, p), reference.field(sysd, q, p)):
                got, want = np.atleast_1d(got), np.atleast_1d(want)
                assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


TWO_ROWS = (("1, 0, 0", "0, 1, 0", "0, 0, 1"), ("y, 0, 1", "1, 0, y"))  # dependent at y = 1


@pytest.mark.parametrize("system, q", [
    (TWO_ROWS, [0.0, 1.0, 0.0]),  # an exact zero pivot of the Gram matrix
    (TWO_ROWS, [0.0, float("nan"), 0.0]),  # a NaN pivot
    ((("1 - x, 0", "0, 1"), "0, 1"), [1.5, 0.0]),  # the metric's pivot
], ids=["dependent-rows", "nan-rows", "singular-metric"])
def test_a_stage_without_a_factor_raises_a_package_error(system, q):
    # a LinAlgError, ZeroDivisionError or ValueError would escape pytest.raises
    sysd = _system(*system)
    with pytest.raises(NonholoError):
        dynamics.FieldEvaluator(sysd).evaluate(np.array(q), np.ones(sysd.n))


@pytest.mark.parametrize("system, q", [
    ((("1 + x*x, 0, 0", "0, 1, 0", "0, 0, 1"), TWO_ROWS[1]), [0.0, 1.0, 0.0]),  # the Gram matrix's pivot
    ((("1 - x, 0", "0, 1"), "0, 1"), [1.5, 0.0]),  # the metric's
], ids=["gram", "metric"])
def test_a_failed_pivot_where_geometry_passes_is_an_internal_error(monkeypatch, system, q):
    # the field program and geometry factor alike, so a pivot that fails in
    # the program where geometry's checks pass is the package's own fault
    monkeypatch.setattr(geometry, "validated", lambda *args, **kwargs: None)
    sysd = _system(*system)
    with pytest.raises(InternalConsistencyError, match="^the field program failed where geometry passes"):
        dynamics.FieldEvaluator(sysd).evaluate(np.array(q), np.ones(sysd.n))


def test_integrate_straight_line():
    traj = dynamics.integrate(
        SYS_A, PhasePoint(q=[0.0, 0.0], p=[1.0, 0.0]), 0.0, 1.0, 1e-3
    )
    assert len(traj) == 1001
    assert np.max(np.abs(traj.points[-1].x.q - [1.0, 0.0])) < 1e-10
    assert traj.points[-1].t == pytest.approx(1.0, abs=1e-12)


def test_integrate_evaluates_once_per_accepted_state(monkeypatch):
    # the start's evaluation, three stage evaluations per step, and one state
    # program per later accepted state
    calls = {"evaluate": 0, "state": 0}
    for name in calls:
        original = getattr(dynamics.FieldEvaluator, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(dynamics.FieldEvaluator, name, counted)
    traj = dynamics.integrate(SYS_A, PhasePoint(q=[0.0, 0.0], p=[1.0, 0.0]), 0.0, 0.1, 0.01)
    assert len(traj) == 11
    assert calls == {"evaluate": 1 + 3 * 10, "state": 10}


@pytest.mark.parametrize("project", (True, False))
@pytest.mark.parametrize("name", ("nonholonomic_particle", "chaplygin_sleigh", "vertical_rolling_disk"))
def test_accepted_states_take_the_compiled_checks(monkeypatch, name, project):
    # a 200-step run validates through geometry only its start: every later
    # state passes the state program's own checks and screens
    ent = catalog.get_entry(name)
    x0 = catalog.sample_entry_points(ent, 1, 9)[0]
    at, validated = [], geometry.validated

    def recorded(sys, q, *args, **kwargs):
        at.append(q.tolist())
        return validated(sys, q, *args, **kwargs)

    monkeypatch.setattr(geometry, "validated", recorded)
    traj = dynamics.integrate(ent.system(), x0, 0.0, 0.4, 0.002, project_each_step=project)
    assert len(traj) == 201
    assert at and all(q == [x0.q.tolist()] for q in at)


def test_integrate_conservation_and_projection():
    q0 = [0.0, 0.2, 0.0]
    p0 = geometry.eden_project(SYS_B, q0, [1.0, 1.0, 1.0])
    traj = dynamics.integrate(SYS_B, PhasePoint(q=q0, p=p0), 0.0, 2.0, 1e-3)
    hs = np.array([pt.H for pt in traj])
    cs = max(float(np.max(np.abs(pt.c))) for pt in traj)
    assert np.max(np.abs(hs - hs[0])) < 1e-10
    assert cs < 1e-12


def test_integrate_validates_inputs():
    x0 = PhasePoint(q=[0.0, 0.0], p=[1.0, 0.0])
    with pytest.raises(ValueError):
        dynamics.integrate(SYS_A, x0, 0.0, 1.0, -1e-3)
    with pytest.raises(ValueError):
        dynamics.integrate(SYS_A, x0, 1.0, 0.0, 1e-3)
    with pytest.raises(NotOnMError):
        dynamics.integrate(SYS_B, PhasePoint(q=[0, 0.2, 0], p=[0, 0, 1.0]), 0.0, 1.0, 1e-3)


def test_unprojected_boundary_enforcement():
    q0 = [0.0, 0.2, 0.0]
    p0 = geometry.eden_project(SYS_B, q0, [1.0, 1.0, 1.0])
    with pytest.raises(StepFailureError) as exc:
        dynamics.integrate(
            SYS_B, PhasePoint(q=q0, p=p0), 0.0, 1.0, 1e-2,
            project_each_step=False, on_m_tol=1e-16,
        )
    assert exc.value.trajectory is not None and len(exc.value.trajectory) >= 1


def test_reversibility_via_momentum_reflection():
    q0 = [0.0, 0.2, 0.0]
    p0 = geometry.eden_project(SYS_B, q0, [1.0, 1.0, 1.0])
    fwd = dynamics.integrate(SYS_B, PhasePoint(q=q0, p=p0), 0.0, 1.0, 1e-3)
    x1 = fwd.points[-1].x
    back = dynamics.integrate(SYS_B, PhasePoint(q=x1.q, p=-x1.p), 0.0, 1.0, 1e-3)
    x2 = back.points[-1].x
    assert np.max(np.abs(x2.q - q0)) < 1e-7
    assert np.max(np.abs(-x2.p - p0)) < 1e-7


def test_refinement_confirms_fourth_order():
    q0 = [0.0, 0.2, 0.0]
    p0 = geometry.eden_project(SYS_B, q0, [1.0, 1.0, 1.0])
    x0 = PhasePoint(q=q0, p=p0)
    drift = {}
    for dt in (0.04, 0.02):
        traj = dynamics.integrate(SYS_B, x0, 0.0, 5.0, dt, project_each_step=False)
        hs = np.array([pt.H for pt in traj])
        drift[dt] = float(np.max(np.abs(hs - hs[0])))
    assert drift[0.04] / drift[0.02] >= 12.0


def test_observable_evolution_check():
    q0 = [0.0, 0.2, 0.0]
    p0 = geometry.eden_project(SYS_B, q0, [1.0, 1.0, 1.0])
    traj = dynamics.integrate(SYS_B, PhasePoint(q=q0, p=p0), 0.0, 0.25, 1e-3)
    const = Observable(label="1", fn=lambda s: 1.0)
    assert observable_evolution_check(SYS_B, traj, const) < 1e-12
    h_obs = hamiltonian_observable(SYS_B)
    assert observable_evolution_check(SYS_B, traj, h_obs) < 1e-6
    fx = Observable.from_expression(SYS_B, "x")
    assert observable_evolution_check(SYS_B, traj, fx) < 1e-5


def test_observable_evolution_check_keeps_a_nan():
    q0 = [0.0, 0.2, 0.0]
    p0 = geometry.eden_project(SYS_B, q0, [1.0, 1.0, 1.0])
    traj = dynamics.integrate(SYS_B, PhasePoint(q=q0, p=p0), 0.0, 0.01, 1e-3)
    # NaN on floats only: every finite-difference rate is NaN, the brackets are not
    rate_nan = Observable(label="x", fn=lambda s: s[0] if type(s[0]) is not float else float("nan"))
    assert np.isnan(observable_evolution_check(SYS_B, traj, rate_nan))
    # NaN brackets fail the cross-check of the two forms
    nan = Observable(label="nan", fn=lambda s: s[0] * float("nan"))
    with pytest.raises(InternalConsistencyError):
        observable_evolution_check(SYS_B, traj, nan)


def test_field_routes_require_on_m():
    off = PhasePoint(q=[0.0, 0.5, 0.0], p=[0.0, 0.0, 1.0])  # residual 1
    for route in (dynamics.nonholonomic_field_projection, dynamics.nonholonomic_field_multiplier):
        with pytest.raises(NotOnMError):
            route(SYS_B, off)
        # a point validated at a loose tolerance is checked again at the
        # caller's tolerance
        loose = geometry.require_on_m(SYS_B, off.q, off.p, on_m_tol=10.0)
        with pytest.raises(NotOnMError):
            route(SYS_B, loose)
        route(SYS_B, loose, on_m_tol=10.0)


def _system(metric, constraint, potential="0"):
    """A system of the metric rows and the constraint row, or rows."""
    rows = "".join(f"row{i + 1} = {r}\n" for i, r in enumerate(metric))
    forms = "".join(f"[constraint]\nform = {c}\n" for c in ([constraint] if type(constraint) is str else constraint))
    return dsl.parse_system(
        f"[system]\nname = t\ndim = {len(metric)}\ncoords = {', '.join('xyzw'[: len(metric)])}\n"
        f"[metric]\n{rows}[potential]\nV = {potential}\n{forms}"
    )


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_the_state_program_projects_as_eden_project(ent):
    """At 50 sampled points, off M by a seeded kick, the state program's
    projection is within 1e-14 max(1, max |p|) of ``eden_project``'s, and its
    field is bitwise ``evaluate`` at its p; without projection, p is kept and
    the field is bitwise too."""
    sysd = ent.system()
    ev, n = dynamics.FieldEvaluator(sysd), sysd.n
    rng = np.random.default_rng(15)
    for x in catalog.sample_entry_points(ent, 50, 15):
        p = x.p + rng.normal(scale=0.5, size=sysd.n)
        out = ev.state(x.q, p)
        projected = geometry.eden_project(sysd, x.q, p)
        assert np.max(np.abs(np.array(out[-n:]) - projected)) <= 1e-14 * max(1.0, np.max(np.abs(p)))
        assert _bits(*_flat(ev.evaluate(x.q, out[-n:]))) == _bits(*out[:-n])
        out = ev.state(x.q, p, project=False)
        assert _bits(out[-n:]) == _bits(p) and _bits(*_flat(ev.evaluate(x.q, p))) == _bits(*out[:-n])


def _flat(field):
    """``evaluate``'s (xdot, lam, c, H) in the state program's order."""
    xdot, lam, c, H = field
    return [*xdot, H, *c, *lam]


SINGULAR_GRAM_Q = [0.5785034702341596, 0.21720312487545024, -0.8406728309160272]


@pytest.mark.parametrize(
    "metric, constraint, q",
    [
        (("1 - x, 0", "0, 1"), "0, 1", [1.5, 0.0]),  # not positive definite past x = 1
        (("1, 2", "2, 1"), "0, 1", [0.2, 0.0]),  # a constant metric that is not SPD
        (("1, 0", "0, 1"), "0, 1e308*10*x", [0.5, 0.0]),  # non-finite constraint rows
        (("1, 0", "0, 1"), "x - x, 0", [0.5, 0.0]),  # a vanishing constraint row
    ],
    ids=["singular-metric", "constant-not-spd", "non-finite-rows", "dependent-rows"],
)
def test_field_evaluator_project_raises_as_eden_project(metric, constraint, q):
    # the state program's projection fails there, and geometry raises its error
    sysd = _system(metric, constraint)
    with pytest.raises(NonholoError) as want, np.errstate(all="ignore"):
        geometry.eden_project(sysd, q, [1.0, 1.0])
    with pytest.raises(type(want.value)) as got, np.errstate(all="ignore"):
        dynamics.FieldEvaluator(sysd).state(q, [1.0, 1.0])
    assert str(got.value) == str(want.value)


def test_a_constant_metric_that_fails_the_rule_returns_unconditionally():
    # its pivots fold as the source is emitted: the field program returns 0.0
    # before any test, and evaluate raises geometry's error
    ev = dynamics.FieldEvaluator(_system(("1, 2", "2, 1"), "0, 1"))
    assert "\n    return 0.0\n" in ev._field.source and " > 0.0" not in ev._field.source
    with pytest.raises(NotSPDError, match=r"^metric is not positive definite at q=\[0\.2, 0\.0\]$"):
        ev.evaluate([0.2, 0.0], [1.0, 1.0])


def test_a_singular_gram_solve_is_a_rank_error():
    # mu mu^T is singular here, and LAPACK's Gram solve meets a zero pivot:
    # the rows' check refuses the point first, on both paths
    source = catalog.get_entry("nonholonomic_particle").definition
    sysd = dsl.parse_system(source + "\n[constraint]\nform = y, 0, exp(-30*x) - 1\n")
    p = [-0.3818144525703697, 0.3337808175111099, -0.3091458786446881]
    for project in (functools.partial(geometry.eden_project, sysd), dynamics.FieldEvaluator(sysd).state):
        with pytest.raises(RankDeficientError, match=r"^constraint rows are dependent at q=\[0\.578"):
            project(SINGULAR_GRAM_Q, p)


def test_a_failed_shared_projection_stops_the_run_with_its_error(monkeypatch, capsys):
    """A state whose shared pass raises stops the run with that pass's error
    (exit 3 at the command line); the rows before it are bitwise the run's."""
    from nonholo import cli

    x0 = catalog.sample_entry_points(catalog.get_entry("chaplygin_sleigh"), 1, 4)[0]
    shared = dynamics.integrate(SYS_C, x0, 0.0, 0.1, 1e-3)
    state, calls = dynamics.FieldEvaluator.state, [0]

    def fails_at_state_40(self, q, p, project=True):
        calls[0] += 1  # the start, state 0, takes evaluate
        if calls[0] == 40:
            raise DomainError("sqrt", "derivative unbounded at 0")
        return state(self, q, p, project)

    monkeypatch.setattr(dynamics.FieldEvaluator, "state", fails_at_state_40)
    message = "integration stopped: domain error in 'sqrt': derivative unbounded at 0"
    with pytest.raises(StepFailureError) as info:
        dynamics.integrate(SYS_C, x0, 0.0, 0.1, 1e-3)
    assert str(info.value) == message
    assert type(info.value.__cause__) is DomainError
    assert info.value.trajectory.rows.tobytes() == shared.rows[:40].tobytes()
    # at the command line: exit 3, that error, and the rows before it
    calls[0] = 0
    capsys.readouterr()
    argv = ["simulate", "--system", "catalog:chaplygin_sleigh", "--t1", "0.1", "--dt", "1e-3",
            "--format", "csv", "--q0=" + ",".join(map(repr, x0.q.tolist())),
            "--p0=" + ",".join(map(repr, x0.p.tolist()))]
    assert cli.main(argv) == cli.EXIT_STEP_FAILURE
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    monkeypatch.setattr(dynamics.FieldEvaluator, "state", state)
    assert cli.main(argv) == cli.EXIT_OK
    assert out.splitlines() == capsys.readouterr().out.splitlines()[:41]  # header and 40 rows


PARTICLE = catalog.get_entry("nonholonomic_particle").definition
BOUNDS = {"metric": geometry.METRIC_BOUND, "rows": geometry.ROWS_BOUND, "gram": geometry.GRAM_BOUND}


def _rotated(kappa, angle=0.3):
    """The metric rows of R diag(1, 1/kappa) R^T, R the rotation by angle,
    q-dependent (x*x on the diagonal, 0 at q = 0)."""
    c, s = np.cos(angle), np.sin(angle)
    G = np.array([[c, -s], [s, c]]) @ np.diag([1.0, 1.0 / kappa]) @ np.array([[c, s], [-s, c]])
    a, b, d = (float(v) for v in (G[0, 0], G[0, 1], G[1, 1]))
    return (f"{a!r} + x*x, {b!r}", f"{b!r}, {d!r} + x*x")


def _straddle(factor, st):
    """A system whose ``factor`` has s t = st at q = 0 and whose other two
    factors pass with room: diagonal metric and rows, as (metric, rows)."""
    if factor == "metric":  # diag(1, 1/st)
        return ("1 + x*x, 0", f"0, {1.0 / st!r} + x*x"), "1, 1"
    d = float(np.sqrt(1.0 / st))  # rows diag(1, d): mu mu^T has s t 1/d^2 = st
    if factor == "rows":  # G^-1 = diag(1, 100, 1): the Gram matrix's s t is st/100
        return ("1 + x*x, 0, 0", "0, 0.01, 0", "0, 0, 1"), ("1, 0, 0", f"0, {d!r}, 0")
    d = float(np.sqrt(1.0 / np.sqrt(st)))  # metric and rows at sqrt(st), the Gram matrix at st
    return (f"{d * d!r} + x*x, 0, 0", "0, 1, 0", "0, 0, 1"), ("1, 0, 0", f"0, {d!r}, 0")


# name: (system, q, the first words of validated's error there, or None)
STATE_CASES = {
    # symmetric to 1e-17 where the parser probes, |q| <= 1
    "asymmetric-0.5e-9": ((("2, 1e-9*exp(20*(x - 3))", "0, 2"), "0, 1"), [3.0, 0.0], None),
    "asymmetric-2e-9": ((("2, 4e-9*exp(20*(x - 3))", "0, 2"), "0, 1"), [3.0, 0.0], "metric is not symmetric"),
    # LAPACK's inverse has |G X - I| 4.7e-11 and 1.2e-10 here; s t is 7e5 and 8e5
    "inverse-residual-4.7e-11": ((("1 + x, 1 - 7e-7", "1 - 7e-7, 1"), "1, 1"), [0.0, 0.0], None),
    "inverse-residual-1.2e-10": ((("1 + x, 1 - 6e-7", "1 - 6e-7, 1"), "1, 1"), [0.0, 0.0], None),
    # the rows' singular values differ by about 1e-9 and 1e-11
    "rows-1e-9": (((*TWO_ROWS[0],), ("1 + x, 0, 0", "1, 2e-9, 0")), [0.0, 0.0, 0.0], "constraint rows are dependent"),
    "rows-1e-11": (((*TWO_ROWS[0],), ("1 + x, 0, 0", "1, 2e-11, 0")), [0.0, 0.0, 0.0], "constraint rows are dependent"),
    "nan-metric": ((("1 + 1e308*10*x, 0", "0, 1 + x"), "0, 1"), [0.0, 0.0], "metric has non-finite"),
    "inf-metric": ((("1 + 1e308*10*x, 0", "0, 1 + x"), "0, 1"), [0.5, 0.0], "metric has non-finite"),
    "nan-rows": ((("1, 0", "0, 1"), "0, 1e308*10*x"), [0.0, 0.0], "constraint rows non-finite"),
    "inf-rows": ((("1, 0", "0, 1"), "0, 1e308*10*x"), [0.5, 0.0], "constraint rows non-finite"),
    # finite entries whose sum overflows
    "overflowing-sum": ((("1.5e308 + x, 0", "0, 1.5e308 + x"), "1, 1"), [0.0, 0.0], None),
    "singular-gram": (PARTICLE + "\n[constraint]\nform = y, 0, exp(-30*x) - 1\n", SINGULAR_GRAM_Q,
                      "constraint rows are dependent"),
    "well-posed": ((("2 + x*x, 1e-9", "1e-9, 2 + x*x"), "1 + x, 1"), [0.5, 0.0], None),
    "diagonal-1e15": ((("1 + x*x, 0", "0, 1e-15 + x*x"), "1, 1"), [0.0, 0.0], "metric is too ill-conditioned"),
    "rotated-1e15": ((_rotated(1e15), "1, 1"), [0.0, 0.0], "metric is too ill-conditioned"),
}
for factor, bound in BOUNDS.items():
    q0 = [0.0] * (2 if factor == "metric" else 3)
    words = {"metric": "metric is too ill-conditioned", "rows": "constraint rows are dependent",
             "gram": "constraint Gram matrix is not positive definite"}[factor]
    STATE_CASES[f"{factor}-0.98"] = (_straddle(factor, 0.98 * bound), q0, None)
    STATE_CASES[f"{factor}-1.02"] = (_straddle(factor, 1.02 * bound), q0, words)


def _outcome(f, *args):
    try:
        return f(*args)
    except NonholoError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("project", (True, False))
@pytest.mark.parametrize("case", STATE_CASES)
def test_the_state_program_passes_only_where_validated_passes(case, project):
    """At each case the state program passes exactly where
    ``geometry.validated`` passes (``eden_project``), and there its p is
    within 1e-14 of eden_project's; elsewhere the state path raises
    validated's type and message."""
    system, q, words = STATE_CASES[case]
    sysd = dsl.parse_system(system) if type(system) is str else _system(*system)
    ev, q, p = dynamics.FieldEvaluator(sysd), np.array(q), np.ones(sysd.n) / sysd.n
    with np.errstate(all="ignore"):
        want = _outcome(geometry.eden_project, sysd, q, p)
        got = _outcome(ev.state, q, p, project)
        compiled = ev._states[project]([*q, *p]) if project in ev._states else 0.0
    if words is not None:
        assert type(want) is tuple and want[1].startswith(words), want
        assert got == want and type(compiled) is float
    else:
        assert type(want) is not tuple and type(compiled) is tuple
        assert np.max(np.abs(np.array(got[-sysd.n :]) - (want if project else p))) <= 1e-14


def _diagonal_system(n, last, vary=" + x0*x0"):
    """A system of dimension n whose metric is diag(1, ..., 1, last) at q =
    0, each diagonal entry plus ``vary`` (constant with ""), with the one
    constraint row e_n."""
    entry = [f"{last!r}{vary}" if i == n - 1 else f"1{vary}" for i in range(n)]
    rows = "".join(f"row{i + 1} = {', '.join(entry[i] if j == i else '0' for j in range(n))}\n" for i in range(n))
    return dsl.parse_system(
        f"[system]\nname = t\ndim = {n}\ncoords = {', '.join(f'x{i}' for i in range(n))}\n"
        f"[metric]\n{rows}[potential]\nV = 0\n[constraint]\nform = {', '.join(['0'] * (n - 1) + ['1'])}\n"
    )


@pytest.mark.parametrize("n", range(2, 11))
def test_the_metric_screen_passes_up_to_its_condition_bound(n):
    """diag(1, ..., 1, 1/kappa) passes the state program and
    ``geometry.validated`` at kappa 1 and 0.98 of ``METRIC_BOUND``, where the
    state path's projection is ``eden_project``'s, and fails both at 1.02 of
    it, with validated's error: the same bound at every n, for a q-dependent
    metric and for a constant one, whose checks fold as they are emitted."""
    bound = geometry.METRIC_BOUND
    for kappa, vary in itertools.product((1.0, 0.98 * bound, 1.02 * bound), (" + x0*x0", "")):
        sysd, q, p = _diagonal_system(n, 1.0 / kappa, vary), np.zeros(n), np.ones(n) / n
        ev = dynamics.FieldEvaluator(sysd)
        if kappa <= bound:
            out = ev.state(q, p)
            assert np.max(np.abs(np.array(out[-n:]) - geometry.eden_project(sysd, q, p))) <= 1e-14
        else:
            for path in (ev.state, functools.partial(geometry.eden_project, sysd)):
                with pytest.raises(NotSPDError, match=r"^metric is too ill-conditioned at q=\[0\.0"):
                    path(q, p)
        assert (type(ev._states[True]([*q, *p])) is tuple) == (kappa <= bound)


def test_a_dual_domain_error_in_the_shared_pass_is_left_to_eden_project():
    # sqrt(x*x) is 0 at x = 0 as a float, but its dual derivative is
    # unbounded: the state program's forward pass raises, eden_project passes
    sysd = _system(("1 + sqrt(x*x), 0", "0, 1"), "0, 1")
    with pytest.raises(DomainError):
        dynamics.FieldEvaluator(sysd).state([0.0, 0.0], [0.0, 1.0])
    assert geometry.eden_project(sysd, [0.0, 0.0], [0.0, 1.0]).tolist() == [0.0, 0.0]


class _Fixed:
    """A system whose metric and rows are the same floats at every q."""

    def __init__(self, G, mu):
        self.G, self.mu = G.tolist(), mu.tolist()

    def metric_values(self, q_s):
        return self.G

    def mu_values(self, q_s):
        return self.mu


def _state_program(n, m):
    """The emitted accepted-state program of a system with a q-dependent n x
    n metric and m rows, each entry an input after (q, p): s = (q, p, G, mu)."""
    shape = type("Shape", (), {"n": n, "n_constraints": m})
    entries = [f"g{i}" for i in range(n * n)] + [f"m{i}" for i in range(m * n)]
    exprs = [dsl.Var(e) for e in entries[: n * n]] + [dsl.Num(0.0)] + [dsl.Var(e) for e in entries[n * n :]]
    names = [f"q{i}" for i in range(n)] + [f"p{i}" for i in range(n)] + entries
    return dsl.compile_forward(exprs, names, None, dynamics._assembly(shape, True))


def _random_case(rng, n, m):
    """(G, mu) with random rotations and scales 1e-3 to 1e3, where one
    factor's kappa is log-uniform from 0.1 to 1000 times its bound, so that
    its s t (kappa/k^2 to kappa) straddles it: the metric's, the rows', or
    the Gram matrix's, with the metric's and the rows' kappa its square root
    each and G's small eigenvalues under the rows' large singular values."""
    factor = rng.choice(list(BOUNDS))
    kappa = BOUNDS[factor] * 10.0 ** rng.uniform(-1.0, 3.0)
    low = rng.uniform(1.0, 10.0, 2)
    k_g, k_r = {"metric": (kappa, low[0]), "rows": (low[1], kappa)}.get(factor, (kappa**0.5,) * 2)
    U, V, W = (np.linalg.qr(rng.normal(size=(k, k)))[0] for k in (m, n, n))
    mu = U @ np.diag(np.geomspace(1.0, k_r**-0.5, m)) @ V[:m]
    if factor == "gram":
        W, lam = V, np.concatenate([np.geomspace(1.0 / k_g, 1.0, m), np.ones(n - m)])
    else:
        lam = np.geomspace(1.0, 1.0 / k_g, n)
    G = W.T @ np.diag(lam) @ W * 10.0 ** rng.uniform(-3, 3)
    return 0.5 * (G + G.T), mu * 10.0 ** rng.uniform(-3, 3)


def test_geometry_and_the_state_program_reach_the_same_verdict():
    """On 1200 seeded metrics and rows, n 2 to 6 and m 1 to 3, geometry's
    rule over a stack, geometry.validated at each lone point and the emitted
    state program pass or fail alike."""
    rng, seen = np.random.default_rng(31), set()
    for n in range(2, 7):
        for m in range(1, min(n - 1, 3) + 1):
            program, cases = _state_program(n, m), [_random_case(rng, n, m) for _ in range(1200 // 12)]
            G, mu = (np.array(c) for c in zip(*cases))
            # geometry's codes over the stack, one row per case
            stacked = (geometry._codes(n, m, mu.reshape(len(mu), -1), geometry._tril(G)) == 0).tolist()
            for b, (Gb, mub) in enumerate(cases):
                try:
                    geometry.validated(_Fixed(Gb, mub), np.zeros((1, n)))
                    alone = True
                except NonholoError:
                    alone = False
                compiled = type(program([0.0] * n + [1.0] * n + [*Gb.ravel(), *mub.ravel()])) is tuple
                assert stacked[b] == alone == compiled, (n, m, b)
                seen.add(alone)
    assert seen == {True, False}


@pytest.mark.parametrize("project", (True, False))
def test_a_constant_metric_is_validated_once_per_trajectory(count_calls, project):
    # the start's validation alone: the programs' checks of a constant metric
    # fold away as they are emitted, and nothing calls metric_at
    q0 = [0.0, 0.2, 0.0]
    x0 = PhasePoint(q=q0, p=geometry.eden_project(SYS_B, q0, [1.0, 1.0, 1.0]))
    counts = count_calls(geometry, ["_metric_checks", "metric_at"])
    for t1 in (0.01, 0.05):
        counts.update(_metric_checks=0, metric_at=0)
        dynamics.integrate(SYS_B, x0, 0.0, t1, 1e-3, project_each_step=project)
        assert counts == {"_metric_checks": 1, "metric_at": 0}


def test_a_no_project_run_validates_each_state_from_its_evaluation(count_calls):
    # the sleigh's metric depends on q; each accepted state is checked by the
    # state program from the dual pass that evaluates it, not by metric_at on
    # the float closures, and geometry's metric checks run for the start alone
    x0 = catalog.sample_entry_points(catalog.get_entry("chaplygin_sleigh"), 1, 4)[0]
    counts = count_calls(geometry, ["metric_at", "_metric_checks"])
    for t1 in (0.01, 0.05):
        counts.update(metric_at=0, _metric_checks=0)
        traj = dynamics.integrate(SYS_C, x0, 0.0, t1, 1e-3, project_each_step=False)
        assert len(traj) == round(t1 / 1e-3) + 1
        assert counts == {"metric_at": 0, "_metric_checks": 1}


def test_trajectory_points_are_built_from_the_rows():
    q0 = [0.0, 0.2, 0.0]
    x0 = PhasePoint(q=q0, p=geometry.eden_project(SYS_B, q0, [1.0, 1.0, 1.0]))
    traj = dynamics.integrate(SYS_B, x0, 0.0, 0.01, 1e-3)
    assert traj.rows.shape == (11, 2 + 2 * 3 + 2 * 1) and len(traj) == 11
    points = traj.points
    assert [pt.t for pt in traj] == [pt.t for pt in points] == traj.rows[:, 0].tolist()
    for pt, row in zip(points, traj.rows):
        flat = [pt.t, *pt.x.q, *pt.x.p, pt.H, *pt.c, *pt.lam]
        assert np.array(flat).tobytes() == row.tobytes()
    assert traj._point(traj.rows[-1]).x.q.tobytes() == points[-1].x.q.tobytes()
    points[-1].c[0] = 7.0  # a point owns its arrays
    assert traj.rows[-1, -2] != 7.0
