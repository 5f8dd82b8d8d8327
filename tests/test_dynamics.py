import functools

import numpy as np
import pytest

from nonholo import catalog, dsl, dynamics, geometry
from nonholo.errors import (
    DomainError,
    InternalConsistencyError,
    NonholoError,
    NotOnMError,
    RankDeficientError,
    StepFailureError,
)
from nonholo.system import Observable, PhasePoint, hamiltonian_observable
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


def test_integrate_straight_line():
    traj = dynamics.integrate(
        SYS_A, PhasePoint(q=[0.0, 0.0], p=[1.0, 0.0]), 0.0, 1.0, 1e-3
    )
    assert len(traj) == 1001
    assert np.max(np.abs(traj.points[-1].x.q - [1.0, 0.0])) < 1e-10
    assert traj.points[-1].t == pytest.approx(1.0, abs=1e-12)


def test_integrate_evaluates_once_per_accepted_state(monkeypatch):
    calls = []
    evaluate = dynamics.FieldEvaluator.evaluate

    def counted(self, q, p):
        calls.append(1)
        return evaluate(self, q, p)

    monkeypatch.setattr(dynamics.FieldEvaluator, "evaluate", counted)
    traj = dynamics.integrate(SYS_A, PhasePoint(q=[0.0, 0.0], p=[1.0, 0.0]), 0.0, 0.1, 0.01)
    assert len(traj) == 11
    assert len(calls) == 4 * 10 + 1


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
    rows = "".join(f"row{i + 1} = {r}\n" for i, r in enumerate(metric))
    return dsl.parse_system(
        f"[system]\nname = t\ndim = {len(metric)}\ncoords = {', '.join('xyzw'[: len(metric)])}\n"
        f"[metric]\n{rows}[potential]\nV = {potential}\n[constraint]\nform = {constraint}\n"
    )


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_field_evaluator_project_is_bitwise_eden_project(ent):
    """``project`` is ``eden_project`` bit for bit at 50 sampled points, off
    M by a seeded kick, and the evaluation that reuses its entries is bitwise
    a fresh evaluator's."""
    sysd = ent.system()
    ev = dynamics.FieldEvaluator(sysd)
    rng = np.random.default_rng(15)
    for x in catalog.sample_entry_points(ent, 50, 15):
        p = x.p + rng.normal(scale=0.5, size=sysd.n)
        projected = ev.project(x.q, p)
        assert _bits(projected) == _bits(geometry.eden_project(sysd, x.q, p))
        got = ev.evaluate(x.q, projected)
        assert _bits(*got) == _bits(*dynamics.FieldEvaluator(sysd).evaluate(x.q, projected))


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
    sysd = _system(metric, constraint)
    with pytest.raises(NonholoError) as want, np.errstate(all="ignore"):
        geometry.eden_project(sysd, q, [1.0, 1.0])
    with pytest.raises(type(want.value)) as got, np.errstate(all="ignore"):
        dynamics.FieldEvaluator(sysd).project(q, [1.0, 1.0])
    assert str(got.value) == str(want.value)


def test_a_singular_gram_solve_is_a_rank_error():
    # passes the Gram matrix's Cholesky check, then meets a zero pivot
    source = catalog.get_entry("nonholonomic_particle").definition
    sysd = dsl.parse_system(source + "\n[constraint]\nform = y, 0, exp(-30*x) - 1\n")
    p = [-0.3818144525703697, 0.3337808175111099, -0.3091458786446881]
    for project in (functools.partial(geometry.eden_project, sysd),
                    dynamics.FieldEvaluator(sysd).project):
        with pytest.raises(RankDeficientError, match="Gram matrix is singular"):
            project(SINGULAR_GRAM_Q, p)


def test_a_failed_shared_projection_stops_the_run_with_its_error(monkeypatch, capsys):
    """A state whose shared pass raises stops the run with that pass's error
    (exit 3 at the command line); the rows before it are bitwise the run's."""
    from nonholo import cli

    x0 = catalog.sample_entry_points(catalog.get_entry("chaplygin_sleigh"), 1, 4)[0]
    shared = dynamics.integrate(SYS_C, x0, 0.0, 0.1, 1e-3)
    project, calls = dynamics.FieldEvaluator.project, [0]

    def fails_at_state_40(self, q, p):
        calls[0] += 1
        if calls[0] == 40:
            raise DomainError("sqrt", "derivative unbounded at 0")
        return project(self, q, p)

    monkeypatch.setattr(dynamics.FieldEvaluator, "project", fails_at_state_40)
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
    monkeypatch.setattr(dynamics.FieldEvaluator, "project", project)
    assert cli.main(argv) == cli.EXIT_OK
    assert out.splitlines() == capsys.readouterr().out.splitlines()[:41]  # header and 40 rows


def test_a_dual_domain_error_in_the_shared_pass_is_left_to_eden_project():
    # sqrt(x*x) is 0 at x = 0 as a float, but its dual derivative is unbounded
    sysd = _system(("1 + sqrt(x*x), 0", "0, 1"), "0, 1")
    with pytest.raises(DomainError):
        dynamics.FieldEvaluator(sysd).project([0.0, 0.0], [0.0, 1.0])
    assert geometry.eden_project(sysd, [0.0, 0.0], [0.0, 1.0]).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("project", (True, False))
def test_a_constant_metric_is_validated_once_per_trajectory(count_calls, project):
    q0 = [0.0, 0.2, 0.0]
    x0 = PhasePoint(q=q0, p=geometry.eden_project(SYS_B, q0, [1.0, 1.0, 1.0]))
    counts = count_calls(geometry, ["_metric_checks"])
    for t1 in (0.01, 0.05):
        counts["_metric_checks"] = 0
        dynamics.integrate(SYS_B, x0, 0.0, t1, 1e-3, project_each_step=project)
        assert counts["_metric_checks"] == 2  # the start's validation and the evaluator's


def test_a_no_project_run_validates_each_state_from_its_evaluation(count_calls):
    # the sleigh's metric depends on q; each accepted state is validated from
    # the dual pass that evaluates it, not by metric_at on the float closures
    x0 = catalog.sample_entry_points(catalog.get_entry("chaplygin_sleigh"), 1, 4)[0]
    counts = count_calls(geometry, ["metric_at", "_metric_checks"])
    for t1 in (0.01, 0.05):
        counts.update(metric_at=0, _metric_checks=0)
        traj = dynamics.integrate(SYS_C, x0, 0.0, t1, 1e-3, project_each_step=False)
        steps = len(traj) - 1
        assert counts == {"metric_at": 0, "_metric_checks": steps + 1}  # the start and each step


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
