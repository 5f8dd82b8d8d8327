from pathlib import Path

import numpy as np
import pytest

from nonholo import brackets, catalog, dsl, geometry, numdiff, verification
from nonholo.errors import NotOnMError, SplittingDegenerateError
from nonholo.rng import SplitMix64
from nonholo.system import (
    DStarObservable,
    DStarPoint,
    Observable,
    PhasePoint,
    hamiltonian_observable,
)
from reference import (
    SectionNotInDError,
    almost_lie_bracket,
    gamma_extension,
    route_tables,
    section_from_expressions,
)

SYS_A = catalog.get_system("holonomic_control")
SYS_B = catalog.get_system("nonholonomic_particle")
SYS_C = catalog.get_system("chaplygin_sleigh")

A_ENTRY = catalog.get_entry("holonomic_control")
B_ENTRY = catalog.get_entry("nonholonomic_particle")
C_ENTRY = catalog.get_entry("chaplygin_sleigh")

PROBE = PhasePoint(q=[0.0, 1.0, 0.0], p=[1.0, 1.0, 1.0])


def obs(sysd, text):
    return Observable.from_expression(sysd, text)


def test_canonical_bracket_pairs():
    x = PhasePoint(q=[0.4, -0.9], p=[1.3, 0.2])
    assert brackets.canonical_bracket(obs(SYS_A, "x"), obs(SYS_A, "p_x"), x) == 1.0
    assert brackets.canonical_bracket(obs(SYS_A, "x"), obs(SYS_A, "y"), x) == 0.0
    h = hamiltonian_observable(SYS_A)
    assert abs(brackets.canonical_bracket(h, h, x)) < 1e-14


def test_gamma_extension_cases():
    e = gamma_extension(SYS_A, obs(SYS_A, "p_y"))
    rng = SplitMix64(1)
    for _ in range(20):
        s = [rng.uniform(-2, 2) for _ in range(4)]
        assert abs(e.fn(s)) < 1e-15
    # restriction to M is the identity
    for x in catalog.sample_entry_points(B_ENTRY, 100, 21):
        f = obs(SYS_B, "y*p_x")
        ef = gamma_extension(SYS_B, f)
        assert ef.fn(x.scalars()) == pytest.approx(f.at(x), abs=1e-12)
    # documented value through the projection
    ez = gamma_extension(SYS_B, obs(SYS_B, "p_z"))
    assert ez.fn([0.0, 1.0, 0.0, 1.0, 0.0, 0.0]) == pytest.approx(0.5, abs=1e-14)


def test_eden_bracket_trivial_cases():
    x = PhasePoint(q=[0.2, 0.3], p=[0.7, 0.0])
    assert brackets.eden_bracket(SYS_A, obs(SYS_A, "x"), obs(SYS_A, "p_x"), x) == pytest.approx(1.0, abs=1e-14)
    assert brackets.eden_bracket(SYS_A, obs(SYS_A, "y"), obs(SYS_A, "p_y"), x) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(NotOnMError):
        brackets.eden_bracket(SYS_B, obs(SYS_B, "x"), obs(SYS_B, "z"), PhasePoint(q=[0, 0.5, 0], p=[0, 0, 1.0]))


def test_direct_routes_match_context_routes():
    for x in catalog.sample_entry_points(B_ENTRY, 10, 33):
        xm = geometry.on_m_point(SYS_B, x)
        for f, g in [("x", "p_x"), ("y*p_x", "p_z"), ("z", "x*p_z"), ("p_x", "p_y")]:
            fo, go = obs(SYS_B, f), obs(SYS_B, g)
            tables = route_tables(SYS_B, xm, brackets.raw_rows(xm, [fo, go]))
            direct = brackets.eden_bracket(SYS_B, fo, go, x)
            assert direct == pytest.approx(tables["eden"][0, 1], abs=1e-11)
            nh = brackets.nonholonomic_bracket(SYS_B, fo, go, x)
            assert nh == pytest.approx(tables["nh"][0, 1], abs=1e-11)
            fd, gd = (brackets.pushforward_observable(SYS_B, o) for o in (fo, go))
            dstar = brackets.dstar_bracket(SYS_B, fd, gd, DStarPoint(q=x.q, pi=xm.pi))
            assert dstar == pytest.approx(tables["dstar"][0, 1], abs=1e-11)
    # the standalone oracles differentiate the generic formulas at the point
    # (dstar: the canonical bracket of the pullbacks through the frame); the
    # route tables contract shared-lift gradient rows with cached numpy
    # projectors and the algebroid bivector
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        observables = catalog.observable_test_set(sysd)
        n = sysd.n
        # (p_x, p_y) and (p_x, H) bring in the pi-pi block of the algebroid
        pairs = [(0, n), (n - 1, 2 * n - 1), (1, 2 * n), (n, n + 1), (n, 2 * n)]
        for x in catalog.sample_entry_points(ent, 3, 33):
            xm = geometry.on_m_point(sysd, x)
            tables = route_tables(sysd, xm, brackets.raw_rows(xm, observables))
            y = DStarPoint(q=x.q, pi=xm.pi)
            for i, j in pairs:
                fo, go = observables[i], observables[j]
                eden = brackets.eden_bracket(sysd, fo, go, x)
                assert eden == pytest.approx(tables["eden"][i, j], abs=1e-11)
                nh = brackets.nonholonomic_bracket(sysd, fo, go, x)
                assert nh == pytest.approx(tables["nh"][i, j], abs=1e-11)
                fd, gd = (brackets.pushforward_observable(sysd, o) for o in (fo, go))
                dstar = brackets.dstar_bracket(sysd, fd, gd, y)
                assert dstar == pytest.approx(tables["dstar"][i, j], abs=1e-11)


def test_nonholonomic_bracket_runs_splitting_check(monkeypatch):
    # the oracle validates the splitting as the route tables do, so a
    # degenerate splitting surfaces as SplittingDegenerateError, not as a
    # solve failure
    def degenerate(*args, **kwargs):
        raise SplittingDegenerateError("degenerate")

    monkeypatch.setattr(geometry, "tangent_splitting", degenerate)
    x = PhasePoint(q=[0.2, 0.3], p=[0.7, 0.0])
    with pytest.raises(SplittingDegenerateError):
        brackets.nonholonomic_bracket(SYS_A, obs(SYS_A, "x"), obs(SYS_A, "p_x"), x)


def test_nonholonomic_bracket_control_cases():
    x = PhasePoint(q=[0.2, 0.3], p=[0.7, 0.0])
    assert brackets.nonholonomic_bracket(SYS_A, obs(SYS_A, "x"), obs(SYS_A, "p_x"), x) == pytest.approx(1.0, abs=1e-12)
    assert brackets.nonholonomic_bracket(SYS_A, obs(SYS_A, "y"), obs(SYS_A, "p_x"), x) == pytest.approx(0.0, abs=1e-12)


def test_nh_forms_agree_and_match_eden():
    rep = brackets.compare_brackets(SYS_B, obs(SYS_B, "x"), obs(SYS_B, "z"), PROBE)
    assert rep.max_pairwise_gap <= 1e-9
    for x in catalog.sample_entry_points(B_ENTRY, 50, 37):
        xm = geometry.on_m_point(SYS_B, x)
        for f, g in [("x", "p_x"), ("p_x", "p_z"), ("y", "y*p_y")]:
            tables = route_tables(SYS_B, xm, brackets.raw_rows(xm, [obs(SYS_B, f), obs(SYS_B, g)]))
            nh = tables["nh"][0, 1]
            assert abs(nh - tables["nh2"][0, 1]) <= 1e-9
            assert abs(nh - tables["eden"][0, 1]) <= 1e-9


def test_compare_brackets_control_case():
    x = PhasePoint(q=[0.1, -0.4], p=[1.0, 0.0])
    rep = brackets.compare_brackets(SYS_A, obs(SYS_A, "x"), obs(SYS_A, "p_x"), x)
    for v in (rep.value_nh, rep.value_nh2, rep.value_eden, rep.value_dstar):
        assert v == pytest.approx(1.0, abs=1e-12)
    assert rep.max_pairwise_gap <= 1e-12


@pytest.mark.parametrize("route", ["value_nh", "value_nh2", "value_eden", "value_dstar"])
def test_a_nan_route_is_the_pairwise_gap(route):
    values = dict.fromkeys(["value_nh", "value_nh2", "value_eden", "value_dstar"], 1.0)
    rep = brackets.BracketReport(PROBE, "f", "g", **{**values, route: float("nan")})
    assert np.isnan(rep.max_pairwise_gap)


def test_route_tables_lift_once_per_evaluation_point(monkeypatch):
    # with the per-point linear data built, the tables of every route read
    # the rows of every observable off one lift at the point
    original = numdiff.lift
    calls = []

    def counted(values):
        calls.append(len(values))
        return original(values)

    for ent in catalog.catalog_systems():
        sysd = ent.system()
        observables = catalog.observable_test_set(sysd)
        x = catalog.sample_entry_points(ent, 1, 5)[0]
        xm = geometry.on_m_point(sysd, x)
        dgam, (P, _, _) = geometry.dgamma(xm), xm.splitting
        theta, lam, _ = geometry.almost_lie_algebroid(xm)
        calls.clear()
        monkeypatch.setattr(numdiff, "lift", counted)
        brackets.bracket_route_tables(brackets.raw_rows(xm, observables), dgam, P, theta, lam)
        monkeypatch.setattr(numdiff, "lift", original)
        assert calls == [2 * sysd.n], ent.id


def test_shared_lift_rows_match_per_observable_gradients():
    # one lift over many observables must not mix them: every row equals the
    # observable's own gradient bitwise, a constant gives a zero row
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        observables = catalog.observable_test_set(sysd) + [
            hamiltonian_observable(sysd),
            obs(sysd, f"sin({sysd.coords[-1]})"),
            obs(sysd, "2.5"),
        ]
        for x in catalog.sample_entry_points(ent, 3, 79):
            xm = geometry.on_m_point(sysd, x)
            raw = np.array([numdiff.gradient(f.fn, xm.scalars())[1] for f in observables])
            assert np.array_equal(brackets.raw_rows(xm, observables), raw)
            assert not np.any(raw[-1])


def test_dstar_bracket_canonical_pair_and_skew():
    rng = SplitMix64(41)
    f = DStarObservable.from_expression(SYS_A, "pi_1")
    g = DStarObservable.from_expression(SYS_A, "x")
    for _ in range(20):
        y = DStarPoint(q=[rng.uniform(-1, 1), rng.uniform(-1, 1)], pi=[rng.uniform(-2, 2)])
        assert brackets.dstar_bracket(SYS_A, f, g, y) == pytest.approx(-1.0, abs=1e-12)
        assert brackets.dstar_bracket(SYS_A, g, f, y) == pytest.approx(1.0, abs=1e-12)
    rng = SplitMix64(43)
    for _ in range(100):
        q = [rng.uniform(*iv) for iv in B_ENTRY.sample_region]
        y = DStarPoint(q=q, pi=[rng.uniform(-2, 2) for _ in range(SYS_B.k)])
        fb = DStarObservable.from_expression(SYS_B, "pi_1*x")
        gb = DStarObservable.from_expression(SYS_B, "pi_2 + y")
        assert brackets.dstar_bracket(SYS_B, fb, gb, y) == pytest.approx(
            -brackets.dstar_bracket(SYS_B, gb, fb, y), abs=1e-12
        )


# the particle with the user frame e1 = (1, 0, y), e2 = (0, 1, 0): its
# structure functions C are nonzero, where the default frame's vanish
USER_FRAME_SOURCE = (Path(__file__).parent / "data" / "particle_user_frame.system").read_text()
PARTICLE_USER_FRAME = dsl.parse_system(USER_FRAME_SOURCE)


def dstar_table(sysd, x, observables):
    xm = geometry.on_m_point(sysd, x)
    return route_tables(sysd, xm, brackets.raw_rows(xm, observables))["dstar"]


def test_dstar_value_frame_independent():
    alt = PARTICLE_USER_FRAME
    for x in catalog.sample_entry_points(B_ENTRY, 25, 47):
        for f, g in [("x", "p_x"), ("p_x", "p_z"), ("z", "y*p_x")]:
            v_default, v_alt = (
                dstar_table(sysd, x, [obs(sysd, f), obs(sysd, g)])[0, 1]
                for sysd in (SYS_B, alt)
            )
            assert abs(v_default - v_alt) < 1e-9


def frame_sections(sysd, q):
    free = geometry.frame_at(sysd, q).free_cols
    return [lambda s, a=a: geometry.frame_apply(sysd, s, free)[a] for a in range(sysd.k)]


def test_structure_functions_closed_form():
    # particle, metric I, frame e1 = (1, 0, y), e2 = (0, 1, 0): [e1, e2] is
    # -d/dz, whose G-orthogonal projection onto D is -y/(1+y^2) e1
    alt = PARTICLE_USER_FRAME
    for x in catalog.sample_entry_points(B_ENTRY, 10, 53):
        xm = geometry.on_m_point(alt, x)
        _, lam, C = geometry.almost_lie_algebroid(xm)
        c12 = -x.q[1] / (1.0 + x.q[1] ** 2)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 1], expected[0, 1, 0] = c12, -c12
        assert np.max(np.abs(C - expected)) <= 1e-15
        pi = xm.frame.E.T @ x.p
        assert lam[4, 3] == pytest.approx(-lam[3, 4], abs=1e-15)
        assert lam[3, 4] == pytest.approx(-pi[0] * c12, abs=1e-15)
        assert np.array_equal(lam[:3, 3:], xm.frame.E)
        e1, e2 = frame_sections(alt, x.q)
        w = almost_lie_bracket(alt, e1, e2, x.q)
        assert np.max(np.abs(w - xm.frame.E @ C[:, 0, 1])) <= 1e-15
    # every frame pair on every catalog system: C against the projected
    # Lie bracket, and antisymmetric in its lower indices
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        for x in catalog.sample_entry_points(ent, 3, 53):
            xm = geometry.on_m_point(sysd, x)
            C = geometry.almost_lie_algebroid(xm)[2]
            assert np.max(np.abs(C + C.transpose(0, 2, 1))) <= 1e-15, ent.id
            secs = frame_sections(sysd, x.q)
            for a in range(sysd.k):
                for b in range(sysd.k):
                    w = almost_lie_bracket(sysd, secs[a], secs[b], x.q)
                    gap = np.max(np.abs(w - xm.frame.E @ C[:, a, b]))
                    assert gap <= 1e-12, (ent.id, a, b)


def _verify_report(source, entry):
    """``verify --count 100 --seed 1`` on ``source``, sampled as the catalog
    system ``entry`` is."""
    return verification.run_verify(verification.VerifyConfig(
        system_source=source, system_label=entry.id, count=100, seed=1,
        region=entry.sample_region, momentum_scale=entry.momentum_scale,
    ))


def _suite(report, name):
    return next(s for s in report["suites"] if s["name"] == name)


def test_verify_passes_on_the_user_frame_particle():
    assert USER_FRAME_SOURCE == B_ENTRY.definition + "\n[frame]\ncol1 = 1, 0, y\ncol2 = 0, 1, 0\n"
    report = _verify_report(USER_FRAME_SOURCE, B_ENTRY)
    assert report["pass"]
    assert _suite(report, "bracket_coincidence")["value"] <= 1e-15


def test_a_halved_algebroid_pi_block_fails_bracket_coincidence(monkeypatch):
    # the (pi, pi) block of Lambda is -pi.C, so only the systems whose
    # structure functions do not vanish can see it: the sleigh and the
    # user-frame particle, not the other three catalog systems
    algebroid = geometry.almost_lie_algebroid

    def halved(x):
        theta, lam, C = algebroid(x)
        n = theta.shape[-2] // 2
        lam = lam.copy()
        lam[..., n:, n:] *= 0.5
        return theta, lam, C

    monkeypatch.setattr(geometry, "almost_lie_algebroid", halved)
    cases = {"user_frame": (USER_FRAME_SOURCE, B_ENTRY)}
    cases.update((e.id, (e.definition, e)) for e in catalog.catalog_systems())
    failed, coincidence = {}, {}
    for name, (source, entry) in cases.items():
        report = _verify_report(source, entry)
        failed[name] = [s["name"] for s in report["suites"] if not s["pass"]]
        coincidence[name] = _suite(report, "bracket_coincidence")["value"]
    caught = {"user_frame", "chaplygin_sleigh"}
    assert failed == {name: ["bracket_coincidence"] if name in caught else [] for name in cases}
    assert all(coincidence[name] > 0.1 for name in caught)  # 0.27 and 0.12


def test_almost_lie_bracket_cases():
    X = section_from_expressions(SYS_A, ["1", "0"])
    Y = section_from_expressions(SYS_A, ["x", "0"])
    assert np.allclose(almost_lie_bracket(SYS_A, X, X, [0.5, 0.1]), 0.0, atol=0)
    got = almost_lie_bracket(SYS_A, X, Y, [0.5, 0.1])
    assert np.allclose(got, [1.0, 0.0], atol=1e-12)
    bad = section_from_expressions(SYS_A, ["0", "1"])
    with pytest.raises(SectionNotInDError):
        almost_lie_bracket(SYS_A, X, bad, [0.5, 0.1])
    # image stays in the distribution
    rng = SplitMix64(51)
    for _ in range(100):
        q = [rng.uniform(*iv) for iv in B_ENTRY.sample_region]
        free = geometry.frame_at(SYS_B, q).free_cols
        X = lambda s: geometry.frame_apply(SYS_B, s, free)[0]
        Y = lambda s: geometry.frame_apply(SYS_B, s, free)[1]
        w = almost_lie_bracket(SYS_B, X, Y, q)
        mu = np.asarray(SYS_B.mu_values(q), dtype=float)
        assert np.max(np.abs(mu @ w)) < 1e-10


def fd_jacobiator(sysd, kind, f, g, h, x, hstep=1e-5):
    """Outer derivatives by central differences instead of nested duals.

    The inner brackets come from one dual level of brackets._route_rows at
    each perturbed point; the outer bracket differentiates the kind's
    extension of each argument by central differences and, for nh, projects
    the fields with the numpy projector of geometry.tangent_splitting.
    """
    n = sysd.n
    free = None
    z = x.scalars()
    if kind == "dstar":
        free = geometry.frame_at(sysd, x.q).free_cols

        def ext(w):
            return w[:n] + geometry.to_dstar_apply(sysd, w[:n], w[n:], free)

    elif kind == "canonical":

        def ext(w):
            return w

    else:

        def ext(w):
            return geometry.gamma_hat_apply(sysd, w)

    def inner(a, b):
        def fn(s):
            ra, rb = brackets._route_rows(sysd, kind, lambda e: [a.fn(e), b.fn(e)], s, free)
            return brackets._pair(ra, rb, n)

        return fn

    def grad(fn):
        out = np.zeros(2 * n)
        for i in range(2 * n):
            zp, zm = list(z), list(z)
            zp[i] += hstep
            zm[i] -= hstep
            out[i] = (fn(ext(zp)) - fn(ext(zm))) / (2 * hstep)
        return out

    P = np.eye(2 * n)
    if kind == "nh":
        P = geometry.tangent_splitting(sysd, x)[0]
    total = 0.0
    for a, b, c in ((f, g, h), (g, h, f), (h, f, g)):
        xa = P @ brackets._symp(grad(a.fn), n)
        xi = P @ brackets._symp(grad(inner(b, c)), n)
        total += float(brackets._pair(xa, xi, n))
    return total


def test_jacobiator_canonical_vanishes():
    rng = SplitMix64(57)
    triples = [("x", "p_x", "y*p_y"), ("x*p_y", "y", "p_x"), ("x", "y", "p_y")]
    for x in catalog.sample_entry_points(A_ENTRY, 10, 59):
        for t in triples:
            f, g, h = (obs(SYS_A, s) for s in t)
            assert abs(brackets.jacobiator(SYS_A, "canonical", f, g, h, x)) < 1e-8


def test_jacobiator_holonomic_zero_all_kinds():
    triples = [("x", "p_x", "y"), ("x*p_x", "y", "p_y"), ("x", "y", "p_x")]
    for x in catalog.sample_entry_points(A_ENTRY, 10, 61):
        for t in triples:
            f, g, h = (obs(SYS_A, s) for s in t)
            for kind in ("eden", "nh"):
                assert abs(brackets.jacobiator(SYS_A, kind, f, g, h, x)) < 1e-8
            fd, gd, hd = (brackets.pushforward_observable(SYS_A, o) for o in (f, g, h))
            assert abs(brackets.jacobiator(SYS_A, "dstar", fd, gd, hd, x)) < 1e-8


def test_jacobiator_witness_on_particle():
    f, g, h = (obs(SYS_B, s) for s in ("z", "p_x", "p_y"))
    j = brackets.jacobiator(SYS_B, "eden", f, g, h, PROBE)
    assert j == pytest.approx(-0.25, abs=1e-10)
    assert abs(j) > 1e-3
    # cross-check by an independent finite-difference evaluation
    j_fd = fd_jacobiator(SYS_B, "eden", f, g, h, PROBE)
    assert abs(j - j_fd) < 1e-4
    # reproducible from its recorded seed
    x = catalog.sample_entry_points(B_ENTRY, 1, 11)[0]
    j_seeded = brackets.jacobiator(SYS_B, "eden", f, g, h, x)
    assert abs(j_seeded) > 1e-3
    assert j_seeded == pytest.approx(-0.7872402607160313, abs=1e-9)


@pytest.mark.parametrize("kind", ["eden", "nh"])
def test_jacobi_witness_through_the_list_form(monkeypatch, kind):
    # the recorded witness point (seed 11) and one other seeded point run as
    # one stack of (2,) array cores; the witness entry is its lone value
    f, g, h = (obs(SYS_B, s) for s in ("z", "p_x", "p_y"))
    witness = catalog.sample_entry_points(B_ENTRY, 1, 11)[0]
    other = catalog.sample_entry_points(B_ENTRY, 1, 12)[0]
    alone = brackets.jacobiator(SYS_B, kind, f, g, h, witness)
    sizes, jacobi_rows = [], brackets.jacobi_rows
    monkeypatch.setattr(brackets, "jacobi_rows", lambda *a: sizes.append(len(a[-1])) or jacobi_rows(*a))
    got = brackets.jacobiator(SYS_B, kind, f, g, h, [witness, other])
    assert sizes == [2]
    assert np.float64(got[0]).tobytes() == np.float64(alone).tobytes()
    assert got[0] == pytest.approx(-0.7872402607160313, abs=1e-6)


def test_jacobiator_documented_example_triple_vanishes():
    # the (x, z, p_x) triple pairs configuration-only functions in every
    # outer bracket, so its defect is identically zero; confirmed by the
    # finite-difference oracle as well
    f, g, h = (obs(SYS_B, s) for s in ("x", "z", "p_x"))
    j = brackets.jacobiator(SYS_B, "eden", f, g, h, PROBE)
    j_fd = fd_jacobiator(SYS_B, "eden", f, g, h, PROBE)
    assert abs(j) < 1e-12 and abs(j_fd) < 1e-6


# (system, phase triple, eden, nh, dstar) at the first seed-5 sample point;
# the dstar triple is (pi_1, pi_2, x). Recorded with the per-pair nested
# formula that evaluated each observable's extension separately.
PINNED_JACOBIATORS = (
    ("nonholonomic_particle", ("z", "p_x", "p_y"),
     -0.7651225043644454, -0.7651225043644453, 0.3096127365907064),
    ("chaplygin_sleigh", ("x", "p_x", "p_th"),
     0.2756985497838126, 0.2756985497838128, 0.4874892870704745),
    ("vertical_rolling_disk", ("x", "p_x", "0.5*(p_x^2/m + p_y^2/m + p_th^2/I + p_ph^2/J)"),
     0.19196881735808352, 0.19196881735808352, -0.31136914819716105),
)


def _pinned_case(name, texts):
    ent = catalog.get_entry(name)
    sysd = ent.system()
    x = catalog.sample_entry_points(ent, 1, 5)[0]
    phase = [obs(sysd, t) for t in texts]
    dual = [DStarObservable.from_expression(sysd, t) for t in ("pi_1", "pi_2", "x")]
    return sysd, x, phase, dual


@pytest.mark.parametrize("name, texts, eden, nh, dstar", PINNED_JACOBIATORS)
def test_jacobiator_pinned_values(name, texts, eden, nh, dstar):
    sysd, x, phase, dual = _pinned_case(name, texts)
    assert brackets.jacobiator(sysd, "eden", *phase, x) == pytest.approx(eden, abs=1e-12)
    assert brackets.jacobiator(sysd, "nh", *phase, x) == pytest.approx(nh, abs=1e-12)
    assert brackets.jacobiator(sysd, "dstar", *dual, x) == pytest.approx(dstar, abs=1e-12)


@pytest.mark.parametrize("kind", brackets.BRACKET_KINDS)
@pytest.mark.parametrize("name, texts", [c[:2] for c in PINNED_JACOBIATORS[:2]])
def test_jacobiator_matches_fd_oracle(name, texts, kind):
    sysd, x, phase, dual = _pinned_case(name, texts)
    f, g, h = dual if kind == "dstar" else phase
    j = brackets.jacobiator(sysd, kind, f, g, h, x)
    if kind != "canonical":
        assert abs(j) > 1e-3  # a witness, not a vanishing defect
    assert abs(j - fd_jacobiator(sysd, kind, f, g, h, x)) < 1e-4


def test_jacobiator_nh_equals_eden_on_all_systems():
    # both brackets agree on M and the Jacobiator sees the inner bracket only
    # on M, so the two defects coincide
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        n = sysd.n
        observables = catalog.observable_test_set(sysd)
        for x in catalog.sample_entry_points(ent, 3, 83):
            for t in ((n - 1, n, n + 1), (0, n, 2 * n), (n, n + 1, 2 * n + 1)):
                f, g, h = (observables[i] for i in t)
                eden = brackets.jacobiator(sysd, "eden", f, g, h, x)
                nh = brackets.jacobiator(sysd, "nh", f, g, h, x)
                assert nh == pytest.approx(eden, abs=1e-10)


def test_project_fields_matches_numpy_projector():
    # bracket values cannot check the size of the projection: on extension
    # fields pair(X_f, Q X_g) vanishes, so any I - c Q gives the same value
    rng = SplitMix64(89)
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        m = 2 * sysd.n
        for x in catalog.sample_entry_points(ent, 3, 89):
            P = geometry.tangent_splitting(sysd, x)[0]
            fields = [[rng.uniform(-1.0, 1.0) for _ in range(m)] for _ in range(3)]
            got = brackets._project_fields(sysd, fields, x.scalars())
            assert np.allclose(got, np.array(fields) @ P.T, rtol=0, atol=1e-10)


EXTENSION_MAPS = ("gamma_hat_apply", "splitting_rows", "from_dstar_apply", "to_dstar_apply")


@pytest.mark.parametrize("kind, expected", [
    ("canonical", {}),
    ("eden", {"gamma_hat_apply": 2}),
    ("nh", {"gamma_hat_apply": 2, "splitting_rows": 2}),
    ("dstar", {"from_dstar_apply": 2, "to_dstar_apply": 2}),
])
def test_jacobiator_evaluates_extension_maps_once_per_level(count_calls, kind, expected):
    counts = count_calls(geometry, EXTENSION_MAPS)
    if kind == "dstar":
        make, texts = DStarObservable.from_expression, ("pi_1", "pi_2", "x", "y")
    else:
        make, texts = Observable.from_expression, ("z", "p_x", "p_y", "x")
    o = [make(SYS_B, t) for t in texts]
    brackets.jacobiator(SYS_B, kind, *o[:3], PROBE)
    assert counts == {name: expected.get(name, 0) for name in EXTENSION_MAPS}
    # three overlapping triples in one call still lift once per level
    counts.update(dict.fromkeys(EXTENSION_MAPS, 0))
    f, g, h = [o[0], o[1], o[3]], [o[1], o[2], o[3]], [o[2], o[0], o[1]]
    assert len(brackets.jacobiator(SYS_B, kind, f, g, h, PROBE)) == 3
    assert counts == {name: expected.get(name, 0) for name in EXTENSION_MAPS}


@pytest.mark.parametrize("kind", brackets.BRACKET_KINDS)
def test_multi_triple_jacobiator_equals_per_triple_calls(kind):
    # overlapping triples, repeated observables and both orders of an inner
    # pair; every value must be bitwise the value of its triple alone
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        n = sysd.n
        observables = catalog.observable_test_set(sysd)
        if kind == "dstar":
            observables = [brackets.pushforward_observable(sysd, o) for o in observables]
        index_triples = [
            (n - 1, n, n + 1), (0, n, 2 * n), (n, n + 1, 2 * n + 1),
            (n + 1, n, n - 1), (n, n, 0), (2 * n, 2 * n, 2 * n),
        ]
        f, g, h = ([observables[t[c]] for t in index_triples] for c in range(3))
        for x in catalog.sample_entry_points(ent, 2, 91):
            many = brackets.jacobiator(sysd, kind, f, g, h, x)
            assert many == [brackets.jacobiator(sysd, kind, *t, x) for t in zip(f, g, h)]
            assert tuple(many) == tuple(brackets.jacobiator(sysd, kind, tuple(f), g, h, x))


# the particle with y past its catalog region: the default frame's pivot
# switches at |y| = 1, so the sample holds two frame plans
TWO_PLAN_REGION = ((-1.0, 1.0), (-2.0, 2.0), (-1.0, 1.0))


@pytest.mark.parametrize("kind", brackets.BRACKET_KINDS)
def test_jacobiator_batch_is_bitwise_the_per_point_jacobiator(kind):
    from nonholo.verification import _jacobiator_triples

    cases = [(ent.system(), catalog.sample_entry_points(ent, 20, 101))
             for ent in catalog.catalog_systems()]
    cases.append((SYS_B, catalog.sample_m_points(SYS_B, 20, 101, region=TWO_PLAN_REGION)))
    for case, (sysd, sample) in enumerate(cases):
        observables = catalog.observable_test_set(sysd)
        index_triples = _jacobiator_triples(len(observables), sysd.n)
        points = [geometry.on_m_point(sysd, x) for x in sample]
        plans = {}
        for x in points:
            plans.setdefault(x.frame.free_cols if kind == "dstar" else None, []).append(x)
        if case == len(cases) - 1 and kind == "dstar":
            assert len(plans) == 2
        for free, group in plans.items():
            if kind == "dstar":
                per_point = [brackets.pushforward_observable(sysd, o) for o in observables]
                batch = [brackets.pushforward_observable(sysd, o, free) for o in observables]
            else:
                per_point = batch = observables
            f, g, h = ([batch[t[c]] for t in index_triples] for c in range(3))
            got = np.array(brackets.jacobiator(sysd, kind, f, g, h, group))
            assert got.shape == (len(group), len(index_triples))
            f, g, h = ([per_point[t[c]] for t in index_triples] for c in range(3))
            alone = np.array([brackets.jacobiator(sysd, kind, f, g, h, x) for x in group])
            for t in range(len(index_triples)):
                assert got[:, t].tobytes() == alone[:, t].tobytes()


def test_dstar_jacobiator_batch_rejects_points_of_another_plan():
    points = [geometry.on_m_point(SYS_B, x)
              for x in catalog.sample_m_points(SYS_B, 20, 101, region=TWO_PLAN_REGION)]
    f = brackets.pushforward_observable(SYS_B, obs(SYS_B, "x"), (0, 1))
    with pytest.raises(ValueError, match="frame plan"):
        brackets.jacobiator(SYS_B, "dstar", [f], [f], [f], points)


def test_dstar_jacobiator_reads_the_frame_of_its_point(count_calls):
    # at a validated point whose frame is built, the dual-bundle kind
    # evaluates nothing again, and gives the value it gives at the PhasePoint
    cases = []
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        n = sysd.n
        observables = catalog.observable_test_set(sysd)
        fgh = [brackets.pushforward_observable(sysd, observables[i]) for i in (0, n, 2 * n)]
        for x in catalog.sample_entry_points(ent, 2, 97):
            xm = geometry.on_m_point(sysd, x)
            xm.frame
            cases.append((sysd, fgh, xm, brackets.jacobiator(sysd, "dstar", *fgh, x)))
    counts = count_calls(geometry, ("metric_at", "constraints_at", "frame_at"))
    for sysd, fgh, xm, expected in cases:
        assert brackets.jacobiator(sysd, "dstar", *fgh, xm) == expected
    assert counts == dict.fromkeys(counts, 0)


def test_extension_independence():
    for x in catalog.sample_entry_points(B_ENTRY, 25, 67):
        xm = geometry.on_m_point(SYS_B, x)
        P, _, C = xm.splitting
        w_grads = C[: SYS_B.n_constraints]  # the membership residuals' gradients
        for f, g in [("x", "p_x"), ("p_x", "p_z")]:
            gf, gg = brackets.raw_rows(xm, [obs(SYS_B, f), obs(SYS_B, g)]) @ geometry.dgamma(xm)
            base_nh, base_nh2 = brackets.nh_values_from_grads(P, gf, gg)
            pairs = [(gf, gg)]
            for c in (1.0, -1.0, 10.0):
                pert = gf + c * w_grads[0]
                v_nh, v_nh2 = brackets.nh_values_from_grads(P, pert, gg)
                assert abs(v_nh - base_nh) <= 1e-9
                assert abs(v_nh2 - base_nh2) <= 1e-9
                pert_g = gg + c * w_grads[0]
                v_nh, v_nh2 = brackets.nh_values_from_grads(P, gf, pert_g)
                assert abs(v_nh - base_nh) <= 1e-9
                assert abs(v_nh2 - base_nh2) <= 1e-9
                pairs += [(pert, gg), (gf, pert_g)]
            # stacked on two leading axes, each entry is its own pair's value,
            # and both are the matrix-vector formula written out
            F, G = (np.stack([p[k] for p in pairs]).reshape(7, 1, -1) for k in (0, 1))
            nh, nh2 = brackets.nh_values_from_grads(P, F, G)
            assert nh.shape == nh2.shape == (7, 1)
            n = SYS_B.n
            for (pf, pg), v_nh, v_nh2 in zip(pairs, nh[:, 0], nh2[:, 0]):
                xf = np.concatenate([pf[n:], -pf[:n]])
                xg = P @ np.concatenate([pg[n:], -pg[:n]])
                want = float(brackets._pair(P @ xf, xg, n)), float(brackets._pair(xf, xg, n))
                assert (v_nh, v_nh2) == brackets.nh_values_from_grads(P, pf, pg) == want


def test_skew_and_leibniz():
    observables = catalog.observable_test_set(SYS_C)[:8]
    for x in catalog.sample_entry_points(C_ENTRY, 10, 71):
        f, g, f2 = observables[0], observables[4], observables[5]
        prod = Observable.product(f, f2)
        # rows: f, g, f2, f*f2
        xm = geometry.on_m_point(SYS_C, x)
        tables = route_tables(SYS_C, xm, brackets.raw_rows(xm, [f, g, f2, prod]))
        for name, tab in tables.items():
            assert abs(tab[0, 1] + tab[1, 0]) <= 1e-12
            resid = tab[3, 1] - f.at(x) * tab[2, 1] - f2.at(x) * tab[0, 1]
            assert abs(resid) <= 1e-10, name


def test_projection_jacobian_is_identity_on_admissible_tangents():
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        for x in catalog.sample_entry_points(ent, 10, 73):
            xm = geometry.on_m_point(sysd, x)
            P = xm.splitting[0]
            dgam = geometry.dgamma(xm)
            u, s, _ = np.linalg.svd(P)
            rank = int(np.sum(s > 1e-8 * s[0]))
            assert rank == 2 * sysd.k
            basis = u[:, :rank]
            for z in basis.T:
                pz = P @ z
                assert np.max(np.abs(dgam @ pz - pz)) <= 1e-9


def test_extension_fields_base_in_distribution():
    # The base component of every extension field lies in the distribution,
    # and the complement component is a vertical annihilator lift -- which is
    # exactly what makes the one-side-projected bracket forms agree. (Full
    # membership of the field in the admissible sub-bundle fails for base
    # coordinate observables; see the acceptance notes.)
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        n = sysd.n
        for x in catalog.sample_entry_points(ent, 10, 73):
            xm = geometry.on_m_point(sysd, x)
            Q = xm.splitting[1]
            mu = np.asarray(sysd.mu_values(list(x.q)), dtype=float)
            obs_set = catalog.observable_test_set(sysd)[: 2 * n + 1]
            ext = brackets.raw_rows(xm, obs_set) @ geometry.dgamma(xm)
            for g_ext in ext:
                xf = brackets._symp(g_ext, n)
                assert np.max(np.abs(mu @ xf[:n])) <= 1e-9
                qx = Q @ xf
                # vertical annihilator lift: no base motion, dp in span(mu^T)
                assert np.max(np.abs(qx[:n])) <= 1e-9
                lam, *_ = np.linalg.lstsq(mu.T, qx[n:], rcond=None)
                assert np.max(np.abs(mu.T @ lam - qx[n:])) <= 1e-9
            for gf in ext[:4]:
                for gg in ext[:4]:
                    xf = brackets._symp(gf, n)
                    xg = brackets._symp(gg, n)
                    assert abs(brackets._pair(xf, Q @ xg, n)) <= 1e-9


def test_jacobiator_rejects_unknown_kind_and_off_m():
    f = obs(SYS_B, "x")
    with pytest.raises(ValueError):
        brackets.jacobiator(SYS_B, "exotic", f, f, f, PROBE)
    with pytest.raises(NotOnMError):
        brackets.jacobiator(SYS_B, "eden", f, f, f, PhasePoint(q=[0, 0.5, 0], p=[0, 0, 1.0]))
