import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonholo import catalog, dsl, geometry, numdiff
from nonholo.errors import (
    DomainError,
    FrameDegenerateError,
    FrameInvalidError,
    NonholoError,
    NotOnMError,
    NotSPDError,
    RankDeficientError,
    SingularMatrixError,
)
from nonholo.rng import SplitMix64
from nonholo.system import PhasePoint
from reference import omega_matrix

SYS_A = catalog.get_system("holonomic_control")
SYS_B = catalog.get_system("nonholonomic_particle")
SYS_C = catalog.get_system("chaplygin_sleigh")


def kkt_projection(met, mu, p):
    """Oracle: minimize the cometric distance to p subject to mu Ginv p' = 0."""
    m, n = mu.shape
    A = mu @ met.Ginv
    kkt = np.block([[met.Ginv, A.T], [A, np.zeros((m, m))]])
    rhs = np.concatenate([met.Ginv @ p, np.zeros(m)])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n]


def test_metric_identity_and_diagonal():
    met = geometry.metric_at(SYS_A, [0.3, -0.8])
    assert np.array_equal(met.G, np.eye(2)) and np.array_equal(met.Ginv, np.eye(2))
    sysd = dsl.parse_system(
        "[system]\nname = diag\ndim = 2\ncoords = q1, q2\n"
        "[metric]\nrow1 = 1+q1^2, 0\nrow2 = 0, 1\n[potential]\nV = 0\n"
        "[constraint]\nform = 0, 1\n"
    )
    met = geometry.metric_at(sysd, [1.0, 0.0])
    assert np.allclose(met.G, np.diag([2.0, 1.0]), atol=0)


def test_metric_not_spd_is_error():
    sysd = dsl.parse_system(
        "[system]\nname = dgn\ndim = 2\ncoords = q1, q2\n"
        "[metric]\nrow1 = q1, 0\nrow2 = 0, 1\n[potential]\nV = 0\n"
        "[constraint]\nform = 0, 1\n"
    )
    with pytest.raises(NotSPDError):
        geometry.metric_at(sysd, [0.0, 0.0])
    with pytest.raises(NotSPDError):
        geometry.metric_at(sysd, [-1.0, 0.0])


def test_flat_sharp_inverse_pair():
    assert np.array_equal(geometry.flat(SYS_A, [0.0, 0.0], [1.0, 2.0]), [1.0, 2.0])
    rng = SplitMix64(5)
    for _ in range(100):
        q = [rng.uniform(-1, 1) for _ in range(3)]
        v = np.array([rng.uniform(-2, 2) for _ in range(3)])
        w = geometry.metric_at(SYS_C, q).Ginv @ geometry.flat(SYS_C, q, v)
        assert np.max(np.abs(w - v)) < 1e-12


def test_constraints_at_values():
    cons = geometry.constraints_at(SYS_A, [0.0, 0.0])
    assert np.array_equal(cons.mu, [[0.0, 1.0]])
    assert np.array_equal(cons.gram, [[1.0]])
    cons = geometry.constraints_at(SYS_B, [0.0, 1.0, 0.0])
    assert np.array_equal(cons.mu, [[1.0, 0.0, -1.0]])
    assert np.array_equal(cons.gram, [[2.0]])


def test_constraints_rank_deficient():
    sysd = dsl.parse_system(
        "[system]\nname = dup\ndim = 3\ncoords = x, y, z\n"
        "[metric]\nrow1 = 1, 0, 0\nrow2 = 0, 1, 0\nrow3 = 0, 0, 1\n"
        "[potential]\nV = 0\n[constraint]\nform = y, 0, -1\n[constraint]\nform = y, 0, -1\n"
    )
    with pytest.raises(RankDeficientError):
        geometry.constraints_at(sysd, [0.0, 1.0, 0.0])


def test_velocity_constraint_values():
    assert geometry.velocity_constraint(SYS_A, [0.0, 0.0], [2.5, 0.0]) == [0.0]
    assert geometry.velocity_constraint(SYS_A, [0.0, 0.0], [0.0, 1.0]) == [1.0]
    c = geometry.velocity_constraint(SYS_B, [0.0, 1.0, 0.0], [1.0, 0.0, 1.0])
    assert c == [0.0]


def test_eden_project_axis_cases():
    assert np.array_equal(geometry.eden_project(SYS_A, [0.0, 0.0], [3.0, 5.0]), [3.0, 0.0])
    got = geometry.eden_project(SYS_B, [0.0, 0.0, 0.0], [1.5, -2.0, 7.0])
    assert np.array_equal(got, [1.5, -2.0, 0.0])


def test_eden_project_matches_constrained_least_squares():
    got = geometry.eden_project(SYS_B, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    assert np.allclose(got, [0.5, 0.0, 0.5], atol=1e-14)
    rng = SplitMix64(77)
    for sysd in (SYS_B, SYS_C):
        region = catalog.get_entry(sysd.name).sample_region
        for _ in range(25):
            q = [rng.uniform(*iv) for iv in region]
            p = np.array([rng.uniform(-2, 2) for _ in range(sysd.n)])
            met = geometry.metric_at(sysd, q)
            cons = geometry.constraints_at(sysd, q)
            oracle = kkt_projection(met, cons.mu, p)
            assert np.max(np.abs(geometry.eden_project(sysd, q, p) - oracle)) < 1e-10


def test_eden_idempotent_orthogonal_annihilator():
    rng = SplitMix64(99)
    entry = catalog.get_entry("chaplygin_sleigh")
    for _ in range(50):
        q = [rng.uniform(*iv) for iv in entry.sample_region]
        p = np.array([rng.uniform(-2, 2) for _ in range(3)])
        pp = np.array([rng.uniform(-2, 2) for _ in range(3)])
        met = geometry.metric_at(SYS_C, q)
        cons = geometry.constraints_at(SYS_C, q)
        gp = geometry.eden_project(SYS_C, q, p)
        assert np.max(np.abs(geometry.eden_project(SYS_C, q, gp) - gp)) < 1e-12
        assert geometry.residual_norm(SYS_C, q, gp) < 1e-10
        # cometric orthogonality of the splitting
        gpp = geometry.eden_project(SYS_C, q, pp)
        assert abs((p - gp) @ met.Ginv @ gpp) < 1e-10
        # complement lies in the annihilator span
        lam, res, _, _ = np.linalg.lstsq(cons.mu.T, p - gp, rcond=None)
        assert np.max(np.abs(cons.mu.T @ lam - (p - gp))) < 1e-10


@given(
    st.floats(-0.7, 0.7),
    st.lists(st.floats(-3, 3), min_size=3, max_size=3),
    st.lists(st.floats(-3, 3), min_size=3, max_size=3),
)
@settings(max_examples=80, deadline=None)
def test_eden_projection_properties_hypothesis(y, p, pp):
    q = [0.0, y, 0.0]
    p = np.array(p)
    pp = np.array(pp)
    gp = geometry.eden_project(SYS_B, q, p)
    scale = max(1.0, float(np.max(np.abs(p))))
    assert geometry.residual_norm(SYS_B, q, gp) < 1e-10 * scale
    assert np.max(np.abs(geometry.eden_project(SYS_B, q, gp) - gp)) < 1e-12 * scale
    met = geometry.metric_at(SYS_B, q)
    gpp = geometry.eden_project(SYS_B, q, pp)
    ortho = abs((p - gp) @ met.Ginv @ gpp)
    assert ortho < 1e-10 * scale * max(1.0, float(np.max(np.abs(pp))))


def test_frame_default_cases():
    fr = geometry.frame_at(SYS_A, [0.0, 0.0])
    assert np.allclose(fr.E, [[1.0], [0.0]], atol=0)
    fr = geometry.frame_at(SYS_B, [0.0, 0.0, 0.0])
    span = np.abs(fr.E.T @ np.array([[1, 0, 0], [0, 1, 0]]).T)
    assert np.linalg.matrix_rank(span, tol=1e-12) == 2
    mu = geometry.constraints_at(SYS_B, [0.0, 0.0, 0.0]).mu
    assert np.max(np.abs(mu @ fr.E)) < 1e-12


def test_frame_tie_is_reported_and_deterministic():
    # |mu_1| == |mu_3| at y = 1: the tie is broken toward the lowest index
    fr = geometry.frame_at(SYS_B, [0.0, 1.0, 0.0])
    assert fr.pivot_tie
    expect = np.array([[0.0, 1.0, 0.0], [1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)]]).T
    assert np.allclose(fr.E, expect, atol=1e-14)


def test_user_frame_validation():
    good = dsl.parse_system(
        catalog.get_entry("nonholonomic_particle").definition
        + "\n[frame]\ncol1 = 1, 0, y\ncol2 = 0, 1, 0\n"
    )
    fr = geometry.frame_at(good, [0.0, 0.5, 0.0])
    assert fr.free_cols is None
    assert np.allclose(fr.E[:, 0], [1.0, 0.0, 0.5], atol=0)
    bad = dsl.parse_system(
        catalog.get_entry("nonholonomic_particle").definition
        + "\n[frame]\ncol1 = 1, 0, 0\ncol2 = 0, 1, 0\n"
    )
    with pytest.raises(FrameInvalidError):
        geometry.frame_at(bad, [0.0, 0.5, 0.0])


def test_tangent_projector_control_case():
    pts = catalog.sample_entry_points(catalog.get_entry("holonomic_control"), 5, 4)
    for x in pts:
        P = geometry.tangent_splitting(SYS_A, x)[0]
        assert np.allclose(P, np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-12)


def test_tangent_projector_laws():
    for ent in catalog.catalog_systems():
        sysd = ent.system()
        n = sysd.n
        J = omega_matrix(n)
        rng = SplitMix64(123)
        for x in catalog.sample_entry_points(ent, 25, 8):
            P, Q, C = geometry.tangent_splitting(sysd, x)
            assert np.max(np.abs(P @ P - P)) < 1e-10
            assert np.max(np.abs(C @ P)) < 1e-10
            assert np.linalg.matrix_rank(P, tol=1e-8) == 2 * sysd.k
            # omega-symmetry of the projector pair
            Z = np.array([rng.uniform(-1, 1) for _ in range(2 * n)])
            W = np.array([rng.uniform(-1, 1) for _ in range(2 * n)])
            assert abs((P @ Z) @ J @ W - Z @ J @ (P @ W)) < 1e-9
            # P fixes ker C, annihilates the symplectic complement
            ns = _nullspace(C)
            for v in ns.T:
                assert np.max(np.abs(P @ v - v)) < 1e-9
            comp = geometry.hamiltonian_vectors(-C).T  # Omega^-1 C^T
            for v in comp.T:
                assert np.max(np.abs(P @ v)) < 1e-9


def _nullspace(C):
    _, s, vt = np.linalg.svd(C)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vt[rank:].T


def test_tangent_projector_requires_on_m():
    with pytest.raises(NotOnMError):
        geometry.tangent_splitting(SYS_B, PhasePoint(q=[0.0, 1.0, 0.0], p=[0.0, 0.0, 1.0]))


# G^-1 p overflows at these momenta, so the residual is NaN
NAN_RESIDUAL_POINT = ([0.1, 0.1, 0.5235987755982988], [1.7e308, 1.7e308, 1.7e308])


def test_require_on_m_rejects_a_nan_residual():
    q, p = NAN_RESIDUAL_POINT
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NotOnMError) as exc:
        geometry.require_on_m(SYS_C, q, p)
    assert np.isnan(exc.value.residual)


def test_projection_jacobian_matches_finite_differences():
    x = catalog.sample_entry_points(catalog.get_entry("nonholonomic_particle"), 1, 63)[0]
    sysd = SYS_B
    z = x.scalars()
    jac = numdiff.jacobian(lambda s: geometry.gamma_hat_apply(sysd, s), z)
    h = 1e-6
    for j in range(6):
        zp, zm = list(z), list(z)
        zp[j] += h
        zm[j] -= h
        col = (
            np.array(geometry.gamma_hat_apply(sysd, zp))
            - np.array(geometry.gamma_hat_apply(sysd, zm))
        ) / (2 * h)
        assert np.max(np.abs(jac[:, j] - col)) < 1e-6


def test_generic_paths_match_numeric():
    entry = catalog.get_entry("chaplygin_sleigh")
    for x in catalog.sample_entry_points(entry, 10, 17):
        q, p = list(x.q), list(x.p)
        met = geometry.metric_at(SYS_C, q)
        assert np.max(np.abs(np.array(geometry.cometric_apply(SYS_C, q, p)) - met.Ginv @ x.p)) < 1e-12
        gp = geometry.eden_project(SYS_C, q, x.p + np.array([0.5, -0.25, 1.0]))
        gp2 = geometry.gamma_apply(SYS_C, q, list(x.p + np.array([0.5, -0.25, 1.0])))
        assert np.max(np.abs(np.array(gp2) - gp)) < 1e-12
        fr = geometry.frame_at(SYS_C, q)
        cols = geometry.frame_apply(SYS_C, q, fr.free_cols)
        assert np.max(np.abs(np.array(cols).T - fr.E)) < 1e-12


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_point_frame_reads_the_validated_constraint_rows(monkeypatch, ent):
    sysd = ent.system()
    x = geometry.on_m_point(sysd, catalog.sample_entry_points(ent, 1, 4)[0])
    ref = geometry.frame_at(sysd, x.q)
    calls = []
    original = sysd.mu_values

    def counted(q_s):
        calls.append(1)
        return original(q_s)

    monkeypatch.setattr(sysd, "mu_values", counted)
    geometry.frame_apply(sysd, x.q.tolist(), ref.free_cols)
    per_frame_apply = len(calls)
    calls.clear()
    fr = x.frame
    # the only evaluation left is the one inside frame_apply's columns
    assert len(calls) == per_frame_apply
    assert fr.E.tobytes() == ref.E.tobytes()
    assert (fr.free_cols, fr.pivot_tie) == (ref.free_cols, ref.pivot_tie)


# the particle with y past its catalog region: two default frame plans
TWO_PLAN_REGION = ((-1.0, 1.0), (-2.0, 2.0), (-1.0, 1.0))
STACK_CASES = [(ent.id, ent.sample_region, 1) for ent in catalog.catalog_systems()]
STACK_CASES.append(("nonholonomic_particle", TWO_PLAN_REGION, 2))


def _point_bytes(x):
    """Every array and flag an OnMPoint's validation and frame hold."""
    fr = x.frame
    arrays = (x.q, x.p, x.met.G, x.met.Ginv, x.cons.mu, x.cons.gram, fr.E)
    flags = [repr(x.residual), fr.E.strides, fr.free_cols, fr.pivot_tie]
    return [a.tobytes() for a in arrays] + flags


# --- the per-point reference: one point, float closures, plain numpy ----------


def _st(A):
    """s t = max A_ii max (A^-1)_ii of a matrix with a Cholesky factor."""
    return np.max(np.diag(A)) * np.max(np.diag(np.linalg.inv(A)))


def _spd_within(A, bound):
    """Whether A has a Cholesky factor and s t <= bound."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return _st(A) <= bound


def reference_on_m(sysd, q, p, tol=geometry.ON_M_TOL):
    """``require_on_m`` at one point, check by check: (q, p, G, Ginv, mu,
    gram, residual), or the error of the first check that fails. Positive
    definiteness is numpy's Cholesky, s t comes from numpy's inverse."""
    q_list = [float(v) for v in q]
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    G = np.asarray(sysd.metric_values(q_list), dtype=float)
    largest = np.abs(G).max()
    if not np.isfinite(largest):
        raise NotSPDError(f"metric has non-finite entries at q={q_list}")
    scale, Gs = max(1.0, largest), 0.5 * (G + G.T)
    if np.abs(G - G.T).max() > 1e-9 * scale:
        raise NotSPDError(f"metric is not symmetric at q={q_list}")
    try:
        np.linalg.cholesky(Gs)
    except np.linalg.LinAlgError:
        raise NotSPDError(f"metric is not positive definite at q={q_list}") from None
    if not _st(Gs) <= geometry.METRIC_BOUND:
        raise NotSPDError(f"metric is too ill-conditioned at q={q_list}")
    Ginv = np.linalg.inv(Gs)
    mu = np.asarray(sysd.mu_values(q_list), dtype=float)
    if not np.isfinite(mu).all():
        raise RankDeficientError(f"constraint rows non-finite at q={q_list}")
    if not _spd_within(mu @ mu.T, geometry.ROWS_BOUND):
        raise RankDeficientError(f"constraint rows are dependent at q={q_list}")
    gram = mu @ Ginv @ mu.T
    if not _spd_within(0.5 * (gram + gram.T), geometry.GRAM_BOUND):
        raise RankDeficientError(
            f"constraint Gram matrix is not positive definite at q={q_list}"
        )
    r = float(np.max(np.abs((mu @ (Ginv @ p[:, None]))[:, 0])))
    if not r <= tol:
        raise NotOnMError(r, tol)
    return q, p, Gs, Ginv, mu, gram, r


def reference_frame_plan(mu):
    """The default frame plan at one point, row by row: (free_cols,
    pivot_tie), or the error of the first check that fails. Each constraint
    row pivots on its largest remaining column (ties toward the lowest
    index), and every other row with a nonzero entry there is eliminated."""
    m, n = mu.shape
    r = np.array(mu, dtype=float)
    scale = float(np.max(np.abs(r)))
    if scale == 0.0:
        raise RankDeficientError("constraint rows vanish identically here")
    pivots: list[int] = []
    tie = False
    for row in range(m):
        mags = np.abs(r[row]).copy()
        mags[pivots] = -1.0
        best_col = int(np.argmax(mags))
        best = mags[best_col]
        if best <= 1e-10 * scale:
            raise RankDeficientError("constraint rows are dependent here")
        mags[best_col] = -1.0
        second = float(np.max(mags)) if n > len(pivots) + 1 else -1.0
        if second >= best * (1.0 - 1e-9):
            tie = True
        pivots.append(best_col)
        for rr in range(m):
            if rr != row and r[rr, best_col] != 0.0:
                r[rr] = r[rr] - (r[rr, best_col] / r[row, best_col]) * r[row]
    free = tuple(j for j in range(n) if j not in pivots)
    return free, tie


def reference_frame(sysd, q, mu):
    """``frame_at`` at one point with its validated rows mu: (E, free_cols,
    pivot_tie), or the error of the first check that fails."""
    q_list = [float(v) for v in q]
    if sysd.frame_exprs is not None:
        free, tie, label, invalid = None, False, "user", FrameInvalidError
        E = np.asarray(geometry.frame_apply(sysd, q_list, free), dtype=float).T
    else:
        free, tie = reference_frame_plan(mu)
        label, invalid = "default", FrameDegenerateError
        try:
            E = np.asarray(geometry.frame_apply(sysd, q_list, free), dtype=float).T
        except SingularMatrixError:
            raise RankDeficientError("constraint rows are dependent here") from None
        except DomainError:
            raise FrameDegenerateError(f"default frame column collapsed at q={q_list}") from None
    scale = max(1.0, np.abs(mu).max() * np.abs(E).max())
    if np.abs(mu @ E).max() > 1e-10 * scale:
        raise invalid(f"{label} frame leaves the distribution at q={q_list}")
    s = np.linalg.svd(E, compute_uv=False)
    if s[-1] <= 1e-10 * max(1.0, s[0]):
        raise invalid(f"{label} frame columns are dependent at q={q_list}")
    return E, free, tie


def _reference_bytes(sysd, x):
    """``_point_bytes`` of the phase point x from the per-point reference."""
    *arrays, r = reference_on_m(sysd, x.q, x.p)
    E, free, tie = reference_frame(sysd, x.q, arrays[4])
    return [a.tobytes() for a in (*arrays, E)] + [repr(r), E.strides, free, tie]


@pytest.mark.parametrize("name, region, n_plans", STACK_CASES)
def test_stacked_validation_and_frames_are_bitwise_the_per_point_ones(
    count_calls, name, region, n_plans
):
    sysd = catalog.get_system(name)
    sample = catalog.sample_m_points(sysd, 40, 5, region=region)
    counts = count_calls(geometry, ("metric_at", "constraints_at", "frame_at"))
    points = geometry.on_m_point(sysd, sample)
    geometry.frame_batch(points)
    assert counts == {"metric_at": 0, "constraints_at": 0, "frame_at": 0}  # all stacked
    assert len({x.frame.free_cols for x in points}) == n_plans
    for x, y in zip(points, sample):
        assert _point_bytes(x) == _reference_bytes(sysd, y)


def _first_error(fn, items):
    with pytest.raises(NonholoError) as info:
        fn(items)
    return type(info.value), str(info.value)


def _validated_one_by_one(sysd):
    return lambda xs: [reference_on_m(sysd, x.q, x.p) for x in xs]


def test_a_bad_point_in_a_stacked_validation_raises_as_it_would_alone(
    sign_changing_metric, fading_rows, ill_conditioned_gram
):
    sleigh = catalog.get_system("chaplygin_sleigh")
    fading = ((0.0, 0.5), (-1.0, 1.0), (-1.0, 1.0))
    cases = [  # off M, a non-SPD metric, dependent rows, rows with a singular Gram matrix
        (sleigh, None, lambda x: PhasePoint(q=x.q, p=x.p + 0.1), NotOnMError, "off"),
        (sign_changing_metric, ((0.1, 1.0), (-1.0, 1.0)),
         lambda x: PhasePoint(q=[-0.5, x.q[1]], p=x.p), NotSPDError, "positive definite"),
        (fading_rows, fading, lambda x: PhasePoint(q=[0.95, *x.q[1:]], p=x.p),
         RankDeficientError, "rows are dependent"),
        (ill_conditioned_gram, ((-1.0, 0.0), (-1.0, 1.0), (-1.0, 1.0)),
         lambda x: PhasePoint(q=[0.5, *x.q[1:]], p=x.p), RankDeficientError, "Gram matrix"),
    ]
    for sysd, region, spoil, error, what in cases:
        sample = catalog.sample_m_points(sysd, 9, 3, region=region)
        sample[4] = spoil(sample[4])
        alone = _first_error(_validated_one_by_one(sysd), sample)
        assert alone[0] is error and what in alone[1]
        assert _first_error(lambda xs: geometry.on_m_point(sysd, xs), sample) == alone
        # the points before it validate as they would alone
        for x, y in zip(geometry.on_m_point(sysd, sample[:4]), sample):
            assert _point_bytes(x) == _reference_bytes(sysd, y)


def test_a_stack_raises_its_first_failing_point_not_its_first_failed_check(
    sign_changing_metric,
):
    # one point off M (the last check), another with a metric that is not
    # positive definite (the metric's checks run first): point 2 raises
    sysd = sign_changing_metric
    sample = catalog.sample_m_points(sysd, 9, 3, region=((0.1, 1.0), (-1.0, 1.0)))

    def off(x):
        return PhasePoint(q=x.q, p=x.p + 0.1)

    def not_spd(x):
        return PhasePoint(q=[-0.5, x.q[1]], p=x.p)

    for spoil2, spoil5, error in ((off, not_spd, NotOnMError), (not_spd, off, NotSPDError)):
        spoiled = list(sample)
        spoiled[2], spoiled[5] = spoil2(sample[2]), spoil5(sample[5])
        alone = _first_error(_validated_one_by_one(sysd), spoiled)
        assert alone[0] is error
        assert _first_error(lambda xs: geometry.on_m_point(sysd, xs), spoiled) == alone


def _framed_one_by_one(sysd):
    return lambda xs: [reference_frame(sysd, x.q, x.cons.mu) for x in xs]


def test_a_bad_user_frame_in_a_stacked_build_raises_as_it_would_alone():
    # the first column leaves the distribution where x is near 0.5 only
    col = "col1 = 1, 0, y + exp(-1000*(x - 0.5)^2)\ncol2 = 0, 1, 0\n"
    sysd = dsl.parse_system(catalog.NONHOLONOMIC_PARTICLE + "\n[frame]\n" + col)
    sample = catalog.sample_m_points(sysd, 9, 3, region=((-1.0, 0.0), (-0.5, 0.5), (-1.0, 1.0)))
    good = geometry.on_m_point(sysd, sample)
    geometry.frame_batch(good)
    for x in good:
        assert _point_bytes(x) == _reference_bytes(sysd, x)
    sample[4] = PhasePoint(q=[0.5, *sample[4].q[1:]], p=sample[4].p)
    alone = _first_error(_framed_one_by_one(sysd), geometry.on_m_point(sysd, sample))
    assert alone[0] is FrameInvalidError and "leaves the distribution" in alone[1]
    assert _first_error(geometry.frame_batch, geometry.on_m_point(sysd, sample)) == alone


def test_a_collapsed_default_frame_in_a_stacked_build_raises_as_it_would_alone(monkeypatch):
    # the norm of the first frame column vanishes at the middle point only
    ent = catalog.get_entry("vertical_rolling_disk")
    sysd = ent.system()
    sample = catalog.sample_entry_points(ent, 9, 3)
    bad = sample[4].q[0]
    frame_apply, sqrt, keep = geometry.frame_apply, numdiff.sqrt, [1.0]

    def marked(sys, q_s, free_cols):
        keep[0] = (numdiff.float_core(q_s[0]) != bad) * 1.0  # a float, or one per point
        return frame_apply(sys, q_s, free_cols)

    monkeypatch.setattr(geometry, "frame_apply", marked)
    monkeypatch.setattr(numdiff, "sqrt", lambda v: sqrt(v) * keep[0])
    alone = _first_error(_framed_one_by_one(sysd), geometry.on_m_point(sysd, sample))
    assert alone[0] is FrameDegenerateError and "collapsed" in alone[1]
    points = geometry.on_m_point(sysd, sample)
    assert _first_error(geometry.frame_batch, points) == alone
    for x in points[:4]:  # built before it, and bitwise as alone
        assert x.frame.E.tobytes() == reference_frame(sysd, x.q, x.cons.mu)[0].tobytes()


def _plan_or_error(fn, *args):
    try:
        return fn(*args)
    except RankDeficientError as exc:
        return type(exc), str(exc)


def _random_rows(rng, m, n):
    """Constraint rows (m, n) of small integers, so ties and zeros occur,
    with an entry replaced by inf, -inf or NaN now and then."""
    mu = rng.integers(-2, 3, (m, n)).astype(float)
    special = rng.random((m, n)) < 0.05
    mu[special] = rng.choice([np.inf, -np.inf, np.nan], int(special.sum()))
    return mu


def _reference_plan(mu):
    with np.errstate(all="ignore"):
        return _plan_or_error(reference_frame_plan, mu)


def test_stacked_frame_plans_equal_the_reference_plan():
    # m = 1-3 rows over n = 1-5 columns, finite or not
    rng = np.random.default_rng(19)
    seen = {"tie": 0, "vanish": 0, "dependent": 0, "non-finite": 0}
    for _ in range(3000):  # single points
        mu = _random_rows(rng, *rng.integers(1, (4, 6)))
        want = _reference_plan(mu)
        got = _plan_or_error(geometry.default_frame_plans, mu[None])
        assert got == (want if isinstance(want[0], type) else [want])
        seen["tie"] += want[1] is True
        seen["vanish"] += "vanish" in str(want[1])
        seen["dependent"] += "dependent" in str(want[1])
        seen["non-finite"] += not np.isfinite(mu).all()
    assert min(seen.values()) >= 50
    for _ in range(400):  # stacks of 7 points of one shape
        m, n = rng.integers(1, (4, 6))
        stack = np.stack([_random_rows(rng, m, n) for _ in range(7)])
        want = [_reference_plan(mu) for mu in stack]
        errors = [w for w in want if isinstance(w[0], type)]
        if not errors:
            assert geometry.default_frame_plans(stack) == want
        else:  # a stack raises one of its points' errors, per_point the first
            assert _plan_or_error(geometry.default_frame_plans, stack) in errors
        assert _plan_or_error(geometry.per_point, geometry.default_frame_plans, stack) == (
            errors[0] if errors else want
        )


def test_a_bad_frame_plan_in_a_stacked_build_raises_as_it_would_alone():
    # point 4 has dependent rows, point 5 rows that vanish: the stacked plan
    # meets point 5's error first, and the build reports point 4's
    ent = catalog.get_entry("vertical_rolling_disk")  # two rows over four columns
    sysd = ent.system()
    points = geometry.on_m_point(sysd, catalog.sample_entry_points(ent, 7, 3))
    bad = {4: [[1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0]], 5: np.zeros((2, 4))}
    for b, mu in bad.items():
        mu = np.array(mu)
        points[b] = dataclasses.replace(
            points[b], cons=geometry.ConstraintsAtPoint(mu=mu, gram=mu @ mu.T)
        )
    want = (RankDeficientError, "constraint rows are dependent here")
    assert _first_error(_framed_one_by_one(sysd), points) == want
    assert _first_error(geometry.frame_batch, points) == want
    assert _first_error(geometry.frame_batch, points[5:]) == (
        RankDeficientError, "constraint rows vanish identically here"
    )
    for x in points[:4]:  # built before it, and bitwise as alone
        assert _point_bytes(x) == _reference_bytes(sysd, x)


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_lone_points_evaluate_closures_and_lifts_on_float_cores(monkeypatch, ent):
    # one point never runs through (1,) array cores: every closure input and
    # every lifted value of the single-point entry points has a float core
    from nonholo import brackets, dynamics

    sysd = ent.system()
    x = catalog.sample_entry_points(ent, 1, 7)[0]
    cores = []

    def record(values):
        values = list(values)
        cores.extend(type(numdiff.float_core(v)) for v in values)
        return values

    for name in ("metric_values", "mu_values", "frame_values", "potential_value"):
        original = getattr(sysd, name)
        monkeypatch.setattr(sysd, name, lambda q_s, _f=original: _f(record(q_s)))
    lift = numdiff.lift
    monkeypatch.setattr(numdiff, "lift", lambda values: lift(record(values)))
    kick = x.p + 0.25
    geometry.require_on_m(sysd, x.q, x.p)
    geometry.eden_project(sysd, x.q, kick)
    geometry.frame_at(sysd, x.q)
    dynamics.FieldEvaluator(sysd).state(x.q, kick)
    observables = catalog.observable_test_set(sysd)
    fgh = [observables[i] for i in (0, sysd.n, 1)]
    for kind in brackets.BRACKET_KINDS:
        if kind == "dstar":
            fgh = [brackets.pushforward_observable(sysd, o) for o in fgh]
        brackets.jacobiator(sysd, kind, *fgh, x)
    xm = geometry.on_m_point(sysd, x)
    brackets.raw_rows(xm, observables)
    brackets.compare_brackets(sysd, observables[0], observables[sysd.n], x)
    dynamics._free_field_and_multipliers(sysd, xm)
    dynamics.hamiltonian_field(sysd, x)
    brackets.pushforward_observable(sysd, observables[1]).fn(xm.dstar_scalars())
    assert cores and set(cores) == {float}


def _source_sites(found):
    """``module.top_level_name`` of every top-level definition in the package
    source holding a node for which ``found(node)`` holds, once per node."""
    sites = []
    for path in sorted(Path(geometry.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if found(node):
                    sites.append(f"{path.stem}.{getattr(top, 'name', '')}")
    return sites


def test_only_per_point_catches_a_stacked_failure():
    # a stacked pass that raises is rerun point by point in per_point; no
    # other code catches BATCH_FAILURES to find a failing point of its own
    def catches(node):
        return (isinstance(node, ast.ExceptHandler) and node.type is not None
                and "BATCH_FAILURES" in ast.unparse(node.type))

    assert _source_sites(catches) == ["geometry.per_point"]


def test_only_the_frame_and_splitting_builds_fill_a_points_cache():
    # every other stacked build returns its arrays to the caller; these two
    # also write each point's row into its cached slot, which the per-point
    # readers (the projection route, compare_brackets, the frame plans) read
    def fills(node):
        return isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute)
            and t.value.attr == "__dict__" for t in node.targets)

    assert sorted(_source_sites(fills)) == ["geometry.frame_batch", "geometry.tangent_splitting"]


def test_the_bracket_formulas_never_restack_a_points_data():
    # the route tables and the nh values take arrays; their callers build them
    def restacks(node):
        return (isinstance(node, ast.Attribute) and node.attr == "stacked"
                and ast.unparse(node.value) == "geometry")

    assert [site for site in _source_sites(restacks) if site.startswith("brackets.")] == []


def test_dense_linear_algebra_goes_through_the_lapack_seam():
    # solves, inverses, least squares and singular values call numpy's
    # gufuncs in _lapack; outside it, the one such np.linalg name in the
    # package is verify's full SVD (the tests keep np.linalg as the oracle).
    # No code calls a Cholesky factor: validity is geometry.ldl's rule
    def names(*attrs):
        return lambda node: (isinstance(node, ast.Attribute) and node.attr in attrs
                             and ast.unparse(node.value) in ("np.linalg", "numpy.linalg"))

    def outside(sites):
        return [s for s in sites if not s.startswith("_lapack.")]

    assert outside(_source_sites(names("solve", "inv", "cholesky", "lstsq"))) == []
    assert outside(_source_sites(names("svd"))) == ["verification._chunk_metrics"]
    source = Path(geometry.__file__).with_name("verification.py").read_text()
    calls = [ast.unparse(node) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and names("svd")(node.func)]
    assert calls == ["np.linalg.svd(P)"]  # the full SVD, with its vectors


def test_no_linalg_call_sits_in_a_loop():
    # a stack of matrices goes to LAPACK in one call (the seam's fallback
    # where numpy has no lstsq gufunc vectorizes the public call)
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)

    def linalg_call(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).startswith(
            ("np.linalg.", "numpy.linalg.", "linalg."))

    def loop_over_linalg(node):
        return isinstance(node, loops) and any(map(linalg_call, ast.walk(node)))

    assert _source_sites(loop_over_linalg) == []


# the bodies of formulas that no one name reads: pi = E^T p, a frame on the
# left of the momenta; X_F = (dF/dp, -dF/dq), the negated half of a gradient
# (Omega^-1 negates the other half)
COMPUTES = {
    "pi": lambda node: (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        and re.search(r"\bE", ast.unparse(node.left)) is not None
        and re.match(r"(self\.)?p\b", ast.unparse(node.right)) is not None),
    "X_F": lambda node: (
        isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
        and re.search(r"\[\.\.\., (:n|n:)[],]", ast.unparse(node.operand)) is not None),
}


@pytest.mark.parametrize("name, owner", [
    ("from_dstar_apply", "geometry.dstar_chart"),  # the one D* -> M chart
    ("residual_phase", "geometry.splitting_rows"),  # the one splitting matrix C
    ("pi", "geometry.OnMPoint"),  # the one M -> D* map
    ("X_F", "geometry.hamiltonian_vectors"),  # the one numpy Hamiltonian field
])
def test_one_body_reads_each_formula(name, owner):
    # every other caller goes through the owner, so the object has one body
    def reads(node):
        return (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name)

    assert _source_sites(COMPUTES.get(name, reads)) == [owner]


DATA = Path(__file__).parent / "data"

# the particle with y in [-3, 3]: two default frame plans
PI_CASES = [(ent.id, ent.definition, ent.sample_region, 1) for ent in catalog.catalog_systems()]
PI_CASES += [
    ("particle_user_frame", (DATA / "particle_user_frame.system").read_text(),
     catalog.get_entry("nonholonomic_particle").sample_region, 1),
    ("two_plan_particle", catalog.NONHOLONOMIC_PARTICLE, ((-1.0, 1.0), (-3.0, 3.0), (-1.0, 1.0)), 2),
]


@pytest.mark.parametrize("name, source, region, n_plans", PI_CASES, ids=[c[0] for c in PI_CASES])
def test_a_lone_points_pi_is_bitwise_its_row_of_the_stacked_pi(name, source, region, n_plans):
    # the algebroid stacks the points' own pi, which is the stacked formula
    sysd = dsl.parse_system(source)
    sample = catalog.sample_m_points(sysd, 100, 3, region=region)
    points = geometry.on_m_point(sysd, sample)
    geometry.frame_batch(points)
    assert len(geometry.frame_plans(points)) == n_plans
    E, p = geometry.stacked(points, "frame.E"), geometry.stacked(points, "p")
    pi = (E.swapaxes(-1, -2) @ p[..., None])[..., 0]
    for x, row in zip(sample, pi):
        lone = geometry.require_on_m(sysd, x.q, x.p).dstar_scalars()[sysd.n :]
        assert np.array(lone).tobytes() == row.tobytes()


def test_one_elimination_per_matrix_in_the_generic_formulas(count_calls):
    # gamma_apply eliminates G once for [p | mu^T], then the Gram matrix; a
    # default frame eliminates mu mu^T once for all its free columns
    sysd = catalog.get_system("vertical_rolling_disk")
    [x] = catalog.sample_m_points(sysd, 1, 5)
    q, p = list(x.q), list(x.p)
    free = geometry.frame_at(sysd, q).free_cols
    assert len(free) == 2 and sysd.n_constraints == 2
    counts = count_calls(numdiff, ["solve_linear"])
    geometry.gamma_apply(sysd, q, p)
    assert counts["solve_linear"] == 2
    counts["solve_linear"] = 0
    geometry.frame_apply(sysd, q, free)
    assert counts["solve_linear"] == 1


# kept though only the tests call them: the standalone bracket oracles the
# route tables are checked against
ORACLES = {"canonical_bracket", "eden_bracket", "nonholonomic_bracket", "dstar_bracket"}


def _names(node):
    """The (name, via an attribute) pairs a node gives: a name, an attribute,
    or each part of a string that is a dotted name (perfbench's traced spans,
    ``stacked``'s fields), which names attributes."""
    if isinstance(node, ast.Name):
        return [(node.id, False)]
    if isinstance(node, ast.Attribute):
        return [(node.attr, True)]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        parts = node.value.split(".") if re.fullmatch(r"[\w.]+", node.value) else []
        return [(part, True) for part in parts]
    return []


def _definitions(top):
    """(node, name, class) of each definition a top-level statement of a
    module makes: a function, a class and the methods and classes in its
    body (their class named), or a constant. The node encloses the
    definition's own code; a tuple target's names are each their own node."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        yield top, top.name, None
        for node in top.body if isinstance(top, ast.ClassDef) else []:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node, node.name, top.name
    elif isinstance(top, (ast.Assign, ast.AnnAssign)):
        targets = top.targets if isinstance(top, ast.Assign) else [top.target]
        names = [n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        for n in names:
            yield (top if len(names) == 1 else n), n.id, None


def test_every_definition_in_the_package_has_a_caller_outside_the_tests():
    # a top-level function, class, method or constant of src/nonholo is named
    # by code in src/, scripts/ or perfbench/ outside its own body and outside
    # every definition that is itself unused, a method only as an attribute
    # (x.at, not a local at); or it is an oracle or exported: the names in
    # nonholo.__all__ and the methods of those classes
    import nonholo

    root = Path(geometry.__file__).parents[2]
    trees = {path: ast.parse(path.read_text()) for part in ("src/nonholo", "scripts", "perfbench")
             for path in sorted((root / part).glob("*.py"))}
    defs = {}  # id(node) -> (module.label, name, class) of each definition of the package
    for path, tree in trees.items():
        for top in tree.body if path.parent.name == "nonholo" else []:
            for node, name, owner in _definitions(top):
                if not name.startswith("__"):
                    label = name if owner is None else f"{owner}.{name}"
                    defs[id(node)] = (f"{path.stem}.{label}", name, owner)
    uses = {}  # (name, via an attribute) -> the definitions enclosing each node that names it

    def walk(node, enclosing):
        for child in ast.iter_child_nodes(node):
            inner = enclosing | {id(child)} if id(child) in defs else enclosing
            for use in _names(child):
                uses.setdefault(use, []).append(inner)
            walk(child, inner)

    for tree in trees.values():
        walk(tree, frozenset())
    kept = ORACLES | set(nonholo.__all__)

    def sites(name, owner):
        return uses.get((name, True), []) + ([] if owner else uses.get((name, False), []))

    unused = set()
    while True:
        found = {key for key, (_, name, owner) in defs.items()
                 if key not in unused and name not in kept and owner not in nonholo.__all__
                 and all(inner & (unused | {key}) for inner in sites(name, owner))}
        if not found:
            break
        unused |= found
    assert not unused, "only tests call " + ", ".join(sorted(defs[key][0] for key in unused))
