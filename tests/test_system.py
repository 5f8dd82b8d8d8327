import numpy as np
import pytest

from nonholo import catalog, geometry, numdiff
from nonholo.errors import NotOnMError
from nonholo.rng import SplitMix64
from nonholo.system import DStarPoint, PhasePoint, hamiltonian_observable, legendre
from reference import energy, from_dstar, hamiltonian, lagrangian

SYS_A = catalog.get_system("holonomic_control")
SYS_B = catalog.get_system("nonholonomic_particle")
SYS_C = catalog.get_system("chaplygin_sleigh")
SYS_D = catalog.get_system("vertical_rolling_disk")


def _random_qv(sysd, rng, region):
    q = [rng.uniform(*iv) for iv in region]
    v = np.array([rng.uniform(-2, 2) for _ in range(sysd.n)])
    return q, v


def test_lagrangian_energy_trivial():
    assert lagrangian(SYS_A, [0.2, 0.4], [1.0, 0.0]) == 0.5
    assert energy(SYS_A, [0.2, 0.4], [1.0, 0.0]) == 0.5
    assert lagrangian(SYS_A, [0.2, 0.4], [0.0, 0.0]) == 0.0


def test_energy_plus_lagrangian_identity():
    rng = SplitMix64(31)
    entry = catalog.get_entry("chaplygin_sleigh")
    for _ in range(100):
        q, v = _random_qv(SYS_C, rng, entry.sample_region)
        met = geometry.metric_at(SYS_C, q)
        lhs = energy(SYS_C, q, v) + lagrangian(SYS_C, q, v)
        assert lhs == pytest.approx(float(v @ met.G @ v), abs=1e-12)


def test_legendre_identity_metric():
    x = legendre(SYS_A, [0.0, 0.0], [2.0, 3.0])
    assert np.array_equal(x.p, [2.0, 3.0])


def test_legendre_round_trip():
    rng = SplitMix64(47)
    entry = catalog.get_entry("vertical_rolling_disk")
    for _ in range(50):
        q, v = _random_qv(SYS_D, rng, entry.sample_region)
        x = legendre(SYS_D, q, v)
        assert np.max(np.abs(geometry.metric_at(SYS_D, q).Ginv @ x.p - v)) < 1e-12


def test_admissible_velocities_land_on_m():
    rng = SplitMix64(53)
    entry = catalog.get_entry("nonholonomic_particle")
    for _ in range(100):
        q = [rng.uniform(*iv) for iv in entry.sample_region]
        fr = geometry.frame_at(SYS_B, q)
        xi = np.array([rng.uniform(-2, 2) for _ in range(SYS_B.k)])
        x = legendre(SYS_B, q, fr.E @ xi)
        assert geometry.residual_norm(SYS_B, x.q, x.p) < 1e-10


def test_hamiltonian_values_and_identity():
    assert hamiltonian(SYS_A, [0.0, 0.0], [1.0, 0.0]) == 0.5
    assert hamiltonian(SYS_B, [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]) == 1.0
    rng = SplitMix64(61)
    entry = catalog.get_entry("chaplygin_sleigh")
    for _ in range(100):
        q, v = _random_qv(SYS_C, rng, entry.sample_region)
        x = legendre(SYS_C, q, v)
        assert hamiltonian(SYS_C, q, x.p) == pytest.approx(energy(SYS_C, q, v), abs=1e-12)


def test_hamiltonian_quadratic_in_momentum():
    rng = SplitMix64(71)
    for x in catalog.sample_entry_points(catalog.get_entry("chaplygin_sleigh"), 20, 5):
        t = rng.uniform(0.1, 3.0)
        v0 = hamiltonian(SYS_C, x.q, x.p)
        vt = hamiltonian(SYS_C, x.q, t * x.p)
        assert vt == pytest.approx(t * t * v0, rel=1e-12)  # V = 0 for the sleigh


def test_observable_real_dual_agreement():
    obs = catalog.observable_test_set(SYS_C)
    for x in catalog.sample_entry_points(catalog.get_entry("chaplygin_sleigh"), 5, 13):
        duals = numdiff.lift(x.scalars())
        for f in obs:
            real = f.at(x)
            dual = f.fn(duals)
            dv = dual.value if isinstance(dual, numdiff.DualScalar) else dual
            assert real == pytest.approx(dv, abs=1e-14)


def test_to_dstar_trivial_and_round_trips():
    x = PhasePoint(q=[0.3, -0.2], p=[1.7, 0.0])
    y = DStarPoint(q=x.q, pi=geometry.require_on_m(SYS_A, x.q, x.p).pi)
    assert np.allclose(y.pi, [1.7], atol=0)
    back = from_dstar(SYS_A, y)
    assert np.max(np.abs(back.p - x.p)) < 1e-14

    for x in catalog.sample_entry_points(catalog.get_entry("nonholonomic_particle"), 100, 19):
        back = from_dstar(SYS_B, DStarPoint(q=x.q, pi=geometry.require_on_m(SYS_B, x.q, x.p).pi))
        assert np.max(np.abs(back.p - x.p)) < 1e-10

    rng = SplitMix64(83)
    entry = catalog.get_entry("chaplygin_sleigh")
    for _ in range(100):
        q = [rng.uniform(*iv) for iv in entry.sample_region]
        pi = np.array([rng.uniform(-2, 2) for _ in range(SYS_C.k)])
        y = DStarPoint(q=np.array(q), pi=pi)
        x = from_dstar(SYS_C, y)
        assert geometry.residual_norm(SYS_C, x.q, x.p) < 1e-10
        y2 = DStarPoint(q=x.q, pi=geometry.require_on_m(SYS_C, x.q, x.p).pi)
        assert np.max(np.abs(y2.pi - pi)) < 1e-10


def test_to_dstar_requires_on_m():
    with pytest.raises(NotOnMError):
        geometry.require_on_m(SYS_B, [0.0, 0.5, 0.0], [1.0, 0.0, 0.0])


def test_to_dstar_is_frame_pairing():
    x = PhasePoint(q=[0.0, 1.0, 0.0], p=[1.0, 0.0, 1.0])
    fr = geometry.frame_at(SYS_B, x.q)
    y = DStarPoint(q=x.q, pi=geometry.require_on_m(SYS_B, x.q, x.p).pi)
    assert np.allclose(y.pi, fr.E.T @ x.p, atol=0)


def test_constrained_hamiltonian():
    y = DStarPoint(q=[0.0, 0.0], pi=[1.0])
    assert hamiltonian(SYS_A, y.q, from_dstar(SYS_A, y).p) == 0.5
    x = PhasePoint(q=[0.0, 1.0, 0.0], p=[1.0, 0.0, 1.0])
    y = DStarPoint(q=x.q, pi=geometry.require_on_m(SYS_B, x.q, x.p).pi)
    assert hamiltonian(SYS_B, y.q, from_dstar(SYS_B, y).p) == pytest.approx(1.0, abs=1e-14)
    for x in catalog.sample_entry_points(catalog.get_entry("vertical_rolling_disk"), 100, 23):
        y = DStarPoint(q=x.q, pi=geometry.require_on_m(SYS_D, x.q, x.p).pi)
        h = hamiltonian(SYS_D, y.q, from_dstar(SYS_D, y).p)
        assert h == pytest.approx(hamiltonian(SYS_D, x.q, x.p), abs=1e-11)


def test_fiberwise_bijection_rank():
    # the momentum fiber of M maps onto the dual fiber with full rank k
    for sysd, ent in ((SYS_D, "vertical_rolling_disk"), (SYS_B, "nonholonomic_particle")):
        q = catalog.sample_entry_points(catalog.get_entry(ent), 1, 29)[0].q
        rng = SplitMix64(3)
        cols = []
        for _ in range(20):
            p = geometry.eden_project(sysd, q, [rng.uniform(-1, 1) for _ in range(sysd.n)])
            cols.append(geometry.require_on_m(sysd, q, p).pi)
        assert np.linalg.matrix_rank(np.array(cols), tol=1e-10) == sysd.k


def test_hamiltonian_observable_matches():
    h = hamiltonian_observable(SYS_C)
    for x in catalog.sample_entry_points(catalog.get_entry("chaplygin_sleigh"), 10, 37):
        assert h.at(x) == pytest.approx(hamiltonian(SYS_C, x.q, x.p), abs=1e-14)
