import numpy as np
import pytest

from nonholo import brackets, catalog, geometry
from nonholo.errors import NotSPDError, RankDeficientError, StructuralError
from nonholo.rng import SplitMix64


def test_catalog_ids_and_arities():
    entries = catalog.catalog_systems()
    ids = [e.id for e in entries]
    assert ids == [
        "holonomic_control",
        "nonholonomic_particle",
        "chaplygin_sleigh",
        "vertical_rolling_disk",
    ]
    assert catalog.get_system("holonomic_control").k == 1
    assert catalog.get_system("vertical_rolling_disk").k == 2
    with pytest.raises(KeyError):
        catalog.get_entry("bogus")


def test_entries_validate_over_sample_region():
    rng = SplitMix64(2024)
    for entry in catalog.catalog_systems():
        sysd = entry.system()
        for _ in range(1000):
            q = [rng.uniform(*iv) for iv in entry.sample_region]
            met = geometry.metric_at(sysd, q)  # SPD or raises
            geometry.constraints_at(sysd, q, met)  # full rank or raises
            fr = geometry.frame_at(sysd, q)
            assert not fr.pivot_tie
            assert np.max(np.abs(met.G @ met.Ginv - np.eye(sysd.n))) < 1e-10
            mu = np.asarray(sysd.mu_values(q), dtype=float)
            assert np.max(np.abs(mu @ fr.E)) < 1e-10


def test_observable_test_set_counts_and_determinism():
    sys_a = catalog.get_system("holonomic_control")
    obs = catalog.observable_test_set(sys_a)
    assert len(obs) == 10  # 2 + 2 + 1 + 4 + 1
    assert [o.label for o in obs] == [o.label for o in catalog.observable_test_set(sys_a)]
    sys_d = catalog.get_system("vertical_rolling_disk")
    assert len(catalog.observable_test_set(sys_d)) == 26


def test_observables_evaluate_over_duals():
    from nonholo import numdiff

    sysd = catalog.get_system("vertical_rolling_disk")
    x = catalog.sample_entry_points(catalog.get_entry("vertical_rolling_disk"), 1, 9)[0]
    duals = numdiff.lift(x.scalars())
    for f in catalog.observable_test_set(sysd):
        out = f.fn(duals)
        assert isinstance(out, numdiff.DualScalar)


def test_corpus_real_dual_value_agreement():
    from nonholo import dsl, numdiff

    for entry in catalog.catalog_systems():
        sysd = entry.system()
        rng = SplitMix64(31337)
        exprs = [e for row in sysd.metric_exprs for e in row]
        exprs.append(sysd.potential_expr)
        exprs += [e for row in sysd.constraint_exprs for e in row]
        for expr in exprs:
            fn = dsl.compile_expression(expr, sysd.coords, sysd.params)
            for _ in range(5):
                q = [rng.uniform(*iv) for iv in entry.sample_region]
                real = fn(q)
                dual = fn(numdiff.lift(q))
                val = dual.value if isinstance(dual, numdiff.DualScalar) else dual
                assert abs(real - val) <= 1e-14 * max(1.0, abs(real))


def test_sampling_determinism_and_residuals():
    entry = catalog.get_entry("nonholonomic_particle")
    a = catalog.sample_entry_points(entry, 1, 42)[0]
    b = catalog.sample_entry_points(entry, 1, 42)[0]
    assert np.array_equal(a.q, b.q) and np.array_equal(a.p, b.p)
    sysd = entry.system()
    for x in catalog.sample_entry_points(entry, 1000, 7):
        assert geometry.residual_norm(sysd, x.q, x.p) <= 1e-12


def test_sampled_momenta_span_fiber():
    entry = catalog.get_entry("vertical_rolling_disk")
    sysd = entry.system()
    x0 = catalog.sample_entry_points(entry, 1, 55)[0]
    rng = SplitMix64(56)
    rows = []
    for _ in range(30):
        p = geometry.eden_project(sysd, x0.q, [rng.uniform(-1, 1) for _ in range(sysd.n)])
        rows.append(p)
    assert np.linalg.matrix_rank(np.array(rows), tol=1e-10) == sysd.k


def test_integrability_witness_split():
    for entry in catalog.catalog_systems():
        sysd = entry.system()
        rng = SplitMix64(88)
        worst = 0.0
        for _ in range(40):
            q = [rng.uniform(*iv) for iv in entry.sample_region]
            fr = geometry.frame_at(sysd, q)
            free = fr.free_cols
            cols = lambda s: geometry.frame_apply(sysd, s, free)
            mu = np.asarray(sysd.mu_values(q), dtype=float)
            pairs = [(a, b) for a in range(sysd.k) for b in range(a + 1, sysd.k)]
            if not pairs:
                # rank-one distribution: bracket functional multiples instead
                X = lambda s: cols(s)[0]
                Y = lambda s: [s[0] * v for v in cols(s)[0]]
                w = brackets.lie_bracket_raw(sysd, X, Y, q)
                worst = max(worst, float(np.max(np.abs(mu @ w))))
                continue
            for a, b in pairs:
                X = lambda s, a=a: cols(s)[a]
                Y = lambda s, b=b: cols(s)[b]
                w = brackets.lie_bracket_raw(sysd, X, Y, q)
                worst = max(worst, float(np.max(np.abs(mu @ w))))
        if entry.id == "holonomic_control":
            assert worst <= 1e-10
        else:
            assert worst > 1e-6


def reference_sample(sys, count, seed, region=None, momentum_scale=1.0):
    """The oracle of ``sample_m_points``: one candidate at a time, q then p
    drawn, projected by ``eden_project`` and skipped on RankDeficientError,
    with the cap checked before each draw."""
    n = sys.n
    region = region or tuple((-1.0, 1.0) for _ in range(n))
    rng = catalog.SplitMix64(seed)
    out = []
    attempts = 0
    while len(out) < count:
        if attempts > 64 * count:
            raise RankDeficientError(
                "sampling kept hitting degenerate configurations; check the region"
            )
        attempts += 1
        q = np.array([rng.uniform(lo, hi) for lo, hi in region])
        p_raw = np.array([rng.uniform(-momentum_scale, momentum_scale) for _ in range(n)])
        try:
            p = geometry.eden_project(sys, q, p_raw)
        except RankDeficientError:
            continue
        out.append(catalog.PhasePoint(q=q, p=p))
    return out


@pytest.fixture
def draws(monkeypatch):
    """Count the numbers the samplers draw from their stream."""
    count = [0]

    class Counted(SplitMix64):
        def next_u64(self):
            count[0] += 1
            return super().next_u64()

    monkeypatch.setattr(catalog, "SplitMix64", Counted)
    return count


def _both_samplers(draws, sys, count, seed, region=None, momentum_scale=1.0):
    """(outcome, draws) of the stacked sampler, then of the reference; an
    outcome is the points' bytes or the exception's type and message."""
    runs = []
    for sampler in (catalog.sample_m_points, reference_sample):
        draws[0] = 0
        try:
            with np.errstate(all="ignore"):
                points = sampler(sys, count, seed, region, momentum_scale)
            outcome = [(x.q.tobytes(), x.p.tobytes()) for x in points]
        except Exception as exc:  # compared, not swallowed
            outcome = (type(exc), str(exc))
        runs.append((outcome, draws[0]))
    return runs


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_stacked_sampler_is_bitwise_the_per_candidate_loop(draws, ent):
    for seed in (1, 2, 7, 1234):
        for count in (1, 7, 100, 101):
            (got, _), (want, _) = _both_samplers(
                draws, ent.system(), count, seed, ent.sample_region, ent.momentum_scale
            )
            assert len(got) == count and got == want, (seed, count)


def test_stacked_sampler_skips_the_rank_deficient_candidates(draws, fading_rows):
    for lo, seed, count in ((0.0, 3, 100), (0.0, 4, 101), (0.6, 3, 7), (0.6, 5, 1)):
        region = ((lo, 1.0), (-1.0, 1.0), (-1.0, 1.0))
        (got, used), (want, _) = _both_samplers(draws, fading_rows, count, seed, region)
        assert len(got) == count and got == want
        assert used > 6 * count  # some candidates were skipped


def test_stacked_sampler_gives_up_at_the_same_attempt(draws, fading_rows):
    region = ((0.65, 1.0), (-1.0, 1.0), (-1.0, 1.0))  # every candidate is skipped
    for count in (1, 7, 100):
        got, want = _both_samplers(draws, fading_rows, count, 9, region)
        assert got == want
        (error, message), used = got
        assert error is RankDeficientError and "kept hitting degenerate" in message
        assert used == (64 * count + 1) * 6  # q then p of every candidate tried


def test_stacked_sampler_raises_at_the_same_non_spd_candidate(draws, sign_changing_metric):
    # seeds 2 and 22 first draw x <= 0 at candidates 5 and 4 of the first block
    region = ((-0.2, 1.0), (-1.0, 1.0))
    for seed, count in ((2, 7), (22, 7), (2, 100)):
        (got, _), (want, _) = _both_samplers(draws, sign_changing_metric, count, seed, region)
        assert got == want
        assert got[0] is NotSPDError and "not positive definite" in got[1]


def test_stacked_sampler_raises_at_the_same_overflowing_projection(monkeypatch, draws):
    # momenta near the largest double, y past the catalog region: the
    # projection of some candidates overflows and PhasePoint refuses them
    sysd = catalog.get_system("nonholonomic_particle")
    built = []

    class Recorded(catalog.PhasePoint):
        def __post_init__(self):
            built.append(np.asarray(self.q).tobytes())
            super().__post_init__()

    monkeypatch.setattr(catalog, "PhasePoint", Recorded)
    region = ((-1.0, 1.0), (-2.0, 2.0), (-1.0, 1.0))
    for seed, fails in ((4, True), (9, True), (1, False)):
        built.clear()
        (got, _), (want, _) = _both_samplers(draws, sysd, 7, seed, region, 8.9e307)
        assert got == want
        assert (got == (StructuralError, "phase point has non-finite entries")) == fails
        half = len(built) // 2  # the candidates each sampler built, in order
        assert built[:half] == built[half:] and half > 1
