"""Per-point work of the verify sweep: one validation, one call per kind."""

import numpy as np
import pytest

from nonholo import brackets, catalog, geometry, numdiff, verification
from nonholo.errors import DomainError

VALIDATION = ("tangent_splitting", "metric_at", "constraints_at")


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_point_metrics_validate_each_point_once(count_calls, ent):
    sysd = ent.system()
    observables = catalog.observable_test_set(sysd)
    points = catalog.sample_entry_points(ent, 3, 5)
    counts = count_calls(geometry, VALIDATION)
    cfg = {"on_m_tol": geometry.ON_M_TOL, "integrable": True}
    for x in points:
        counts.update(dict.fromkeys(VALIDATION, 0))
        verification._point_metrics(sysd, x, observables, cfg, do_jacobiator=False)
        assert counts["tangent_splitting"] == 1
        assert counts["metric_at"] <= 1 and counts["constraints_at"] <= 1


@pytest.mark.parametrize("integrable", [True, False])
def test_point_metrics_call_the_jacobiator_once_per_kind(monkeypatch, integrable):
    ent = catalog.get_entry("nonholonomic_particle")
    sysd = ent.system()
    x = catalog.sample_entry_points(ent, 1, 5)[0]
    kinds = []
    original = brackets.jacobiator

    def counted(sys, kind, f, g, h, x, **kwargs):
        kinds.append(kind)
        return original(sys, kind, f, g, h, x, **kwargs)

    monkeypatch.setattr(brackets, "jacobiator", counted)
    cfg = {"on_m_tol": geometry.ON_M_TOL, "integrable": integrable}
    out = verification._point_metrics(
        sysd, x, catalog.observable_test_set(sysd), cfg, do_jacobiator=True
    )
    expected = ["canonical", "eden"] + (["nh", "dstar"] if integrable else [])
    assert sorted(kinds) == sorted(expected)
    assert out["jacobiator_defect"] > verification.WITNESS_FLOOR


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
    # the batched lifts cover whatever points a chunk holds; every metric at
    # an index is exactly its value in any other chunk, and exactly the
    # metric of the point taken alone on the per-point path
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
        alone = verification._point_metrics(
            sysd, points[idx], observables, cfg, idx < verification.JACOBIATOR_CAP
        )
        assert alone == full[idx]


@pytest.mark.parametrize("ent", catalog.catalog_systems(), ids=lambda e: e.id)
def test_chunk_points_past_the_jacobiator_cap_take_no_scalar_lift(monkeypatch, count_calls, ent):
    # jacobian_batch seeds its lift over array cores; no lift in the chunk
    # runs over float cores, and no per-point jacobian or gradient runs
    cap = verification.JACOBIATOR_CAP
    payload = _payload(ent, cap + 4, list(range(cap, cap + 4)))
    counts = count_calls(numdiff, ["jacobian", "gradient"])
    cores = []
    lift = numdiff.lift

    def recorded(values):
        values = list(values)
        cores.extend(type(numdiff.float_core(v)) for v in values)
        return lift(values)

    monkeypatch.setattr(numdiff, "lift", recorded)
    verification._chunk_worker(payload)
    assert counts == {"jacobian": 0, "gradient": 0}
    assert cores and set(cores) == {np.ndarray}


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
        assert run(workers) == serial
        assert asked == [expected]


def test_a_failed_batched_lift_falls_back_to_the_per_point_lift(monkeypatch):
    ent = catalog.get_entry("chaplygin_sleigh")
    payload = _payload(ent, 6, list(range(6)))
    batched = verification._chunk_worker(payload)

    def refuse(F, X):
        raise DomainError("solve_linear", "non-finite pivot")

    monkeypatch.setattr(numdiff, "jacobian_batch", refuse)
    assert verification._chunk_worker(payload) == batched
