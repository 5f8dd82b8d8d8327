"""Per-point work of the verify sweep: one validation, one call per kind."""

import pytest

from nonholo import brackets, catalog, geometry, verification

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
