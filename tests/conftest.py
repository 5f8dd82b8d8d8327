import sys
from pathlib import Path

import pytest

# allow running the tests from a fresh checkout without installing
try:
    import nonholo  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nonholo import catalog, dsl  # noqa: E402


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap module functions by name; returns the live dict of call counts."""

    def install(module, names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    return install


@pytest.fixture
def fading_rows():
    """The particle with the constraint rows (1, 0, 0) and (1, 0, exp(-30 x)),
    which are numerically dependent for x beyond about 0.61."""
    rows = "form = 1, 0, 0\n\n[constraint]\nform = 1, 0, exp(-30*x)"
    return dsl.parse_system(catalog.NONHOLONOMIC_PARTICLE.replace("form = y, 0, -1", rows))


@pytest.fixture
def sign_changing_metric():
    """The holonomic control case with G_11 = x: not positive definite for x <= 0."""
    return dsl.parse_system(catalog.HOLONOMIC_CONTROL.replace("row1 = 1, 0", "row1 = x, 0"))
