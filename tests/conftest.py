import sys
from pathlib import Path

import pytest

# allow running the tests from a fresh checkout without installing
try:
    import nonholo  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


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
