import os
from pathlib import Path

import pytest

# the package runs from the source tree; subprocesses started by the tests
# (the console entry point) must find it too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


@pytest.fixture
def announce(capfd):
    """Print a line that survives pytest's capture (acceptance summaries)."""
    def _announce(line: str) -> None:
        with capfd.disabled():
            print(line, flush=True)
    return _announce


@pytest.fixture
def no_numpy_lapack(monkeypatch):
    """numpy's own LAPACK, the gufuncs behind every numpy.linalg solver,
    patched to raise for the test."""
    from numpy.linalg import _umath_linalg

    def forbidden(*args, **kwargs):
        raise AssertionError("a numpy LAPACK routine was called")

    for name in dir(_umath_linalg):
        if not name.startswith("_") and callable(getattr(_umath_linalg, name)):
            monkeypatch.setattr(_umath_linalg, name, forbidden)
    return forbidden
