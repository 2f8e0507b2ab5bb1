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
