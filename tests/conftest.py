import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def checkout_env():
    """Environment for a subprocess that imports symmix from this checkout's src.

    pytest's pythonpath setting reaches only the pytest process itself.
    """
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
