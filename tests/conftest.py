import os

# pinned before numpy loads its BLAS, as the benchmark does: the fits' 3 x 3
# algebra gains nothing from BLAS threads and pays for waking them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def checkout_env():
    """Environment for a subprocess that imports symmix from this checkout's src.

    pytest's pythonpath setting reaches only the pytest process itself.
    """
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
