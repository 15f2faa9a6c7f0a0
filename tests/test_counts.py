"""Exact counts that do not depend on the machine: a change that moves one
changes how the fit searches, how the rule folds or how the density
integrates, rewrites BENCH_counts.json with scripts/counts.py and says why.

Each test recomputes one group of the file's counts with the script's own
functions and compares it with the file, naming every count that moved.
The n = 100 fits are the 90 of seed 7, replications 0-29 of the gauss,
cauchy and laplace acceptance rows; the rest are on the rainfall data.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("counts_script", ROOT / "scripts" / "counts.py")
counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counts)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(counts.OUT.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def rainfall():
    return counts.rainfall()


def assert_pinned(pinned, group, got):
    want = pinned[group]
    moved = {key: (want.get(key), got.get(key)) for key in want.keys() | got.keys()
             if want.get(key) != got.get(key)}
    assert not moved, f"{group} counts moved (file, now): {moved}"


def test_n100_fits_evaluations_and_polishes(pinned):
    # a round is one batched call, whose fixed numpy overhead is most of its
    # cost at n = 100
    assert_pinned(pinned, "n100_fits", counts.n100_fits())


def test_rainfall_default_rule_folds_onto_the_lattice(pinned, rainfall):
    assert_pinned(pinned, "rainfall_lattice", counts.rainfall_lattice(rainfall[0]))


def test_rainfall_default_density_u_grid(pinned, rainfall):
    assert_pinned(pinned, "rainfall_u_grid", counts.rainfall_u_grid(*rainfall))


def test_rainfall_leave_one_out_refits_none_refused(pinned, rainfall):
    assert_pinned(pinned, "rainfall_loo", counts.rainfall_loo(*rainfall))
