import json
from pathlib import Path

import pytest

from delta_lens.census import build_catalog
from delta_lens.contours import _trace_lines


REFERENCE = Path(__file__).resolve().parents[1] / "benchmark" / "reference.json"
TEST_REFERENCE = Path(__file__).resolve().parent / "mpmath_reference.json"


@pytest.fixture(scope="session")
def reference():
    """Frozen mpmath values (30 digits): zeta zero ordinates to t = 200 and a
    1,000-point probe pool over sigma in [-3, 4], |t| <= 200."""
    with open(REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def mpmath_reference():
    """Frozen mpmath values (40 digits, tools/make_test_reference.py): log
    Gamma on the boundary pool of the Stirling shift and two critical-line
    L values of small modulus."""
    with open(TEST_REFERENCE, encoding="ascii") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def merged_catalog():
    return build_catalog("delta5_merged", 60.0)


@pytest.fixture(scope="session")
def zeta_catalog():
    return build_catalog("zeta", 120.0)


@pytest.fixture(scope="session")
def beta_catalog():
    return build_catalog("beta", 101.0)


def _lockstep(kind, catalog):
    ns = range(1, 13)
    return dict(zip(ns, _trace_lines(kind, ns, catalog=catalog.entries)))


@pytest.fixture(scope="session")
def phase_traces(merged_catalog):
    return _lockstep("phase_zero", merged_catalog)


@pytest.fixture(scope="session")
def amplitude_traces(merged_catalog):
    return _lockstep("amplitude_one", merged_catalog)
