"""The quotients' pole rule over its whole documented domain: every
critical-line pole 1/2 + i gamma/2 with gamma a frozen zeta ordinate up to
200, for every discriminant, raises within 1e-10 and returns a value 1e-9
away; the real poles and array inputs follow the same rule."""

import numpy as np
import pytest

from delta_lens.errors import PoleOfDelta5, PoleOfDeltaQ
from delta_lens.quotient import delta5, delta_q

KINDS = (3, 4, 7, 8)
INSIDE = (0.0, 1e-10, -1e-10, 1e-10j, -1e-10j)
OUTSIDE = (1e-9, -1e-9, 1e-9j, -1e-9j)


def _quotient(q):
    if q == 4:
        return delta5, PoleOfDelta5
    return (lambda s: delta_q(q, s)), PoleOfDeltaQ


@pytest.fixture(scope="module")
def critical_poles(reference):
    poles = [complex(0.5, 0.5 * g) for g in reference["zeta_zeros"]]
    assert len(poles) == 79
    return poles


@pytest.mark.parametrize("q", KINDS)
def test_critical_line_poles_raise_within_disc(q, critical_poles):
    f, err = _quotient(q)
    for pole in critical_poles:
        for d in INSIDE:
            with pytest.raises(err):
                f(pole + d)


@pytest.mark.parametrize("q", KINDS)
def test_critical_line_poles_outside_disc_return_values(q, critical_poles):
    f, _ = _quotient(q)
    for pole in critical_poles:
        for d in OUTSIDE:
            assert np.isfinite(f(pole + d)), f"q = {q}, s = {pole + d}"


@pytest.mark.parametrize("q", KINDS)
def test_real_pole_disc(q):
    f, err = _quotient(q)
    for d in (0.0, 1e-10, -1e-10):
        with pytest.raises(err) as info:
            f(-0.75 + d)
        assert info.value.location == -0.75  # closed forms carry the pole itself
    assert np.isfinite(f(-0.75 + 5e-9))
    assert np.isfinite(f(-1.75 - 5e-9))


def test_array_raises_for_first_offending_element(critical_poles):
    near = critical_poles[10] + 1e-11j
    with pytest.raises(PoleOfDelta5) as info:
        delta5(np.array([2.0, near, 1.0, critical_poles[3]]))
    assert info.value.location == near  # distance-rule poles carry the point
    with pytest.raises(PoleOfDeltaQ) as info:
        delta_q(8, np.array([3.0 + 1j, 1.0, near]))
    assert info.value.location == 1.0


@pytest.mark.parametrize("q", KINDS)
def test_array_returns_exact_zero_at_three_quarters(q):
    f, _ = _quotient(q)
    pts = np.array([2.0 + 1.0j, 0.75, -1.3 + 40.0j])
    out = f(pts)
    assert out[1] == 0
    assert np.allclose(out[[0, 2]], [f(pts[0]), f(pts[2])], rtol=1e-13, atol=0.0)
