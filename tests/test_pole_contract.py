"""The quotients' pole rule over its whole documented domain: every
critical-line pole 1/2 + i gamma/2 with gamma a frozen zeta ordinate up to
500 (|Im s| <= 250), for every discriminant, raises within 1e-10 and returns
a value 1e-9 away; the real poles 1/4 - k and array inputs follow the same
rule, and the rule reads zeta(2s - 1/2) from the quotient's one evaluation
of its denominator."""

import numpy as np
import pytest

from delta_lens import quotient
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


@pytest.fixture(scope="module")
def domain_poles(mpmath_reference, critical_poles):
    poles = [complex(0.5, 0.5 * g) for g in mpmath_reference["zeta_zeros_500"]]
    assert len(poles) == 269 and poles[:79] == critical_poles and poles[-1].imag <= 250.0
    return poles


@pytest.mark.parametrize("q", KINDS)
def test_critical_line_poles_raise_within_disc(q, critical_poles, domain_poles):
    f, err = _quotient(q)
    for pole in domain_poles if q == 4 else critical_poles:  # the siblings share delta5's denominator
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
def test_critical_line_poles_outside_disc_as_one_array(q, domain_poles):
    f, _ = _quotient(q)
    points = np.add.outer(domain_poles, OUTSIDE).ravel()
    assert np.all(np.isfinite(f(points)))


@pytest.mark.parametrize("q", KINDS)
def test_real_pole_disc(q):
    f, err = _quotient(q)
    for pole in 0.25 - np.arange(1.0, 6.0):  # -0.75 ... -4.75, next to the trivial zeros of zeta(2s - 1/2)
        for d in (0.0, 1e-10, -1e-10):
            with pytest.raises(err) as info:
                f(pole + d)
            assert info.value.location == pole  # closed forms carry the pole itself
        for d in (2e-10, -2e-10):
            assert np.isfinite(f(pole + d)), f"q = {q}, s = {pole + d}"
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


# the first-order zero at s = 3/4 is exactly 0 within 1e-12 of it (a real d
# of 1e-12 lands 1.00009e-12 away after rounding), and the raw quotient,
# small but not 0, from 2e-12 on
AT_ZERO = (0.0, 5e-13, -5e-13, 9e-13, -9e-13, 9e-13j, -9e-13j, 1e-12j, -1e-12j)
NEAR_ZERO = (2e-12, -2e-12, 2e-12j, -2e-12j, 1e-9, -1e-9, 1e-9j)


@pytest.mark.parametrize("q", KINDS)
def test_exact_zero_at_three_quarters_ends_at_its_tolerance(q):
    f, _ = _quotient(q)
    for d in AT_ZERO:
        assert f(0.75 + d) == 0, d
    for d in NEAR_ZERO:
        value = f(0.75 + d)
        assert value != 0 and np.isfinite(value), d
    assert np.all(f(0.75 + np.array(AT_ZERO)) == 0)
    values = f(0.75 + np.array(NEAR_ZERO))
    assert np.all(values != 0) and np.all(np.isfinite(values))


@pytest.mark.parametrize("q, s", [(4, 0.5 + 20j), (4, 0.3 + 20j), (7, [0.5 + 10j, 0.5 + 30j, 0.7 + 5j])])
def test_one_evaluation_per_argument(q, s, monkeypatch):
    # one call carries the rows at s and at 2s - 1/2; a second evaluation of
    # either argument would be a second call
    calls, l_values = [], quotient._l_values

    def spy(rows, x, rows_x=()):
        calls.append((rows, x.tolist(), rows_x))
        return l_values(rows, x, rows_x)

    monkeypatch.setattr(quotient, "_l_values", spy)
    _quotient(q)[0](s)
    assert calls == [((1, q), np.atleast_1d(s).tolist(), (1,))]


@pytest.mark.parametrize("q", KINDS)
@pytest.mark.parametrize("s", [-0.75 + 1e-5, -4.75 + 1e-5, -2.75 + 1e-5j], ids=["-0.75+1e-5", "-4.75+1e-5", "-2.75+1e-5j"])
def test_no_central_difference_next_to_the_real_poles(q, s, monkeypatch):
    # |zeta(2s - 1/2)| <= 1e-6 holds up to 8e-5 from the real poles 1/4 - k,
    # which the closed forms own: only the one call of the rows at s and at
    # 2s - 1/2 is made, no central difference of the denominator
    calls, l_values = [], quotient._l_values

    def spy(rows, x, rows_x=()):
        calls.append((rows, rows_x))
        return l_values(rows, x, rows_x)

    monkeypatch.setattr(quotient, "_l_values", spy)
    assert np.isfinite(_quotient(q)[0](s))
    assert calls == [((1, q), (1,))]
