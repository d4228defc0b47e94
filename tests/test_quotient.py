"""The zeta quotient delta5, its gamma reflection factor and the sibling
quotients for the other quadratic discriminants."""

import math

import numpy as np
import pytest

from delta_lens.errors import (DomainError, GammaPoleOnPath, PoleOfDelta5,
                               PoleOfDeltaQ, UnsupportedDiscriminant)
from delta_lens.evalcore import beta_L, zeta
from delta_lens.quotient import (AsymptoticPhase, QuotientKind, bracket_factor,
                                 bracket_phase_zeros, critical_phase_approx,
                                 delta5, delta_q, f5, f5_asymptotic, fold_phase,
                                 functional_equation_residual, lattice_sum_C,
                                 large_sigma_phase_modulus, reflected_approx)

# independently computed references
DELTA5_AT_2 = 1.3372306039852152
DELTA5_AT_20 = 1.0000009536739607
F5_AT_HALF_30 = 0.70563198896121886 - 0.70857850387563572j
F5_AT_03_7 = 0.70058152367560763 - 0.71321355439051976j
DELTA8_AT_52 = 1.7693020093168172
DELTA7_COMPLEX = 1.0116414621606974 + 0.53169332290902193j
C_AT_3 = 4.6589136156038434
C_COMPLEX = 4.1203889602230764 - 0.76866751563843518j


def test_delta5_known_values():
    assert abs(delta5(2.0) - DELTA5_AT_2) < 1e-12
    assert abs(delta5(20.0) - DELTA5_AT_20) < 1e-12
    assert delta5(0.75) == 0  # first-order zero, reported exactly
    assert abs(delta5(2.0) - zeta(2.0) * beta_L(2.0) / zeta(3.5)) < 1e-13


def test_delta5_poles():
    with pytest.raises(PoleOfDelta5):
        delta5(1.0)
    with pytest.raises(PoleOfDelta5):
        delta5(-0.75)


def test_delta5_conjugation():
    for s in (0.3 + 2.0j, -1.5 + 11.0j, 2.0 + 33.0j):
        a, b = delta5(s), delta5(np.conj(s))
        assert abs(a - np.conj(b)) <= 1e-12 * max(1.0, abs(a))


def test_delta5_first_quadrant_claim():
    # for sigma >= 6 the quotient stays within 2^-sigma of 1, so its phase
    # keeps to the right half-plane
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = complex(rng.uniform(6.0, 20.0), rng.uniform(-80.0, 80.0))
        assert abs(np.angle(delta5(s))) < 0.5 * math.pi


def test_f5_known_values():
    assert abs(f5(complex(0.5, 30.0)) - F5_AT_HALF_30) < 1e-12
    assert abs(f5(complex(0.3, 7.0)) - F5_AT_03_7) < 1e-12


def test_f5_inversion():
    for s in (0.3 + 7.0j, -1.0 + 21.0j, 2.2 + 55.0j):
        assert abs(f5(s) * f5(1.0 - s) - 1.0) <= 1e-9


def test_f5_gamma_poles():
    with pytest.raises(GammaPoleOnPath):
        f5(1.0)
    with pytest.raises(GammaPoleOnPath):
        f5(0.25)


def test_f5_functional_equation():
    for s in (0.3 + 7.0j, -0.8 + 15.0j, 1.7 + 42.0j):
        assert functional_equation_residual(s) <= 1e-10


def test_f5_asymptotic_branches():
    # upper branch approaches e^{-i pi/4}, lower branch its conjugate
    up = f5_asymptotic(complex(0.5, 30.0))
    dn = f5_asymptotic(complex(0.5, -30.0))
    assert abs(up - f5(complex(0.5, 30.0))) < 1e-2
    assert abs(dn - np.conj(up)) < 1e-12
    with pytest.raises(DomainError):
        f5_asymptotic(complex(0.5, 0.5))


def test_fold_phase():
    assert fold_phase(-math.pi / 8.0) == pytest.approx(-math.pi / 8.0)
    assert fold_phase(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert fold_phase(0.6 * math.pi) == pytest.approx(-0.4 * math.pi)
    assert fold_phase(-0.5 * math.pi) == pytest.approx(0.5 * math.pi)
    assert fold_phase(0.5 * math.pi) == pytest.approx(0.5 * math.pi)


def test_critical_phase_approx():
    ap = critical_phase_approx(10.0)
    assert isinstance(ap, AsymptoticPhase)
    assert ap.phase_mod_pi == pytest.approx(
        fold_phase(-math.pi / 8.0 - 1.0 / 320.0))


def test_critical_line_phase_matches_asymptote():
    for t in (5.0, 10.0, 20.0, 40.0, 80.0):
        phase = fold_phase(float(np.angle(delta5(complex(0.5, t)))))
        want = critical_phase_approx(t).phase_mod_pi
        assert abs(phase - want) <= max(2e-2, 1.0 / t ** 2)


def test_large_sigma_phase_modulus():
    for sigma, t in ((8.0, 3.0), (6.0, 17.0), (10.0, 44.0)):
        ph, mod = large_sigma_phase_modulus(sigma, t)
        v = delta5(complex(sigma, t))
        bound = 3.0 / 4.0 ** sigma
        assert abs(np.angle(v) - ph) < bound
        assert abs(abs(v) - mod) < bound
    with pytest.raises(DomainError):
        large_sigma_phase_modulus(4.0, 3.0)


def test_reflected_approx():
    # three-factor product against the reflected quotient itself
    assert abs(reflected_approx(3.0, 20.0) / delta5(complex(-2.0, 20.0)) - 1.0) < 0.03
    assert abs(reflected_approx(6.0, 40.0) / delta5(complex(-5.0, 40.0)) - 1.0) < 1e-3
    with pytest.raises(DomainError):
        reflected_approx(2.0, 20.0)


def test_quotient_kind():
    assert QuotientKind(4).discriminant_label == 4
    with pytest.raises(UnsupportedDiscriminant):
        QuotientKind(5)


def test_delta_q_known_values():
    assert abs(delta_q(QuotientKind(8), 2.5) - DELTA8_AT_52) < 1e-12
    assert abs(delta_q(QuotientKind(7), 3.0 - 2.0j) - DELTA7_COMPLEX) < 1e-12
    for s in (2.0 + 1.0j, 0.3 + 9.0j):
        assert abs(delta_q(QuotientKind(4), s) - delta5(s)) < 1e-13


def test_delta_q_bracket_degeneracy_at_half():
    with pytest.raises(PoleOfDeltaQ):
        delta_q(QuotientKind(3), 0.5)
    with pytest.raises(PoleOfDeltaQ):
        delta_q(QuotientKind(8), 0.5)


def test_bracket_factor():
    assert bracket_factor(4, 2.0 + 3.0j) == 1.0 + 0.0j
    # zeros of the bracket phase at multiples of pi/ln(1/r)
    for q, logr in ((3, math.log(4.0 / 3.0)), (8, math.log(2.0))):
        t1 = math.pi / logr
        assert abs(complex(bracket_factor(q, 14.0 + 1j * t1)).imag) < 1e-12
    # one discriminant check: non-integer and unsupported labels are rejected
    for bad in (5, 3.5, 8.0):
        with pytest.raises(UnsupportedDiscriminant):
            bracket_factor(bad, 2.0 + 3.0j)
        with pytest.raises(UnsupportedDiscriminant):
            bracket_phase_zeros(bad, 14.0, 30.0)
        with pytest.raises(UnsupportedDiscriminant):
            delta_q(bad, 2.0 + 3.0j)


def test_bracket_phase_zero_anchors():
    zeros3 = bracket_phase_zeros(3, 14.0, 56.0)
    zeros8 = bracket_phase_zeros(8, 14.0, 24.0)
    for m in range(1, 6):
        assert abs(zeros3[m - 1] - m * math.pi / math.log(4.0 / 3.0)) < 1e-8
        assert abs(zeros8[m - 1] - m * math.pi / math.log(2.0)) < 1e-8
    assert bracket_phase_zeros(4, 14.0, 30.0) == []
    assert bracket_phase_zeros(QuotientKind(8), 14.0, 24.0) == zeros8


@pytest.mark.parametrize("sigma, t_max, scan_step", [
    (14.0, 24.0, 0.0), (14.0, 24.0, -0.01), (14.0, 24.0, 0.06), (math.nan, 24.0, 0.01),
    (math.inf, 24.0, 0.01), (14.0, 0.0, 0.01), (14.0, math.nan, 0.01), (14.0, 1e9, 0.01)],
    ids=["step0", "step-neg", "step-0.06", "sigma-nan", "sigma-inf", "tmax0", "tmax-nan", "tmax-1e9"])
def test_bracket_phase_zeros_validation(sigma, t_max, scan_step):
    for q in (4, 3, 8):  # q = 4 has no bracket zeros but validates its inputs too
        with pytest.raises(DomainError):
            bracket_phase_zeros(q, sigma, t_max, scan_step)


def test_lattice_sum_known_values():
    assert abs(lattice_sum_C(3.0) - C_AT_3) < 1e-12
    assert abs(lattice_sum_C(3.0) - 4.0 * zeta(3.0) * beta_L(3.0)) < 1e-13
    assert abs(lattice_sum_C(2.5 + 1.5j) - C_COMPLEX) < 1e-11


def test_lattice_sum_against_brute_force():
    # direct sum over the square lattice, truncated at |m|,|n| <= 600; the
    # tail beyond that radius is below 2e-11 for exponent 3
    n = np.arange(-600, 601)
    mm, nn = np.meshgrid(n, n, sparse=True)
    q = mm * mm + nn * nn
    q = np.where(q == 0, 1, q).astype(np.float64)
    brute = float((q ** -3.0).sum()) - 1.0  # subtract the patched origin
    assert abs(lattice_sum_C(3.0).real - brute) < 1e-9
