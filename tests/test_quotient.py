"""The zeta quotient delta5, its gamma reflection factor and the sibling
quotients for the other quadratic discriminants."""

import math

import numpy as np
import pytest

from delta_lens import quotient
from delta_lens.errors import (DomainError, GammaPoleOnPath, PoleOfDelta5, PoleOfDeltaQ,
                               PoleOfZeta, UnsupportedDiscriminant)
from delta_lens.evalcore import beta_L, zeta
from delta_lens.quotient import (AsymptoticPhase, QuotientKind, _delta_q_values, bracket_factor,
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
DELTA5_AT_07_250 = 0.2356214794451935 + 1.6461216517640171j


def test_delta5_known_values():
    assert abs(delta5(2.0) - DELTA5_AT_2) < 1e-12
    assert abs(delta5(20.0) - DELTA5_AT_20) < 1e-12
    assert delta5(0.75) == 0  # first-order zero, reported exactly
    assert abs(delta5(2.0) - zeta(2.0) * beta_L(2.0) / zeta(3.5)) < 1e-13


def test_delta5_height_ceiling():
    # the denominator zeta(2s - 1/2) reaches the 500 ceiling at |Im s| = 250
    assert abs(delta5(0.7 + 250j) - DELTA5_AT_07_250) < 1e-12 * abs(DELTA5_AT_07_250)
    with pytest.raises(DomainError, match="above the height ceiling 500"):
        delta5(0.7 + 400j)


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
    for t in (1.0, 0.5, math.nan):
        with pytest.raises(DomainError, match="requires t > 1"):
            critical_phase_approx(t)
    for phase in (-math.pi / 2, 2.0, math.nan):
        with pytest.raises(DomainError, match="phase_mod_pi must lie in"):
            AsymptoticPhase(t=10.0, phase_mod_pi=phase)


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


@pytest.mark.parametrize("approx, sigma, t", [
    (large_sigma_phase_modulus, math.nan, 1.0), (large_sigma_phase_modulus, 7.0, math.nan),
    (large_sigma_phase_modulus, math.inf, 1.0), (large_sigma_phase_modulus, 7.0, -math.inf),
    (reflected_approx, math.nan, 5.0), (reflected_approx, 4.0, math.nan),
    (reflected_approx, math.inf, 5.0), (reflected_approx, 4.0, math.inf),
])
def test_asymptotic_forms_refuse_non_finite_input(approx, sigma, t):
    # a NaN passes every order comparison, and cos(inf) raises a bare ValueError
    with pytest.raises(DomainError, match="finite"):
        approx(sigma, t)


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


@pytest.mark.parametrize("sigma, t_max", [
    (math.nan, 24.0), (math.inf, 24.0), (14.0, 0.0), (14.0, math.nan), (14.0, 1e9)],
    ids=["sigma-nan", "sigma-inf", "tmax0", "tmax-nan", "tmax-1e9"])
def test_bracket_phase_zeros_validation(sigma, t_max):
    for q in (4, 3, 8):  # q = 4 has no bracket zeros but validates its inputs too
        with pytest.raises(DomainError):
            bracket_phase_zeros(q, sigma, t_max)


@pytest.mark.parametrize("q", [3, 7, 8])
def test_bracket_phase_zero_anchors_at_sigma_1000(q):
    # Im of the bracket is about r^999.5 sin(t ln r), down to 1e-301 for q = 8
    period = math.pi / abs(math.log(q / 4.0))
    zeros = bracket_phase_zeros(q, 1000.0, 24.0)
    assert len(zeros) == int(24.0 // period)
    for m, t in enumerate(zeros, start=1):
        assert abs(t - m * period) < 1e-9
    assert bracket_phase_zeros(4, 1000.0, 24.0) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("q, sigma, t_max", [(8, -1000.0, 24.0), (7, -1200.0, 30.0), (3, -2000.0, 56.0)])
def test_bracket_phase_zero_anchors_at_a_large_negative_sigma(q, sigma, t_max):
    period = math.pi / abs(math.log(q / 4.0))
    zeros = bracket_phase_zeros(q, sigma, t_max)
    assert len(zeros) == 5
    for m, t in enumerate(zeros, start=1):
        assert abs(t - m * period) < 1e-9


# r = 3/4 or 4/q: the anchors are the multiples of pi / |ln r|
_BRACKET_PERIODS = {q: math.pi / abs(math.log(r)) for q, r in ((3, 0.75), (7, 4.0 / 7.0), (8, 0.5))}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sigma", [-3000.0, -1300.0, 14.0, 1000.5, 3000.0])
@pytest.mark.parametrize("q", [3, 7, 8])
def test_bracket_phase_zeros_are_the_closed_form(q, sigma):
    # r^(sigma - 1/2) overflows or underflows at the ends of this range, yet
    # the anchors do not depend on sigma
    period = _BRACKET_PERIODS[q]
    count = int(200.0 / period)
    assert bracket_phase_zeros(q, sigma, 200.0) == [m * period for m in range(1, count + 1)]
    assert bracket_phase_zeros(4, sigma, 200.0) == []


@pytest.mark.parametrize("q", [3, 7, 8])
def test_bracket_phase_zeros_include_t_max(q):
    # the interval (0, t_max] is closed at t_max
    period = _BRACKET_PERIODS[q]
    for m in range(1, int(200.0 / period) + 1):
        t_max = m * period
        assert bracket_phase_zeros(q, 14.0, t_max) == [k * period for k in range(1, m + 1)]
        below = bracket_phase_zeros(q, 14.0, math.nextafter(t_max, 0.0))
        assert below == [k * period for k in range(1, m)]


def test_lattice_sum_known_values():
    assert abs(lattice_sum_C(3.0) - C_AT_3) < 1e-12
    assert abs(lattice_sum_C(3.0) - 4.0 * zeta(3.0) * beta_L(3.0)) < 1e-13
    assert abs(lattice_sum_C(2.5 + 1.5j) - C_COMPLEX) < 1e-11
    for s in (1, 1.0 + 1e-13j, np.array([3.0, 1.0])):
        with pytest.raises(PoleOfZeta, match="pole at s = 1"):
            lattice_sum_C(s)


def test_lattice_sum_against_brute_force():
    # direct sum over the square lattice, truncated at |m|,|n| <= 600; the
    # tail beyond that radius is below 2e-11 for exponent 3
    n = np.arange(-600, 601)
    mm, nn = np.meshgrid(n, n, sparse=True)
    q = mm * mm + nn * nn
    q = np.where(q == 0, 1, q).astype(np.float64)
    brute = float((q ** -3.0).sum()) - 1.0  # subtract the patched origin
    assert abs(lattice_sum_C(3.0).real - brute) < 1e-9


# l' and l'' of l = log delta5, computed once with mpmath at 40 digits from
# zeta(s, a, k) derivatives: zeta'/zeta(s) + beta'/beta(s) - 2 zeta'/zeta(2s - 1/2)
# and its derivative; the kernel is held to it, mpmath is not a dependency
LOG_DERIVATIVE_ORACLE = [  # (sigma, t, l', l'')
    (0.495, 2, (0.008192052762762175+0.12538010308217623j), (0.024797354033896952+0.00873242952185783j)),
    (0.495, 14.3, (-0.17819949133726812-7.2344538441311315j), (35.603666363678855-2.2265433371712757j)),
    (0.495, 37.7, (-0.1706590315252718-15.212077328871178j), (33.93204725560407-9.574734440836725j)),
    (0.495, 61, (-0.11966552872651223-6.427212010989011j), (23.878069725211002-1.9198762647949572j)),
    (0.495, 99, (59.56796866941006-99.20740667097168j), (-4758.936695342093-10956.35538127971j)),
    (0.52, 2, (0.00880728070572272+0.12560808148699795j), (0.02440372008115395+0.009502215567718738j)),
    (0.52, 14.3, (0.703674345538543-7.152079193048219j), (34.13557482073432+8.668526091367484j)),
    (0.52, 37.7, (0.6531516829755067-14.861818591393373j), (29.60615839134413+36.44706828393931j)),
    (0.52, 61, (0.4703158636700163-6.356206989909762j), (22.633164270742686+7.469645803485946j)),
    (0.52, 99, (-42.649949097092936-24.23061893233351j), (1670.2260808784963+1466.4358645747793j)),
    (0.8, 2, (0.014393013200477292+0.12920586497578748j), (0.013770926078049103+0.014962860670996897j)),
    (0.8, 14.3, (2.3145766497178415-2.4710864362882017j), (-5.192832838618274+7.974335720973957j)),
    (0.8, 37.7, (0.2923444232944008-2.3569770553820346j), (-2.0330008288211947+13.476258724770979j)),
    (0.8, 61, (0.7478003155732781-2.4723429268666903j), (-4.562796337898477+6.594715484333819j)),
    (0.8, 99, (0.4681160572938872-1.234072554043808j), (3.984938953391731+11.882088896656738j)),
    (1.3, 2, (0.013911073281441257+0.13432972890375613j), (-0.014701467272444896+0.00022352774631219954j)),
    (1.3, 14.3, (0.8027389177070625-0.8616177585992004j), (-1.4350129343361409+1.4192174406366207j)),
    (1.3, 37.7, (0.016558201091388464-0.3346380917387427j), (-0.16187394057399962+0.9885105469051988j)),
    (1.3, 61, (0.06575769173928703-0.886451502708456j), (-0.18105252967758537+1.5530476272305676j)),
    (1.3, 99, (0.2261377818535659+0.2552415131597365j), (-0.7275192729251136-0.024846166725943312j)),
    (3, 2, (-0.010253535455888791+0.0748637656571324j), (-0.00036395392705267885-0.04295044394255862j)),
    (3, 14.3, (0.1032184994758548-0.08262574122726128j), (-0.09506540616987606+0.09508714730043782j)),
    (3, 37.7, (-0.038441373283493875+0.03326487229184802j), (0.016170544099852312+0.008737863464767247j)),
    (3, 61, (0.008253947035266548-0.11148996922988665j), (-0.006345288559729952+0.1019491092724403j)),
    (3, 99, (-0.04859384803262699-0.0035292231533281307j), (0.009611367506864685-0.02908732156227393j)),
    (7, 2, (-0.00102449683741365+0.005292183302800287j), (0.0007224867431574043-0.00364595305121883j)),
    (7, 14.3, (0.004850281966244949-0.002634874449054722j), (-0.003412205241822024+0.0019035590491958561j)),
    (7, 37.7, (-0.002939598200104042+0.004448589942504542j), (0.002038190545776588-0.0030029672945280916j)),
    (7, 61, (0.0006534310348824215-0.005418860991874822j), (-0.0004272621195145817+0.0037966241242054057j)),
    (7, 99, (-0.004700679116869864-0.002468676153208231j), (0.003205119321630108+0.0016371957669540497j)),
    (12, 2, (-3.110288494555336e-05+0.000166324980744286j), (2.1595664229890765e-05-0.00011526786866222805j)),
    (12, 14.3, (0.00014958270257270058-7.9301228323234e-05j), (-0.00010371852889170036+5.5021078656594334e-05j)),
    (12, 37.7, (-9.161237514781e-05+0.00014221852303085886j), (6.351585423353909e-05-9.852063312053234e-05j)),
    (12, 61, (2.1793600577315252e-05-0.00016783657115422055j), (-1.5064083331524662e-05+0.00011635740405977339j)),
    (12, 99, (-0.0001489860953640282-8.008587121877513e-05j), (0.00010323280188784946+5.545825285685116e-05j)),
]
# eta-factor fallback points (s or 2s - 1/2 near 1 + 2 pi i / ln 2) with their mpmath l'
LOG_DERIVATIVE_FALLBACK = [
    (1.01 + 2j * math.pi / math.log(2.0), 0.022913091324724928 + 0.28263728752593836j),
    (0.99 + 2j * math.pi / math.log(2.0), 0.02342935990750702 + 0.28760294119448715j),
    (0.75 + 1j * math.pi / math.log(2.0), 0.07178909752205508 + 0.3185141784916375j),
]


@pytest.mark.parametrize("sigma", sorted({row[0] for row in LOG_DERIVATIVE_ORACLE}))
def test_log_derivative_kernel_matches_oracle(sigma):
    rows = [row for row in LOG_DERIVATIVE_ORACLE if row[0] == sigma]
    s = np.array([complex(sig, t) for sig, t, _, _ in rows])
    delta, l1, l2 = quotient._delta5_log_derivatives(s)
    want1, want2 = np.array([row[2] for row in rows]), np.array([row[3] for row in rows])
    assert np.max(np.abs(l1 - want1) / np.abs(want1)) <= 1e-11  # worst seen 9.7e-13
    assert np.max(np.abs(l2 - want2) / np.abs(want2)) <= 1e-10  # worst seen 2.2e-12
    # the values are the sums of _delta_q_values on the same batch (bit for bit here)
    assert np.max(np.abs(delta - _delta_q_values(4, s)) / np.abs(delta)) <= 4e-15


def test_log_derivative_kernel_fallback():
    for s, want1 in LOG_DERIVATIVE_FALLBACK:
        delta, l1, l2 = quotient._delta5_log_derivatives(np.array([s]))
        np.testing.assert_allclose(delta, _delta_q_values(4, np.array([s])), rtol=4e-15, atol=0.0)
        assert np.all(np.isfinite(l1)) and abs(l1[0] - want1) <= 1e-8 * abs(want1)  # 3.3e-9 seen
        assert np.isnan(l2[0].real) and np.isnan(l2[0].imag)
    # one fallback point sends its whole batch through the central difference
    s = np.array([3.0 + 14.3j, LOG_DERIVATIVE_FALLBACK[0][0]])
    delta, l1, l2 = quotient._delta5_log_derivatives(s)
    np.testing.assert_allclose(delta, _delta_q_values(4, s), rtol=4e-15, atol=0.0)
    assert np.all(np.isfinite(l1)) and np.all(np.isnan(l2.imag))
