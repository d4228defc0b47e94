"""Critical-line machinery: completed functions, zero scanning, the merged
singular-point catalog and the real-axis residue/slope features."""

import math

import numpy as np
import pytest

from delta_lens import critical
from delta_lens.critical import (CriticalPoint, POLE_SIGMAS, RealAxisFeature,
                                 ZERO_SIGMAS, completed_beta, completed_zeta,
                                 find_zeros, residue_at_pole,
                                 singular_points_delta5, slope_at_zero)
from delta_lens.errors import (DomainError, NotAPole, NotAZero,
                               PoleOfCompletedZeta, StepTooCoarse,
                               UnexpectedCoincidence)
from delta_lens.quotient import delta5

# first ordinates of the two zero families, independently computed
ZETA_ZEROS = (14.134725141734693, 21.022039638771555, 25.010857580145688,
              30.424876125859513, 32.935061587739189, 37.586178158825671,
              40.918719012147495, 43.327073280914999, 48.005150881167159,
              49.773832477672302, 52.970321477714460, 56.446247697063394,
              59.347044002602353)
BETA_ZEROS = (6.020948904697586, 10.243770304167, 12.988098012312,
              16.342607104587, 18.291993196124, 21.450611343983,
              23.278376520460, 25.728756425089)

# residues at the real poles and slopes at the real zeros (15 digits)
TRUE_RESIDUES = {1.0: 0.3006452207538438, -0.75: 0.31276312148023787,
                 -1.75: 0.25550406173403864, -2.75: 0.2378208040614563,
                 -3.75: 0.23013561513924573, -4.75: 0.2265659113658719}
TRUE_SLOPES = {0.75: -5.0387797393965761, -1.0: -5.7055172436702517,
               -2.0: -4.9242746593629426, -3.0: -4.6447286359955242,
               -4.0: -4.5197871482532915}


def test_completed_functions_real_and_symmetric_on_line():
    ts = np.arange(1.0, 100.5, 0.5)
    line = 0.5 + 1j * ts
    for fn in (completed_zeta, completed_beta):
        vals = fn(line)
        assert np.all(np.abs(vals.imag) <= 1e-9 * np.abs(vals))
        refl = fn(1.0 - line)
        assert np.all(np.abs(vals - refl) <= 1e-10 * np.abs(vals))


def test_completed_zeta_poles():
    with pytest.raises(PoleOfCompletedZeta):
        completed_zeta(0.0)
    with pytest.raises(PoleOfCompletedZeta):
        completed_zeta(1.0)


def test_find_zeros_zeta():
    pts = find_zeros("zeta", 0.0, 60.0)
    assert len(pts) == 13
    for got, want in zip(pts, ZETA_ZEROS):
        assert got.kind == "zero" and got.source == "zeta_zero"
        assert abs(got.t - want) < 1e-8


def test_find_zeros_beta():
    pts = find_zeros("beta", 0.0, 26.0)
    assert len(pts) == 8
    for got, want in zip(pts, BETA_ZEROS):
        assert got.source == "beta_zero"
        assert abs(got.t - want) < 1e-8


def test_find_zeros_validation():
    with pytest.raises(DomainError):
        find_zeros("zeta", -1.0, 10.0)
    with pytest.raises(DomainError):
        find_zeros("zeta", 0.0, 201.0)
    with pytest.raises(DomainError):
        find_zeros("zeta", 0.0, 10.0, scan_step=0.2)
    with pytest.raises(DomainError):
        find_zeros("gamma", 0.0, 10.0)


def _no_scan(*args):
    raise AssertionError("an oversized scan was evaluated")


def test_find_zeros_refuses_an_oversized_scan(monkeypatch):
    # 200 / 1.9e-4: a scan of 1,052,633 points, refused before it is built
    monkeypatch.setattr(critical, "_line_values", _no_scan)
    with pytest.raises(DomainError, match="needs more than 1000001 scan points"):
        find_zeros("zeta", 0.0, 200.0, scan_step=1.9e-4)


def test_find_zeros_takes_the_largest_scan(monkeypatch):
    sizes = []

    def flat(source, ts):
        sizes.append(np.size(ts))
        return np.ones(np.shape(ts))

    monkeypatch.setattr(critical, "_line_values", flat)
    assert find_zeros("zeta", 0.0, 100.0, scan_step=1e-4) == []
    assert sizes == [1_000_001]


def test_find_zeros_refuses_a_coarse_step(monkeypatch):
    # sin(2000 t) turns 20 rad per 0.01 scan step: its first bracket, at
    # t = 0.02, hides seven sign changes
    monkeypatch.setattr(critical, "_line_values", lambda source, ts: np.sin(2000.0 * np.asarray(ts)))
    with pytest.raises(StepTooCoarse, match=r"^7 sign changes inside one scan step near t = 0\.020000$"):
        find_zeros("zeta", 0.0, 1.0)


def test_find_zeros_refuses_a_multiple_zero(monkeypatch):
    monkeypatch.setattr(critical, "_line_values", lambda source, ts: (np.asarray(ts) - 5.0031) ** 3)
    with pytest.raises(UnexpectedCoincidence, match=r"vanishing derivative at detected zero t = 5\.003100000"):
        find_zeros("zeta", 0.0, 10.0)


@pytest.mark.parametrize("source, t_max", [("zeta", 200.0), ("beta", 100.0)])
def test_find_zeros_match_frozen_mpmath_ordinates(mpmath_reference, source, t_max):
    # every ordinate lies within the final bracket's half width of mpmath's
    # (2.2e-10 seen)
    want = mpmath_reference[f"{source}_zeros"]
    pts = find_zeros(source, 0.0, t_max)
    assert len(pts) == len(want)
    for p, t in zip(pts, want):
        assert p.refined_to <= 2.5e-10
        assert abs(p.t - t) <= 2.5e-10


@pytest.mark.parametrize("source, t_max", [("zeta", 200.0), ("beta", 100.0)])
def test_every_root_keeps_a_sign_change_across_its_bracket(source, t_max):
    pts = find_zeros(source, 0.0, t_max)
    ts = np.array([p.t for p in pts])
    half = np.array([p.refined_to for p in pts])
    below, above = critical._line_values(source, np.concatenate([ts - half, ts + half])).reshape(2, -1)
    assert np.all(np.sign(below) * np.sign(above) <= 0.0)


@pytest.mark.parametrize("r", [0.0123456789, 0.01777, 0.0101, 0.04])
def test_refinement_does_not_stall_on_a_steep_crossing(r):
    # expm1(2000 (t - r)) is flat below r and rises like e^12.5 across the
    # eighth of a 0.05 scan step that holds r; plain regula falsi keeps its
    # steep end and crawls up the flat side (10, 45, 383 and 3,001 rounds)
    calls = []

    def f(ts):
        calls.append(np.size(ts))
        return np.expm1(2000.0 * (np.asarray(ts) - r))

    roots, halves = critical._sign_change_roots(f, 0.0, 0.05, 0.05)
    assert roots.size == 1 and abs(roots[0] - r) <= 2.5e-10 and halves[0] <= 2.5e-10
    # the scan, the interior check and the derivative guard take one call each
    assert len(calls) - 3 <= 24


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rising", "falling"])
def test_a_zero_on_a_scan_point_is_found_once(sign):
    # 0.01 * 5 rounds to 0.05, so the scan reads [-, 0, +] (or [+, 0, -]) and
    # no two neighbours have opposite signs
    roots, halves = critical._sign_change_roots(lambda t: sign * (t - 0.05), 0.0, 0.2, 0.01)
    assert roots.tolist() == [0.05] and halves.tolist() == [0.0]


@pytest.mark.xfail(strict=True,
                   reason="two roots inside one scan step leave the scan with no sign change "
                          "(or only the scan-point root), so the scan misses them without a "
                          "word; counting the zeros up to each end of the range would catch it")
@pytest.mark.parametrize("first", [0.051, 0.05], ids=["inside", "on-a-scan-point"])
def test_two_roots_in_one_scan_step_are_found_or_refused(first):
    # (t - first)(t - 0.055) is positive at the scan points 0.04 and 0.06
    # (and 0 at 0.05 when first = 0.05): both roots, or StepTooCoarse
    try:
        roots, _ = critical._sign_change_roots(lambda t: (t - first) * (t - 0.055), 0.0, 0.2, 0.01)
    except StepTooCoarse:
        return
    assert roots.size == 2 and np.max(np.abs(roots - [first, 0.055])) <= 2.5e-10


def test_find_zeros_keeps_a_zero_on_a_scan_point(monkeypatch):
    # one root on the scan point t = 5 (0.01 * 500 rounds to 5), one between two
    monkeypatch.setattr(critical, "_line_values",
                        lambda source, ts: (np.asarray(ts) - 5.0) * (np.asarray(ts) - 7.123))
    pts = find_zeros("zeta", 0.0, 10.0)
    assert len(pts) == 2 and pts[0].t == 5.0 and pts[0].refined_to == 1e-12
    assert abs(pts[1].t - 7.123) <= pts[1].refined_to <= 2.5e-10


def test_find_zeros_refines_in_a_few_calls(monkeypatch):
    # the scan, the interior check, the secant rounds and the derivative
    # guard: one call of the line function each, with 3 secant rounds
    calls = []
    line_values = critical._line_values

    def spy(source, ts):
        calls.append(np.size(ts))
        return line_values(source, ts)

    monkeypatch.setattr(critical, "_line_values", spy)
    assert len(find_zeros("zeta", 0.0, 200.0)) == 79
    assert calls[0] == 20_001 and len(calls) <= 6


def test_singular_points_refuse_a_zero_on_a_pole(monkeypatch):
    # a zeta zero at t = 2 and the pole at t = 2 from the zeta zero at 4
    def fake(source, t_min, t_max, scan_step=critical._SCAN_STEP):
        ts = (2.0, 4.0) if source == "zeta" else ()
        return [CriticalPoint(t=t, kind="zero", source=f"{source}_zero") for t in ts if t_min <= t <= t_max]

    monkeypatch.setattr(critical, "find_zeros", fake)
    with pytest.raises(UnexpectedCoincidence,
                       match=r"zeta_zero and half_zeta_zero ordinates coincide at t = 2\.000000000"):
        singular_points_delta5(1.0, 3.0)


def test_singular_sequence_first_six(merged_catalog):
    kinds = tuple(e.kind for e in merged_catalog.entries[:6])
    assert kinds == ("zero", "pole", "zero", "pole", "pole", "zero")
    want = (BETA_ZEROS[0], ZETA_ZEROS[0] / 2.0, BETA_ZEROS[1],
            ZETA_ZEROS[1] / 2.0, ZETA_ZEROS[2] / 2.0, BETA_ZEROS[2])
    for e, t in zip(merged_catalog.entries[:6], want):
        assert abs(e.t - t) < 1e-8
    # poles carry the halved-zeta provenance
    assert merged_catalog.entries[1].source == "half_zeta_zero"


def test_singular_points_range_validation():
    with pytest.raises(DomainError):
        singular_points_delta5(0.0, 101.0)


def test_quotient_excursions_near_singular_points(merged_catalog):
    zero_t = merged_catalog.entries[0].t
    pole_t = merged_catalog.entries[1].t
    assert abs(delta5(complex(0.5, zero_t + 1e-3))) < 0.1
    assert abs(delta5(complex(0.5, pole_t + 1e-3))) > 10.0


def test_residues_match_analytic_values():
    for sigma, want in TRUE_RESIDUES.items():
        feat = residue_at_pole(sigma)
        assert feat.kind == "pole"
        assert abs(feat.coefficient - want) < 1e-9
    with pytest.raises(NotAPole):
        residue_at_pole(0.5)


def test_slopes_match_analytic_values():
    for sigma, want in TRUE_SLOPES.items():
        feat = slope_at_zero(sigma)
        assert feat.kind == "zero"
        assert abs(feat.coefficient - want) < 1e-9
    with pytest.raises(NotAZero):
        slope_at_zero(1.0)


def test_residue_slope_sigma_catalogs():
    assert POLE_SIGMAS == (1.0, -0.75, -1.75, -2.75, -3.75, -4.75)
    assert ZERO_SIGMAS == (0.75, -1.0, -2.0, -3.0, -4.0)


def test_critical_point_validation():
    good = CriticalPoint(t=6.02, kind="zero", source="beta_zero")
    assert good.multiplicity == 1
    with pytest.raises(DomainError):
        CriticalPoint(t=6.02, kind="saddle", source="beta_zero")
    with pytest.raises(DomainError, match="source must be one of"):
        CriticalPoint(t=6.02, kind="zero", source="gamma_zero")
    with pytest.raises(DomainError):
        CriticalPoint(t=6.02, kind="pole", source="beta_zero")  # mismatch
    with pytest.raises(DomainError):
        CriticalPoint(t=-1.0, kind="zero", source="beta_zero")
    with pytest.raises(DomainError):
        CriticalPoint(t=6.02, kind="zero", source="beta_zero", refined_to=1e-3)
    for width in (np.nan, np.inf, 0.0, -1e-10):  # a width must be finite and positive
        with pytest.raises(DomainError):
            CriticalPoint(t=6.02, kind="zero", source="beta_zero", refined_to=width)
    for multiplicity in (1.9, True, "1"):  # an int, not a bool
        with pytest.raises(DomainError):
            CriticalPoint(t=6.02, kind="zero", source="beta_zero", multiplicity=multiplicity)


def test_real_axis_feature_validation():
    RealAxisFeature(sigma=0.75, kind="zero", coefficient=-5.04)
    with pytest.raises(DomainError):
        RealAxisFeature(sigma=0.6, kind="zero", coefficient=1.0)
    with pytest.raises(DomainError, match="kind must be one of"):
        RealAxisFeature(sigma=0.75, kind="saddle", coefficient=1.0)


@pytest.mark.parametrize("sigma, coefficient", [(math.nan, 1.0), (-0.75, math.nan)])
def test_real_axis_feature_refuses_nan(sigma, coefficient):
    with pytest.raises(DomainError):
        RealAxisFeature(sigma=sigma, kind="pole", coefficient=coefficient)
