"""Evaluation kernel: zeta, Hurwitz zeta, the beta function and the
quadratic Dirichlet L functions, against independently computed references."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest

import delta_lens.evalcore as evalcore
from delta_lens.errors import DomainError, PoleOfGamma, PoleOfZeta, UnsupportedDiscriminant
from delta_lens.evalcore import (CHARACTER_TABLES, _ALTERNATING, _dirichlet_values, _zeta_values,
                                 beta_L, dirichlet_L, hurwitz_zeta, log_gamma, zeta)
from delta_lens.quotient import _delta5_log_derivatives, _delta_q_values, delta5

# reference values computed independently at 30+ digit working precision
ZETA_32 = 2.6123753486854883
ZETA_34 = -3.4412853869452229
ZETA_72 = 1.1267338673170566
BETA_34 = 0.73210721762739718
CATALAN = 0.91596559417721902
L3_AT_1 = 0.60459978807807262
L3_AT_HALF = 0.48086755769682863
L7_AT_32 = 1.1789522429991985
L8_AT_2 = 1.0647341710435034
HURWITZ_COMPLEX = -8.3268514841532468 - 25.989792623299366j
L4_COMPLEX = 1.0759545805074662 + 0.487503270608459j
FIRST_ZETA_ZERO = 14.134725141734693
ZETA_HALF_500 = -0.3962565072751466 - 1.4181267413453709j


def test_zeta_known_real_values():
    assert abs(zeta(1.5).real - ZETA_32) < 1e-12
    assert abs(zeta(0.75).real - ZETA_34) < 1e-12
    assert abs(zeta(3.5).real - ZETA_72) < 1e-12
    assert abs(zeta(2.0).real - math.pi ** 2 / 6.0) < 1e-13


def test_zeta_analytic_continuation_values():
    assert abs(zeta(0.0).real + 0.5) < 1e-12
    assert abs(zeta(-1.0).real + 1.0 / 12.0) < 1e-12
    assert abs(zeta(-2.0).real) < 1e-12  # trivial zero


def test_zeta_first_critical_zero():
    assert abs(zeta(complex(0.5, FIRST_ZETA_ZERO))) < 1e-9


def test_zeta_height_ceiling():
    # the capped alternating series holds its digits up to |Im s| = 500
    assert abs(zeta(0.5 + 500j) - ZETA_HALF_500) < 1e-12 * abs(ZETA_HALF_500)
    for s in (0.5 + 500.5j, 0.5 + 800j, -3.0 - 600j):
        with pytest.raises(DomainError, match="above the height ceiling 500"):
            zeta(s)
    with pytest.raises(DomainError, match="above the height ceiling 500"):
        beta_L(0.5 + 800j)


def test_zeta_pole():
    with pytest.raises(PoleOfZeta):
        zeta(1.0)


def test_zeta_conjugation_symmetry():
    for s in (2.0 + 5.0j, -1.3 + 17.0j, 0.5 + 40.0j):
        a, b = zeta(s), zeta(np.conj(s))
        assert abs(a - np.conj(b)) <= 1e-12 * max(1.0, abs(a))


def test_zeta_vector_matches_scalar():
    pts = np.array([2.0 + 1j, 0.5 + 14.0j, -2.5 + 9.0j])
    vec = zeta(pts)
    for k, s in enumerate(pts):
        assert abs(vec[k] - zeta(complex(s))) < 1e-13 * max(1.0, abs(vec[k]))


_SIG16, _T16 = np.linspace(-1.5, 2.25, 16), np.linspace(0.7, 61.3, 16)
# 16x16 grids across the reflection lines sigma = 0 and sigma = 1/2, laid
# out as render blocks are (row-major: sigma varies along a row), transposed,
# as one row of 48 points, with a repeated sigma column, and with one point
# removed; a holed grid takes the grid rule only on the branches without
# the hole, the rest of it and the transposed grid take the blocked path
GRID_LAYOUTS = {
    "holed": np.delete((_SIG16[None, :] + 1j * _T16[:, None]).ravel(), 37),
    "row-major": (_SIG16[None, :] + 1j * _T16[:, None]).ravel(),
    "column-major": (_SIG16[:, None] + 1j * _T16[None, :]).ravel(),
    "single-row": np.linspace(-1.5, 2.25, 48) + 30.7j,
    "repeated-sigma": (np.insert(_SIG16, 6, _SIG16[6])[None, :] + 1j * _T16[:, None]).ravel(),
}
GRID_VALUES = {"zeta": _zeta_values, "beta": lambda s: _dirichlet_values(4, s),
               "L8": lambda s: _dirichlet_values(8, s), "delta5": lambda s: _delta_q_values(4, s)}


@pytest.mark.parametrize("values, layout", [
    pytest.param(values, layout, id=name if layout == "holed" else f"{name}-{layout}")
    for layout in GRID_LAYOUTS for name, values in GRID_VALUES.items()])
def test_grid_path_matches_point_path(values, layout, monkeypatch):
    # one batch (the matrix-product grid rule of _power_sum where the layout
    # allows it) against the blocked outer-product path on the same batch
    # and against one-point calls
    s = GRID_LAYOUTS[layout]
    grid = values(s)
    point = np.array([values(s[k:k + 1])[0] for k in range(s.size)])
    monkeypatch.setattr(evalcore, "_GRID_MIN_POINTS", s.size + 1)
    blocked = values(s)
    if layout != "column-major":
        assert np.any(grid != blocked)  # the grid rule really ran
    assert np.max(np.abs(grid - blocked) / np.abs(blocked)) <= 1e-13
    # one-point calls size their series for that point alone, so they agree
    # only to the accuracy bound pinned against mpmath in test_contract_map
    assert np.max(np.abs(grid - point) / np.abs(point)) <= 1e-12


def test_eta_fallback_points_keep_a_render_block_whole(monkeypatch):
    # a 64-row block of a 150-wide portrait over sigma in [-1, 2], rows top
    # down as render lays them out, through the zeros of 1 - 2^(1-x) at
    # x = 1 + 2 pi i k / ln 2: the numerator's zeta(s) meets the first at
    # t = 9.06, the denominator's zeta(2s - 1/2) the first two at t = 4.53
    # and 9.06; each reflected branch meets them near sigma = 0 or 1/4
    sig = -1.0 + (np.arange(150) + 0.5) * 0.02
    ts = 4.53 + 0.0906 * (np.arange(63, -1, -1) - 10)
    s = (sig[None, :] + 1j * ts[:, None]).ravel()
    calls = []
    separable_sum = evalcore._separable_sum

    def spy(rows, cols, logs, w):
        calls.append((rows.size, cols.size))
        return separable_sum(rows, cols, logs, w)

    monkeypatch.setattr(evalcore, "_separable_sum", spy)
    _delta_q_values(4, s)
    # zeta, beta and the denominator, each on both sides of its reflection
    # line: six series, each summed by one product over whole columns
    assert len(calls) == 6 and {cols for _, cols in calls} == {ts.size}
    assert sum(rows for rows, _ in calls) == 3 * sig.size
    for x in (s, 2.0 * s - 0.5):
        right = np.where(x.real > 0.0, x, 1.0 - x)  # the argument of the eta route
        fallback = np.flatnonzero(np.abs(evalcore._eta_factor(right)) < evalcore._ETA_MIN)
        assert fallback.size >= 4
        block = _zeta_values(x)[fallback]
        one = np.array([_zeta_values(x[k:k + 1])[0] for k in fallback])
        assert np.max(np.abs(block - one) / np.abs(one)) <= 1e-13


@pytest.mark.parametrize("values", [_zeta_values, lambda s: _dirichlet_values(4, s),
                                    lambda s: _dirichlet_values(8, s)], ids=["zeta", "beta", "L8"])
def test_line_path_matches_blocked_path(values, monkeypatch):
    # the scan of find_zeros(source, 0, 199.995): 0.5 + i h k at h = 0.01,
    # the last ordinate clipped off the progression to t_max; one batch takes
    # the line product of _power_sum, against the blocked outer-product path
    # on the same batch
    ts = 0.01 * np.arange(20001)
    ts[-1] = 199.995
    s = 0.5 + 1j * ts
    line = values(s)
    monkeypatch.setattr(evalcore, "_GRID_MIN_POINTS", s.size + 1)
    blocked = values(s)
    assert np.any(line != blocked)  # the line path really ran
    # the values reach about 6 in modulus; the gap is rounding of the phases
    # t log k (7.4e-13 for zeta, 4.4e-13 for beta, 4.0e-13 for L8)
    assert np.max(np.abs(line - blocked)) <= 1e-12


# the 30 x 40 grid of tools/value_digest.py, and a 64-point tracing batch;
# on two unpinned BLAS threads about a third of the grid values and 56 of
# the 192 kernel values take other last bits than on one
_SIG, _T = np.meshgrid(np.linspace(-1.5, 2.5, 30), np.linspace(0.5, 80.0, 40))
DIGEST_GRID = _SIG + 1j * _T
TRACE_BATCH = 0.6 + 0.01 * np.arange(64) + 1j * np.linspace(1.0, 100.0, 64)


def _batched_values():
    grids = [_delta_q_values(q, DIGEST_GRID) for q in (3, 4, 7, 8)]
    return grids + list(_delta5_log_derivatives(TRACE_BATCH))


@pytest.fixture
def blas_threads():
    """The BLAS thread handle with the process set to 2 threads; the
    caller's count is restored afterwards."""
    handle = evalcore._BLAS_THREADS
    if handle is None:
        pytest.skip("numpy does not bundle scipy-openblas")
    saved = handle.get()
    handle.set(2)
    try:
        if handle.get() != 2:
            pytest.skip("OpenBLAS does not run 2 threads here")
        yield handle
    finally:
        handle.set(saved)


def test_values_do_not_depend_on_blas_threads(blas_threads):
    two = _batched_values()
    blas_threads.set(1)
    one = _batched_values()
    for a, b in zip(two, one):
        assert np.array_equal(a, b)


def test_pin_restores_the_caller_thread_count(blas_threads, monkeypatch):
    inside = []
    separable_sum = evalcore._separable_sum

    def spy(*args):
        inside.append(blas_threads.get())
        return separable_sum(*args)

    monkeypatch.setattr(evalcore, "_separable_sum", spy)
    _delta_q_values(4, DIGEST_GRID)
    assert inside and set(inside) == {1}
    assert blas_threads.get() == 2
    _delta5_log_derivatives(TRACE_BATCH)
    assert blas_threads.get() == 2


def test_pin_restores_the_caller_thread_count_on_error(blas_threads, monkeypatch):
    def fail(*args):
        raise RuntimeError("product failed")

    monkeypatch.setattr(evalcore, "_separable_sum", fail)
    with pytest.raises(RuntimeError, match="product failed"):
        _zeta_values(DIGEST_GRID)
    assert blas_threads.get() == 2


def test_overlapping_pins_restore_the_caller_thread_count(blas_threads):
    # 4 Python threads on 2 cores pin and unpin concurrently; each pin that
    # saved the count another thread had set to 1 would restore 1
    want = _zeta_values(DIGEST_GRID)
    results, errors = [], []

    def work():
        try:
            for _ in range(25):
                results.append(np.array_equal(_zeta_values(DIGEST_GRID), want))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == [] and results == [True] * 100
    assert blas_threads.get() == 2


def test_values_without_the_handle_equal_the_pinned_values(blas_threads, monkeypatch):
    pinned = _batched_values()
    blas_threads.set(1)  # what the pin would have set
    monkeypatch.setattr(evalcore, "_BLAS_THREADS", None)
    bare = _batched_values()
    for a, b in zip(pinned, bare):
        assert np.array_equal(a, b)


def test_zeta_near_denominator_bad_point():
    # eta-to-zeta conversion degenerates at s = 1 + 2 pi i k / ln 2; the
    # fallback route must stay smooth there
    bad = complex(1.0, 2.0 * math.pi / math.log(2.0))
    v0 = zeta(bad)
    v1 = zeta(bad + 1e-7)
    assert np.isfinite(v0)
    assert abs(v0 - v1) < 1e-4


def test_hurwitz_reduces_to_zeta():
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = complex(rng.uniform(-3.0, 6.0), rng.uniform(-60.0, 60.0))
        if abs(s - 1.0) < 0.1:
            continue
        a, b = hurwitz_zeta(s, 1.0), zeta(s)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_hurwitz_known_values():
    assert abs(hurwitz_zeta(2.0, 0.5).real - math.pi ** 2 / 2.0) < 1e-12
    got = hurwitz_zeta(3.0 + 4.0j, 1.0 / 3.0)
    assert abs(got - HURWITZ_COMPLEX) < 1e-10 * abs(HURWITZ_COMPLEX)


def test_hurwitz_pole_and_domain():
    with pytest.raises(PoleOfZeta):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(Exception):
        hurwitz_zeta(2.0, 0.0)
    # a bool is not an offset; numpy reals are, under the same (0, 1] rule
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0, True)
    assert hurwitz_zeta(2.0, np.float32(0.5)) == hurwitz_zeta(2.0, 0.5)


def test_beta_known_values():
    assert abs(beta_L(1.0).real - math.pi / 4.0) < 1e-13
    assert abs(beta_L(0.0).real - 0.5) < 1e-13
    assert abs(beta_L(2.0).real - CATALAN) < 1e-12
    assert abs(beta_L(0.75).real - BETA_34) < 1e-12


def test_beta_trivial_zeros():
    # odd character: trivial zeros at the negative odd integers
    assert abs(beta_L(-1.0)) < 1e-10
    assert abs(beta_L(-3.0)) < 1e-10


def test_dirichlet_L_known_values():
    assert abs(dirichlet_L(3, 1.0).real - L3_AT_1) < 1e-12
    assert abs(dirichlet_L(3, 1.0).real - math.pi / (3.0 * math.sqrt(3.0))) < 1e-12
    assert abs(dirichlet_L(3, 0.5).real - L3_AT_HALF) < 1e-12
    assert abs(dirichlet_L(7, 1.5).real - L7_AT_32) < 1e-12
    assert abs(dirichlet_L(8, 2.0).real - L8_AT_2) < 1e-12
    got = dirichlet_L(4, 0.3 + 2.0j)
    assert abs(got - L4_COMPLEX) < 1e-11


def test_dirichlet_L_4_is_beta_bit_for_bit():
    # L_-4 has one evaluation path: row 4 of the alternating-series table,
    # reflected below Re s = 0; on a vector across Re s in [-3, 4] (with
    # 0 < Re s < 1/2, s = 0 and the trivial zeros), the 30 x 40 grid, a
    # 10,001-point critical line and scalars
    span = np.concatenate([np.linspace(-3.0, 4.0, 57) + 1j * np.linspace(-40.0, 90.0, 57),
                           [-1.0, -3.0, 0.0, 0.1, 0.25 + 3.0j, 0.49 - 17.0j]])
    line = 0.5 + 1j * np.linspace(0.0, 100.0, 10001)
    for s in (span, DIGEST_GRID, line):
        assert dirichlet_L(4, s).tobytes() == beta_L(s).tobytes()
    for s in (2.0, 0.3 + 2.0j, -1.5 + 8.0j, 0.5 + 25.0j, 0.2 - 150.0j, -3.0):
        a, b = dirichlet_L(4, s), beta_L(s)
        assert isinstance(a, complex) and (a.real, a.imag) == (b.real, b.imag)


def test_alternating_rows_expand_to_the_characters():
    # row (step, offsets): sign (-1)^k on step k + r for each offset r
    for q in (4, 8):
        step, offsets = _ALTERNATING[q]
        chi = {step * k + r: (-1) ** k for k in range(8 * q) for r in offsets}
        assert [chi.get(m, 0) for m in range(1, 8 * q + 1)] == [
            CHARACTER_TABLES[q].get(m % q, 0) for m in range(1, 8 * q + 1)]


def test_cvz_characters_share_the_height_ceiling():
    # L_-4 and L_-8 are CVZ series, so they refuse above |Im| = 500 as
    # zeta and beta_L do; L_-3 and L_-7 (Euler-Maclaurin) still answer
    for q in (4, 8):
        with pytest.raises(DomainError, match="above the height ceiling 500"):
            dirichlet_L(q, 0.5 + 600j)
        with pytest.raises(DomainError, match="above the height ceiling 500"):
            dirichlet_L(q, np.array([2.0, -0.5 - 600j]))
    for q in (3, 7):
        assert np.isfinite(dirichlet_L(q, 0.5 + 600j))


def test_dirichlet_L_trivial_zeros():
    for q in (3, 4, 7, 8):
        for s in (-1.0, -3.0):  # all four characters here are odd
            assert abs(dirichlet_L(q, s)) < 1e-10


# the reflected L functions by conductor: zeta (q = 1), beta (beta_L and dirichlet_L), L(-q)
REFLECTED = {1: [zeta], 4: [beta_L, lambda s: dirichlet_L(4, s)],
             **{q: [lambda s, q=q: dirichlet_L(q, s)] for q in (3, 7, 8)}}


def test_relative_accuracy_next_to_trivial_zeros(mpmath_reference):
    # within 1e-9..1e-3 of a trivial zero the value is tiny, and the sine
    # of the reflection carries all of its relative accuracy
    rows = np.array(mpmath_reference["trivial_zeros"])
    for q, fns in REFLECTED.items():
        mine = rows[rows[:, 0] == q]
        s, want = mine[:, 1] + 1j * mine[:, 2], mine[:, 3] + 1j * mine[:, 4]
        for fn in fns:
            err = np.abs(fn(s) - want) / np.abs(want)
            worst = int(np.argmax(err))
            assert err[worst] <= 1e-13, f"q = {q} off by {err[worst]:.2e} at s = {s[worst]}"


def test_trivial_zeros_are_exact_and_silent():
    zeros = {1: [-2.0, -4.0, -6.0], **{q: [-1.0, -3.0, -5.0] for q in (3, 4, 7, 8)}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q, fns in REFLECTED.items():
            for fn in fns:
                # alone, and in one batch with s = 0 and a reflected point
                assert all(fn(s) == 0.0 for s in zeros[q])
                assert np.all(fn(np.array(zeros[q] + [0.0, -0.5 + 1j]))[:3] == 0.0)


def test_zeta_near_zero(mpmath_reference):
    # reflecting next to s = 0 would take zeta(1 - s) at the rounded 1 - s,
    # about 1e-16/|s| off; rings of radius 1e-8 .. 0.0501 around s = 0
    rows = np.array(mpmath_reference["zeta_near_zero"])
    s, want = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
    for got in (zeta(s), np.array([zeta(complex(p)) for p in s])):
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        worst = int(np.argmax(err))
        assert err[worst] <= 1e-13, f"zeta off by {err[worst]:.2e} at s = {s[worst]}"
    # the quotient meets it in its denominator zeta(2s - 1/2) next to s = 1/4
    (sigma, t, re, im), = mpmath_reference["delta5"]
    want = complex(re, im)
    assert abs(delta5(complex(sigma, t)) - want) <= 1e-13 * abs(want)


def test_dirichlet_L_rejects_unknown_discriminant():
    # the same label rule as QuotientKind: 8.0 is not the integer label 8
    for q in (5, 8.0, 3.5, True):
        with pytest.raises(UnsupportedDiscriminant):
            dirichlet_L(q, 2.0)


def test_log_gamma_known_values():
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13


def test_log_gamma_recurrence_and_duplication():
    # branch-insensitive identity checks: compare exponentials
    for s in (0.3 + 0.4j, 2.0 + 3.0j, -1.3 + 6.0j, 0.5 + 30.0j):
        rec = log_gamma(s + 1.0) - log_gamma(s) - np.log(s)
        assert abs(np.exp(rec) - 1.0) < 1e-12
        dup = (log_gamma(2.0 * s) - log_gamma(s) - log_gamma(s + 0.5)
               - (2.0 * s - 1.0) * math.log(2.0) + 0.5 * math.log(math.pi))
        assert abs(np.exp(dup) - 1.0) < 1e-11


def test_log_gamma_poles():
    with pytest.raises(PoleOfGamma):
        log_gamma(0.0)
    with pytest.raises(PoleOfGamma):
        log_gamma(-3.0)


def test_log_gamma_across_the_shift_boundary(mpmath_reference):
    # Re z in {-2.5, -1e-9, 0, 0.5, 9.5, 10} x Im z in {+-9.999, +-10,
    # +-10.001, +-47, +-250}: points on both sides of the per-point Stirling
    # shift (none where Re z >= 10, or Re z >= 0 and |Im z| >= 10)
    rows = np.array(mpmath_reference["log_gamma"])
    z, want = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
    got = log_gamma(z)
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    worst = int(np.argmax(err))
    assert err[worst] <= 1e-13, f"log_gamma off by {err[worst]:.2e} at z = {z[worst]}"
    # each point is shifted by its own amount, so batch-mates do not move its bits
    assert all(log_gamma(complex(zk)) == gk for zk, gk in zip(z, got))


def test_log_gamma_principal_branch_is_continuous_at_the_shift_boundary():
    # along Re z = 1/4, |Im z| crosses 10 where the shift stops; Im log Gamma
    # moves by about log|z| * 0.005 = 0.012 per step, a branch jump by 2 pi
    for sign in (1.0, -1.0):
        im = log_gamma(0.25 + 1j * sign * np.linspace(9.9, 10.1, 41)).imag
        assert np.max(np.abs(np.diff(im))) < 0.05
