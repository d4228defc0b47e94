"""Evaluation kernel: zeta, Hurwitz zeta, the beta function and the
quadratic Dirichlet L functions, against independently computed references."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest

import delta_lens.evalcore as evalcore
import delta_lens.quotient as quotient
from delta_lens.errors import DomainError, PoleOfGamma, PoleOfZeta, UnsupportedDiscriminant
from delta_lens.evalcore import (CHARACTER_TABLES, _ALTERNATING, _l_values, beta_L, dirichlet_L, hurwitz_zeta,
                                 log_gamma, zeta)
from delta_lens.critical import completed_beta, completed_zeta
from delta_lens.quotient import (_delta_q_values, _log_derivatives, bracket_factor, delta5, delta_q, f5,
                                 f5_asymptotic, lattice_sum_C)

def _twist_factor(q, w):
    """1 - chi(2) 2^(1-w) of row q at its argument w: 1 minus the one-term
    power sum 2 chi(2) 2^-w, the twist term of the row's power table."""
    return 1.0 - evalcore._power_sum(w, evalcore._TWIST_LOGS, evalcore._TWIST_WEIGHTS[q])


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
# removed; the holed grid and the transposed grid take the blocked path
GRID_LAYOUTS = {
    "holed": np.delete((_SIG16[None, :] + 1j * _T16[:, None]).ravel(), 37),
    "row-major": (_SIG16[None, :] + 1j * _T16[:, None]).ravel(),
    "column-major": (_SIG16[:, None] + 1j * _T16[None, :]).ravel(),
    "single-row": np.linspace(-1.5, 2.25, 48) + 30.7j,
    "repeated-sigma": (np.insert(_SIG16, 6, _SIG16[6])[None, :] + 1j * _T16[:, None]).ravel(),
}
GRID_VALUES = {"zeta": lambda s: _l_values((1,), s)[0], "beta": lambda s: _l_values((4,), s)[0],
               "L8": lambda s: _l_values((8,), s)[0], "delta5": lambda s: _delta_q_values(4, s)}


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
    if layout == "holed":  # its argument w is no grid: the blocked path on both branches
        assert np.array_equal(grid, blocked)
    elif layout != "column-major":
        assert np.any(grid != blocked)  # the grid rule really ran
    assert np.max(np.abs(grid - blocked) / np.abs(blocked)) <= 1e-13
    # one-point calls size their series for that point alone, so they agree
    # only to the accuracy bound pinned against mpmath in test_contract_map
    assert np.max(np.abs(grid - point) / np.abs(point)) <= 1e-12


# a 64-row block of a 150-wide portrait over sigma in [-1, 2], rows top
# down as render lays them out, through the zeros of 1 - chi(2) 2^(1-x): at
# x = 1 + 2 pi i k / ln 2 (t = 9.06 k) for zeta and L_-7, and at
# 1 + (2k + 1) pi i / ln 2 (t = 4.53 (2k + 1)) for L_-3.  The numerator's s
# meets t = 4.53 and 9.06, the denominator's 2s - 1/2 t = 9.06, 13.6 and
# 18.1; each reflected branch meets them near sigma = 0 or 1/4
_BLOCK_SIG = -1.0 + (np.arange(150) + 0.5) * 0.02
_BLOCK_T = 4.53 + 0.0906 * (np.arange(63, -1, -1) - 10)
RENDER_BLOCK = (_BLOCK_SIG[None, :] + 1j * _BLOCK_T[:, None]).ravel()


def test_eta_fallback_points_keep_a_render_block_whole(monkeypatch):
    sig, ts, s = _BLOCK_SIG, _BLOCK_T, RENDER_BLOCK
    calls = []
    separable_sum = evalcore._separable_sum

    def spy(rows, cols, logs, w):
        calls.append((rows.size, cols.size, np.isrealobj(rows)))
        return separable_sum(rows, cols, logs, w)

    monkeypatch.setattr(evalcore, "_separable_sum", spy)
    _delta_q_values(4, s)
    # zeta, beta and the denominator, each once across both sides of its
    # reflection line, and the twist factors of zeta at s and at 2s - 1/2,
    # each summed by one real-weight product over all 150 columns
    assert len(calls) == 5 and {(cols, real) for _, cols, real in calls} == {(ts.size, True)}
    assert sum(rows for rows, _, _ in calls) == 5 * sig.size
    for q, f_min in ((1, evalcore._ETA_MIN), (3, evalcore._TWIST_MIN), (7, evalcore._TWIST_MIN)):
        chi2 = _ALTERNATING[q][3]
        for x in (s, 2.0 * s - 0.5):
            w = np.where(x.real > 0.0, x, 1.0 - x.conj())  # the argument of the twisted row
            f = _twist_factor(q, w)
            p = np.expm1((1.0 - w) * math.log(2.0))  # 2^(1-w) - 1
            closed = -p if chi2 == 1 else 2.0 + p
            # the grid product against expm1 where _l_values reads the factor
            assert np.max(np.abs(f - closed)[np.abs(closed) >= f_min]) <= 2e-15
            assert np.count_nonzero(np.abs(f) < f_min) >= 4
            # the Euler-Maclaurin points and the band where 1 - p cancels most
            near = np.flatnonzero(np.abs(f) < 4.0 * f_min)
            block = _l_values((q,), x)[0][near]
            one = np.array([_l_values((q,), x[k:k + 1])[0][0] for k in near])
            assert np.max(np.abs(block - one) / np.abs(one)) <= 1e-13


@pytest.mark.parametrize("q", [3, 4, 7, 8])
def test_one_product_per_row_per_argument(q, monkeypatch):
    # each row of delta_q at s and at 2s - 1/2, and each twist factor, is one
    # product over the whole render block, both reflection branches together
    calls = []
    separable_sum = evalcore._separable_sum

    def spy(rows, cols, logs, w):
        calls.append((rows.size, cols.size, logs.size))
        return separable_sum(rows, cols, logs, w)

    monkeypatch.setattr(evalcore, "_separable_sum", spy)
    _delta_q_values(q, RENDER_BLOCK)
    num, den = quotient._QUOTIENTS[q][:2]
    assert {(rows, cols) for rows, cols, _ in calls} == {(_BLOCK_SIG.size, _BLOCK_T.size)}
    assert sum(logs > 1 for *_, logs in calls) == len(num) + len(den)
    assert sum(logs == 1 for *_, logs in calls) == sum(r in evalcore._TWIST_WEIGHTS for r in num + den)


def test_rows_at_one_argument_share_one_log_gamma(monkeypatch):
    # log Gamma(1 - s) is taken once for all the rows at s: a quotient makes
    # one batch at s and one at 2s - 1/2, lattice_sum_C one for zeta and
    # beta, and f5 one for its four gamma factors
    calls = []
    stirling = evalcore._stirling_lgamma

    def spy(z):
        calls.append(z.size)
        return stirling(z)

    monkeypatch.setattr(evalcore, "_stirling_lgamma", spy)
    monkeypatch.setattr(quotient, "_stirling_lgamma", spy)
    for q in (3, 4, 7, 8):
        calls.clear()
        _delta_q_values(q, RENDER_BLOCK)
        assert len(calls) == 2
    for fn, size in ((lattice_sum_C, np.count_nonzero(RENDER_BLOCK.real <= 0.0)), (f5, 4 * RENDER_BLOCK.size)):
        calls.clear()
        fn(RENDER_BLOCK)
        assert calls == [size]


_RNG = np.random.default_rng(29)
_MIXED = _RNG.uniform(-3.0, 4.0, 40) + 1j * _RNG.uniform(-200.0, 200.0, 40)  # both sides of Re s = 0


@pytest.mark.parametrize("rows, s", [
    ((1, 3, 4, 7, 8), RENDER_BLOCK), ((1, 3, 4, 7, 8), 2.0 * RENDER_BLOCK - 0.5), ((1, 3, 4, 7, 8), _MIXED),
    ((1, 3, 4, 7, 8), _MIXED[:3]), ((3, 7), np.linspace(-3.0, 3.0, 32) + 1j * np.linspace(-980.0, 980.0, 32)),
], ids=["block", "block-2s-1/2", "mixed", "mixed3", "L3-L7-above"])
def test_joint_rows_equal_each_row_alone(rows, s):
    # the shared branch mask, argument and log-gamma are the ones a row takes
    # alone, so every row of a joint call keeps its bits
    with np.errstate(all="ignore"):
        joint = _l_values(rows, s)
        for q, values in zip(rows, joint):
            assert values.tobytes() == _l_values((q,), s)[0].tobytes()


_SPREAD = np.random.default_rng(33).uniform((-3.0, -200.0), (4.0, 200.0), (2000, 2)) @ np.array([1.0, 1.0j])


@pytest.mark.parametrize("batch", [2000, 3], ids=["vector", "batch3"])
@pytest.mark.parametrize("q", [3, 4, 7, 8])
def test_rows_at_both_arguments_share_one_table(q, batch):
    # a quotient's one _l_values call: the rows at s keep the bits of each
    # row alone, the row at 2s - 1/2, read as sqrt(m) (m^-w)^2 from the table
    # at s, stays within 2e-14 of its own sum (relative to max(1, |zeta|)),
    # and where s and 2s - 1/2 lie on different branches (0 < Re s <= 1/4)
    # it keeps its own sum's bits.  The largest gap, 1.54e-14, is at
    # s = 0.2893 + 0.1068i in the vector, where Re(2s - 1/2) = 0.079 and the
    # batch's 347 terms barely decay; both sums are 9e-14 from zeta there.
    # Small |Im x| with the capped term count is where the two roundings
    # part most (up to 6e-14 there, each sum as far from zeta as the other),
    # so this bound pins the seeded spread, not a worst case
    num, den = quotient._QUOTIENTS[q][:2]
    for i in range(0, _SPREAD.size, batch):
        s = _SPREAD[i:i + batch]
        band = (s.real > 0.0) & (s.real <= 0.25)
        with np.errstate(all="ignore"):
            joint = _l_values(num, s, den)
            for r, values in zip(num, joint):
                assert values.tobytes() == _l_values((r,), s)[0].tobytes()
            z = _l_values(den, 2.0 * s - 0.5)[0]
        assert np.all(np.abs(joint[-1] - z) <= 2e-14 * np.maximum(1.0, np.abs(z)))
        assert joint[-1][band].tobytes() == z[band].tobytes()


@pytest.mark.parametrize("values, products", [(GRID_VALUES["zeta"], 2), (GRID_VALUES["beta"], 1),
                                              (GRID_VALUES["L8"], 1)], ids=["zeta", "beta", "L8"])
def test_line_path_matches_blocked_path(values, products, monkeypatch):
    # the scan of find_zeros(source, 0, 199.995): 0.5 + i h k at h = 0.01,
    # the last ordinate clipped off the progression to t_max; one batch takes
    # the line product of _power_sum, against the blocked outer-product path
    # on the same batch
    ts = 0.01 * np.arange(20001)
    ts[-1] = 199.995
    s = 0.5 + 1j * ts
    calls = []
    separable_sum = evalcore._separable_sum

    def spy(rows, cols, logs, w):
        # complex rows keep the complex product, and its bits
        out = separable_sum(rows, cols, logs, w)
        calls.append(np.iscomplexobj(rows) and np.array_equal(
            out, np.exp(-np.multiply.outer(rows, logs)) * w @ np.exp(-1j * np.multiply.outer(cols, logs)).T))
        return out

    monkeypatch.setattr(evalcore, "_separable_sum", spy)
    line = values(s)
    assert calls == [True] * products  # zeta's twist factor is a line product too
    monkeypatch.setattr(evalcore, "_GRID_MIN_POINTS", s.size + 1)
    blocked = values(s)
    assert np.any(line != blocked)  # the line path really ran
    # the values reach about 6 in modulus; the gap is rounding of the phases
    # t log k (4.9e-13 for zeta, 4.4e-13 for beta, 4.0e-13 for L8)
    assert np.max(np.abs(line - blocked)) <= 1e-12


@pytest.mark.parametrize("q", [1, 3, 7])
def test_twist_factor_matches_expm1(q):
    # 1 - chi(2) 2^(1-w) as the one-term series of _power_sum against its
    # expm1 form, on loose points (one-point calls and a scattered batch,
    # the outer product) and on the 0..200 scan of find_zeros (the line
    # product, whose rounding of the phases t ln 2 sets the looser bound)
    chi2 = _ALTERNATING[q][3]

    def closed(w):
        p = np.expm1((1.0 - w) * math.log(2.0))  # 2^(1-w) - 1
        return -p if chi2 == 1 else 2.0 + p

    rng = np.random.default_rng(q)
    loose = rng.uniform(0.01, 3.0, 400) + 1j * rng.uniform(-200.0, 200.0, 400)
    one = np.array([_twist_factor(q, loose[k:k + 1])[0] for k in range(loose.size)])
    for f in (_twist_factor(q, loose), one):
        assert np.max(np.abs(f - closed(loose))) <= 2e-15
    line = 0.5 + 1j * np.append(0.01 * np.arange(20000), 200.0)
    assert np.max(np.abs(_twist_factor(q, line) - closed(line))) <= 1e-13


# the 30 x 40 grid of tools/value_digest.py, and a 64-point tracing batch;
# on two unpinned BLAS threads about a third of the grid values and 56 of
# the 192 kernel values take other last bits than on one
_SIG, _T = np.meshgrid(np.linspace(-1.5, 2.5, 30), np.linspace(0.5, 80.0, 40))
DIGEST_GRID = _SIG + 1j * _T
TRACE_BATCH = 0.6 + 0.01 * np.arange(64) + 1j * np.linspace(1.0, 100.0, 64)


def _batched_values():
    grids = [_delta_q_values(q, DIGEST_GRID) for q in (3, 4, 7, 8)]
    return grids + list(_log_derivatives(4, TRACE_BATCH))


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
    _log_derivatives(4, TRACE_BATCH)
    assert blas_threads.get() == 2


def test_pin_restores_the_caller_thread_count_on_error(blas_threads, monkeypatch):
    def fail(*args):
        raise RuntimeError("product failed")

    monkeypatch.setattr(evalcore, "_separable_sum", fail)
    with pytest.raises(RuntimeError, match="product failed"):
        _l_values((1,), DIGEST_GRID)[0]
    assert blas_threads.get() == 2


def test_overlapping_pins_restore_the_caller_thread_count(blas_threads):
    # 4 Python threads on 2 cores pin and unpin concurrently; each pin that
    # saved the count another thread had set to 1 would restore 1
    want = _l_values((1,), DIGEST_GRID)[0]
    results, errors = [], []

    def work():
        try:
            for _ in range(25):
                results.append(np.array_equal(_l_values((1,), DIGEST_GRID)[0], want))
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


def test_euler_maclaurin_tail_runs_on_one_blas_thread(blas_threads, monkeypatch):
    # the tail's (points x offsets) products are too narrow for a thread to
    # change a value's bits, so only the count they run under shows a lost pin
    inside = []
    em_tail = evalcore._em_tail

    def spy(s, *args):
        inside.append((s.size, blas_threads.get()))
        return em_tail(s, *args)

    monkeypatch.setattr(evalcore, "_em_tail", spy)
    # L_-3 and L_-7 take the character sum for a whole batch only above the
    # CVZ ceiling: 16 points on each side of Re s = 0, t in [520, 980]
    above = np.linspace(-3.0, 3.0, 32) + 1j * np.linspace(520.0, 980.0, 32)
    for q in (3, 7):
        _l_values((q,), above)[0]
    hurwitz_zeta(DIGEST_GRID + 2.0, 0.25)
    zeta(1.0 + 2j * math.pi / math.log(2.0) + np.linspace(-0.04, 0.04, 32))  # zeta's overwrite
    assert len(inside) >= 4 and all(size >= evalcore._GRID_MIN_POINTS for size, _ in inside)
    assert {threads for _, threads in inside} == {1}
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


def test_hurwitz_left_of_the_line_against_mpmath(mpmath_reference):
    # Re s in [-3, -0.05], |t| <= 50, a in {1, 1/2, 1/7, 3/64}: the discrete
    # reflection formula, as error / max(1, |zeta|)
    rows = np.array(mpmath_reference["hurwitz_left"])
    for a in np.unique(rows[:, 0]):
        r = rows[rows[:, 0] == a]
        s, want = r[:, 1] + 1j * r[:, 2], r[:, 3] + 1j * r[:, 4]
        for got in (hurwitz_zeta(s, float(a)), np.array([hurwitz_zeta(complex(p), float(a)) for p in s])):
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            worst = int(np.argmax(err))
            assert err[worst] <= 1e-13, f"a = {a:g} off by {err[worst]:.2e} at s = {s[worst]}"


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
    # row (step, offsets, signs, chi(2)): sign (-1)^k eps_r on step k + r for
    # each offset r, the Dirichlet coefficients of (1 - chi(2) 2^(1-s)) L(s):
    # chi(m), less 2 chi(2) chi(m/2) for even m (chi = 1 for zeta, q = 1)
    for q, (step, offsets, signs, chi2) in _ALTERNATING.items():
        chars = CHARACTER_TABLES.get(q, {0: 1})

        def chi(m):
            return chars.get(m % q, 0)

        assert chi2 == chi(2)
        row = {step * k + r: (-1) ** k * eps for k in range(8 * q) for r, eps in zip(offsets, signs)}
        assert [row.get(m, 0) for m in range(1, 8 * q + 1)] == [
            chi(m) - (2 * chi2 * chi(m // 2) if m % 2 == 0 else 0) for m in range(1, 8 * q + 1)]


def test_alternating_rows_are_the_frozen_table():
    # an oracle independent of the derivation from CHARACTER_TABLES: the five
    # rows written out by hand
    assert _ALTERNATING == {1: (1, (1,), (1,), 1), 3: (3, (1, 2), (1, 1), -1), 4: (2, (1,), (1,), 0),
                            7: (7, (1, 2, 3, 4, 5, 6), (1, -1, -1, -1, -1, 1), 1), 8: (4, (1, 3), (1, 1), 0)}


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


# the accuracy contract of the CVZ series by height: (largest |Im s|, bound on
# error / max(1, |value|)), as README "Accuracy" states it
HEIGHT_BANDS = ((100.0, 1e-13), (200.0, 4e-13), (500.0, 1e-12))


def test_zeta_next_to_the_eta_zeros(mpmath_reference):
    # Euler-Maclaurin at s replaces the eta route eta(w) / (1 - 2^(1-w)),
    # w = s or 1 - s, next to its zeros: within 0.069 of 1 + 2 pi i k / ln 2
    # and of 2 pi i k / ln 2, k = 1..55, on both sides of Re s = 1 and 0
    rows = np.array(mpmath_reference["eta_zeros"])
    s, want = rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
    bound = np.select([np.abs(s.imag) <= top for top, _ in HEIGHT_BANDS], [b for _, b in HEIGHT_BANDS])
    for got in (zeta(s), np.array([zeta(complex(p)) for p in s])):
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        worst = int(np.argmax(err / bound))
        assert err[worst] <= bound[worst], f"zeta off by {err[worst]:.2e} at s = {s[worst]}"


# L_-3 and L_-7 against mpmath, as error / max(1, |L|): on rings |s - 1| =
# 1e-9 .. 1, where the Hurwitz pole terms of the character sum cancel (with
# the expm1 pole form inside 0.5, the shared one outside), and on the same
# rings about s = 0, which reflect onto them; and at t = 220 .. 980 with
# sigma in [-3, 3], above the general contract (worst 8.8e-13, README "Accuracy")
@pytest.mark.parametrize("table, bound", [("character_rings", 1e-13), ("character_heights", 1e-12)])
def test_character_sums_against_mpmath(mpmath_reference, table, bound):
    rows = np.array(mpmath_reference[table])
    for q in (3, 7):
        r = rows[rows[:, 0] == q]
        s, want = r[:, 1] + 1j * r[:, 2], r[:, 3] + 1j * r[:, 4]
        for got in (dirichlet_L(q, s), np.array([dirichlet_L(q, complex(p)) for p in s])):
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            worst = int(np.argmax(err))
            assert err[worst] <= bound, f"L_-{q} off by {err[worst]:.2e} at s = {s[worst]}"


def test_characters_next_to_the_twist_zeros(mpmath_reference):
    # L_-3 and L_-7 are rows of the alternating series divided by 1 + 2^(1-w)
    # and 1 - 2^(1-w); within 0.2 of the zeros of those factors, on Re s = 1
    # and reflected on Re s = 0, up to t = 200, on both sides of the
    # Euler-Maclaurin overwrite (|factor| < 0.1, about 0.144 from a zero)
    rows = np.array(mpmath_reference["twist_zeros"])
    for q in (3, 7):
        r = rows[rows[:, 0] == q]
        s, want = r[:, 1] + 1j * r[:, 2], r[:, 3] + 1j * r[:, 4]
        bound = np.where(np.abs(s.imag) <= 100.0, 2e-13, 4e-13)
        for got in (dirichlet_L(q, s), np.array([dirichlet_L(q, complex(p)) for p in s])):
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            worst = int(np.argmax(err / bound))
            assert err[worst] <= bound[worst], f"L_-{q} off by {err[worst]:.2e} at s = {s[worst]}"


# every public value function, with its fixed other arguments
PUBLIC_VALUES = {
    "zeta": zeta, "beta_L": beta_L, "dirichlet_L": lambda s: dirichlet_L(3, s),
    "hurwitz_zeta": lambda s: hurwitz_zeta(s, 0.5), "log_gamma": log_gamma, "delta5": delta5,
    "delta_q": lambda s: delta_q(8, s), "f5": f5, "f5_asymptotic": f5_asymptotic,
    "lattice_sum_C": lattice_sum_C, "bracket_factor": lambda s: bracket_factor(7, s),
    "completed_zeta": completed_zeta, "completed_beta": completed_beta,
}
NON_FINITE = {"nan+2i": complex(math.nan, 2.0), "2+nani": complex(2.0, math.nan),
              "inf+2i": complex(math.inf, 2.0), "-inf+2i": complex(-math.inf, 2.0),
              "2+infi": complex(2.0, math.inf), "2-infi": complex(2.0, -math.inf)}


@pytest.mark.parametrize("point", NON_FINITE)
@pytest.mark.parametrize("name", PUBLIC_VALUES)
def test_non_finite_input_is_refused(name, point):
    with pytest.raises(DomainError, match="non-finite"):
        PUBLIC_VALUES[name](NON_FINITE[point])


def test_dirichlet_L_rejects_unknown_discriminant():
    # the same label rule as QuotientKind: 8.0 is not the integer label 8, and
    # zeta's conductor 1, a row of the series table, is not a label either
    for q in (1, 5, 8.0, 3.5, True):
        with pytest.raises(UnsupportedDiscriminant, match=r"supported: 3, 4, 7, 8$"):
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
