"""Special-function evaluation core: complex log-gamma, Riemann zeta,
Hurwitz zeta, the Dirichlet beta function, and real-character L functions
for discriminants -3, -4, -7, -8.

Every public operation accepts a Python complex (or float) or a numpy array
of them and returns the matching shape.  There is one numerical
configuration: series cutoffs are sized for _TARGET_DIGITS = 14 significant
digits and Euler-Maclaurin carries _EM_ORDER = 12 Bernoulli corrections,
which gives an error of about 1e-13 absolute or relative, whichever is
larger, for |Im s| <= 200 (near |Im s| = 200 phase rounding in the
reflection factors caps it around 4e-13):

* zeta, beta_L = L_-4 and L_-8: the accelerated alternating series of
  _ALTERNATING (binomial weights, error ~ (3+sqrt 8)^-n) for Re s > 0,
  functional-equation reflection below; zeta takes Euler-Maclaurin for
  Re s <= 0 and |s| < _ZETA_EM_RADIUS, where reflection would meet the
  pole of zeta(1 - s).
* hurwitz_zeta: Euler-Maclaurin with Bernoulli corrections; for Re s < 0
  with rational a = p/q the discrete reflection formula is used instead,
  because the direct sum loses digits to cancellation there.
* dirichlet_L: that series for q = 4, 8; for q = 3, 7 character sums over
  Hurwitz zeta values with the 1/(s-1) poles subtracted term by term, so
  the result is entire (finite at s=1), reflected below Re s = 1/2.

zeta, beta_L and dirichlet_L reflect through one functional equation,
_reflection, with one log Gamma per point.  Its sine, _log_sinpi, reduces
its argument exactly to the nearest integer, so values next to a trivial
zero keep their relative accuracy and the trivial zeros come out exactly 0.

The CVZ series of zeta, L_-4 and L_-8 refuse |Im| above _MAX_HEIGHT = 500
with DomainError (their 347-term cap loses digits above it); a quotient's
denominator zeta(2s - 1/2) sets its ceiling at |Im s| = 250.  L_-3 and
L_-7 have none.

Every Dirichlet series goes through one power sum, _power_sum.  A batch
that is a complete row-major sigma x t grid (a render block) or an equally
spaced scan along one vertical line (a critical-line scan), both detected
in O(N) without a sort, factors as k^-s = k^-a e^(-ib log k),
with a = sigma and b = t on a grid and a = sigma + coarse t, b = fine t steps
on a line, so its sum is one matrix product (_separable_sum); other batches
take one complex exp per point and term.

Piecewise definitions (the reflection half-plane, the rational Hurwitz
reflection) go through one branch helper, _branches: a batch that lies in
one branch, such as a scalar probe or a round of secant pairs, is
handed to that branch whole, without a copy or a scatter.  Their masks
split a render block by columns, so each branch is again a grid.  The eta
route of zeta runs on the whole batch, and Euler-Maclaurin overwrites the
few points near s = 1 + 2 pi i k / ln 2 where it fails (_zeta_right), so a
block keeps no holes.  log Gamma shifts each argument only as far as the
Stirling series needs (_stirling_lgamma).

Products of _GRID_MIN_POINTS points or more run on one BLAS thread
(_one_blas_thread): threaded, numpy's bundled OpenBLAS spins its workers
between calls, which doubles CPU time, and moves the last bits of a value
with the thread count.  _BLAS_THREADS, that library's thread count, is
loaded once at import through ctypes; without it the pin does nothing.

All functions are pure; the module keeps only immutable weight caches and
the BLAS handle, and leaves the process's BLAS thread count as it found it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import DomainError, PoleOfGamma, PoleOfZeta, UnsupportedDiscriminant

LN2 = math.log(2.0)
TWO_PI = 2.0 * math.pi

# B_{2k}, k = 1..13, as exact fractions
_B2K = [
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
    (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
    (-236364091, 2730), (8553103, 6),
]
# Stirling series coefficients B_{2k} / (2k (2k-1))
_STIRLING_C = np.array([p / q / ((2 * k + 2) * (2 * k + 1)) for k, (p, q) in enumerate(_B2K)])
# Euler-Maclaurin coefficients B_{2k} / (2k)!
_EM_C = np.array([p / q / math.factorial(2 * k + 2) for k, (p, q) in enumerate(_B2K)])

# Real odd primitive characters, indexed by |discriminant|
CHARACTER_TABLES = {
    3: {1: 1, 2: -1},
    4: {1: 1, 3: -1},
    7: {1: 1, 2: 1, 3: -1, 4: 1, 5: -1, 6: -1},
    8: {1: 1, 3: 1, 5: -1, 7: -1},
}

_POLE_TOL = 1e-12
_DIFF_STEP = 1e-6  # step of the central-difference derivative
_TARGET_DIGITS = 14  # significant digits the CVZ and Euler-Maclaurin cutoffs are sized for
_EM_ORDER = 12  # Bernoulli correction terms of Euler-Maclaurin, B_2 .. B_24
_ETA_MIN = 0.05  # smallest |1 - 2^(1-s)| the eta route of zeta divides by
_ZETA_EM_RADIUS = 0.05  # reflected zeta takes Euler-Maclaurin for |s| below this
# below this many points the line and grid tests in _power_sum cost more
# than they can save (scalar probes, short refinement levels, secant pairs)
_GRID_MIN_POINTS = 16
# largest |Im| of a CVZ series: the 347-term cap is off 1e-10 at 550, 4e-6 at 600
_MAX_HEIGHT = 500.0


class _BlasPin:
    """The thread count of numpy's bundled scipy-openblas: get() and set(n),
    and, as a context, one thread while any Python thread is inside it.
    The first to enter saves the count it finds and the last to leave
    restores it, also when the block raises, so pins nest and overlap."""

    def __init__(self, lib):
        self.get = lib.scipy_openblas_get_num_threads64_
        self.get.argtypes, self.get.restype = [], ctypes.c_int
        self.set = lib.scipy_openblas_set_num_threads64_
        self.set.argtypes, self.set.restype = [ctypes.c_int], None
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = self.get()
                self.set(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                self.set(self._saved)


def _load_blas_threads():
    """The _BlasPin of numpy.libs/libscipy_openblas*.so, or None when numpy
    bundles no such library or it lacks the thread-count symbols."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*.so")):
        try:
            return _BlasPin(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):
            continue
    return None


_BLAS_THREADS = _load_blas_threads()
_NO_PIN = contextlib.nullcontext()


def _one_blas_thread(points: int):
    """Context for the products of a batch of this many points: one BLAS
    thread from _GRID_MIN_POINTS points on, the caller's count restored on
    exit; a no-op for smaller batches or without the library."""
    if points < _GRID_MIN_POINTS or _BLAS_THREADS is None:
        return _NO_PIN
    return _BLAS_THREADS


def _coerce(s):
    """Return (complex128 array, was_scalar); reject non-finite input."""
    arr = np.asarray(s, dtype=np.complex128)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)):
        raise DomainError("input contains non-finite values")
    return arr, scalar


def _release(arr, scalar):
    return complex(arr[0]) if scalar else arr


def _branches(shape, *cases) -> np.ndarray:
    """Piecewise evaluation: out[mask] = f(mask) for each (mask, f) case,
    the masks partitioning a batch of this shape.  f indexes its inputs with
    the selector it is given; a case whose mask covers the whole batch gets
    Ellipsis, which selects views, so its result is returned as it is with
    no copy and no scatter."""
    for mask, f in cases:
        if mask.size and mask.all():
            return f(...)
    out = np.empty(shape, dtype=np.complex128)
    for mask, f in cases:
        if mask.any():
            out[mask] = f(mask)
    return out


# The CVZ-summed series by conductor: row (step, offsets) is sum_k (-1)^k
# sum_r (step k + r)^-s.  Row 1 is eta (zeta times 1 - 2^(1-s)), 4 is beta,
# and 8 is L_-8, whose character +, +, -, - on 1, 3, 5, 7 alternates in pairs.
_ALTERNATING = {1: (1, (1,)), 4: (2, (1,)), 8: (4, (1, 3))}


@functools.cache
def _alt_series(q: int, n: int):
    """(logs, weights) of the first n blocks of row q of _ALTERNATING: each
    log(step k + r), k < n, and the binomial acceleration weight w_k = c_k / d
    repeated over the offsets r, cached as complex128 so the power sum takes
    them without a cast."""
    r = 3.0 + math.sqrt(8.0)
    d = (r ** n + r ** (-n)) / 2.0
    b = -1.0
    c = -d
    w = np.empty(n)
    for k in range(n):
        c = b - c
        w[k] = c / d
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    step, offsets = _ALTERNATING[q]
    logs = np.log(np.add.outer(step * np.arange(n, dtype=np.float64), offsets).ravel())
    return logs, np.repeat(w, len(offsets)).astype(np.complex128)


def _cvz_terms(s: np.ndarray) -> int:
    # weight ratio c_k/d stops decreasing past k ~ n, so large heights need
    # n ~ pi |t| / (2 ln(3+sqrt8)); small sigma inflates the constant a bit
    t_abs, sigma_min = np.abs(s.imag).max(initial=0.0), s.real.min()
    if t_abs > _MAX_HEIGHT:
        raise DomainError(f"a series argument has |Im| = {t_abs:.10g}, above the height ceiling "
                          f"{_MAX_HEIGHT:g} (|Im s| <= {_MAX_HEIGHT / 2:g} for a quotient)")
    penalty = 0.0
    if sigma_min < 0.5:
        penalty = min(12.0, max(0.0, -math.log(max(sigma_min, 1e-8))))
    n = int((0.5 * math.pi * t_abs + _TARGET_DIGITS * 2.302585 + penalty) / 1.7627471740390859) + 12
    return min(n, 347)  # weight recurrence overflows past n ~ 415


def _separable_sum(rows: np.ndarray, cols: np.ndarray, logs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k w_k exp(-(r + i c) logs_k) for every row exponent r (complex or
    real) and column ordinate c (real), as one (R x n) @ (n x C) product of
    exp(-r logs_k) w_k and exp(-i c logs_k)."""
    a = np.exp(-np.multiply.outer(rows, logs)) * w
    b = np.exp(-1j * np.multiply.outer(cols, logs))
    return a @ b.T


def _line_layout(sigma: float, t: np.ndarray):
    """Line rule of _power_sum for the points sigma + i t_j: (rows, cols, on)
    such that _separable_sum(rows, cols), flattened, holds the sum at point
    j in entry j for every j in the mask on, the points whose t_j lies on
    the progression t0 + h j to a few ulps.  With N = P Q points and
    P ~ sqrt N, t0 + h (Q p + q) takes rows sigma + i (t0 + h Q p) and cols
    h q.  The progression is fitted through the first and the second-to-last
    ordinate, so a scan whose last point is clipped to its end (find_zeros'
    t_max) keeps the rest."""
    n = t.size
    h = (t[-2] - t[0]) / (n - 2)
    on = np.abs(t - (t[0] + h * np.arange(n))) <= 4.0 * np.spacing(np.abs(t).max())
    p = math.isqrt(n - 1) + 1
    q = -(-n // p)
    return sigma + 1j * (t[0] + h * q * np.arange(p)), h * np.arange(q), on


def _grid_width(re: np.ndarray, im: np.ndarray) -> int:
    """Grid rule of _power_sum: W when the points re + i im are a row-major
    grid, each row of W points repeating the real parts re[:W] at one
    imaginary part (W is the first index where Im changes, or N for a
    single row); 0 otherwise.  O(N), no sort."""
    n = re.size
    w = int(np.argmax(im != im[0])) or n
    grid = (n % w == 0 and (re.reshape(-1, w) == re[:w]).all()
            and (im.reshape(-1, w) == im[::w, None]).all())
    return w if grid else 0


def _power_sum(s: np.ndarray, logs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k w_k exp(-s logs_k).

    At _GRID_MIN_POINTS points or more, two rules factor the term as
    exp(-a logs_k) w_k * exp(-i b logs_k) and sum a whole batch as one
    (A x n) @ (n x B) product, _separable_sum:

    * line rule: all points on one vertical line with equally spaced
      ordinates t0 + h (Q p + q), as in a critical-line scan; a is sigma plus
      the coarse ordinate t0 + h Q p, b the fine step h q (_line_layout).
    * grid rule: a complete row-major sigma x t grid of H rows of W points,
      each row repeating the real parts of the first at one imaginary part,
      as render blocks are laid out (_grid_width); a is sigma, b is t, and
      the W x H product is transposed back.  The column masks of the
      reflection branches keep this layout.

    Points no rule covers (scalar and scattered probes, short refinement
    levels, secant pairs, a scan's clipped last ordinate, grids with
    holes or in column-major order) take the
    outer product exp(-s logs) @ w: one product below _GRID_MIN_POINTS,
    blocked above so it stays small.

    Every product from _GRID_MIN_POINTS points on runs on one BLAS thread
    (_one_blas_thread), so a value has the same bits whatever thread count
    the process's BLAS is set to; smaller products never go threaded.
    """
    flat = np.ascontiguousarray(s, dtype=np.complex128).reshape(-1)
    if flat.size < _GRID_MIN_POINTS:
        return (np.exp(np.multiply.outer(-flat, logs)) @ w).reshape(s.shape)
    with _one_blas_thread(flat.size):
        out = np.empty(flat.shape, dtype=np.complex128)
        rest = np.ones(flat.shape, dtype=bool)
        re = flat.real
        if np.all(re == re[0]):
            rows, cols, on = _line_layout(re[0], flat.imag)
            if np.count_nonzero(on) >= _GRID_MIN_POINTS:
                out[on] = _separable_sum(rows, cols, logs, w).reshape(-1)[:flat.size][on]
                rest = ~on
        else:
            width = _grid_width(re, flat.imag)
            if width:
                return _separable_sum(re[:width], flat.imag[::width], logs, w).T.reshape(s.shape)
        idx = np.flatnonzero(rest)
        blk = 4096
        for i in range(0, idx.size, blk):
            chunk = idx[i:i + blk]
            out[chunk] = np.exp(np.multiply.outer(-flat[chunk], logs)) @ w
    return out.reshape(s.shape)


def _alt_weighted_sum(q: int, s: np.ndarray) -> np.ndarray:
    """Row q of _ALTERNATING, sum_k w_k sum_r (step k + r)^(-s) with the CVZ
    weights w_k, the term count sized for the whole batch."""
    return _power_sum(s, *_alt_series(q, _cvz_terms(s)))


def _stirling_lgamma(z: np.ndarray) -> np.ndarray:
    """Principal-branch log Gamma by the Stirling series, point by point.

    A point with Re z >= 10, or with Re z >= 0 and |Im z| >= 10, takes the
    series as it is (|z| >= 10 in the right half-plane).  Every other point
    is shifted by its own k = ceil(10 - Re z) to Re >= 10 and pays the k logs
    of log Gamma(z) = log Gamma(z + k) - sum_{j<k} log(z + j), so a value
    does not depend on its batch-mates."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    flat, re = z.reshape(-1), z.real.reshape(-1)
    k = np.where((re >= 10.0) | ((re >= 0.0) & (np.abs(flat.imag) >= 10.0)), 0.0, np.ceil(10.0 - re))
    shifted = np.flatnonzero(k)
    zk, kk = flat[shifted], k[shifted]
    ck, k_min = np.zeros(zk.shape, dtype=np.complex128), kk.min(initial=np.inf)
    for j in range(int(kk.max(initial=0.0))):
        log = np.log(zk + j)
        ck += log if j < k_min else np.where(kk > j, log, 0.0)  # below k_min every shifted point takes it
    corr = np.zeros(flat.shape, dtype=np.complex128)
    corr[shifted] = ck
    zs = flat + k
    inv2 = 1.0 / (zs * zs)
    acc = np.zeros(flat.shape, dtype=np.complex128)
    for c in _STIRLING_C[::-1]:
        acc = (acc + c) * inv2
    acc = acc * zs  # sum c_k / zs^(2k-1)
    return ((zs - 0.5) * np.log(zs) - zs + 0.5 * math.log(TWO_PI) + acc - corr).reshape(z.shape)


def _log_sinpi(w: np.ndarray) -> np.ndarray:
    """A branch of log sin(pi w), accurate next to every integer.

    Re w is reduced to w - n, n = round(Re w), which is exact (Sterbenz),
    and sin(pi w) = (-1)^n sin(pi (w - n)) adds i pi n; so the sine keeps
    its relative accuracy near each integer and is exactly 0 at one, where
    the log is -inf (the caller silences the divide warning) and exp gives
    0.  Above |Im pi w| = 20 the exponential forms keep the log finite.
    Only ever used under exp(), so the branch constant is irrelevant.
    """
    w = np.ascontiguousarray(w, dtype=np.complex128)
    n = np.round(w.real)
    z = math.pi * (w - n)
    im = z.imag
    return 1j * math.pi * n + _branches(
        z.shape, (np.abs(im) <= 20.0, lambda m: np.log(np.sin(z[m]))),
        (im > 20.0, lambda m: -1j * z[m] + np.log1p(-np.exp(2j * z[m]).real) - LN2 + 0.5j * math.pi),
        (im < -20.0, lambda m: 1j * z[m] + np.log1p(-np.exp(-2j * z[m]).real) - LN2 - 0.5j * math.pi))


def _reflection(q: int, s: np.ndarray, l_reflected: np.ndarray) -> np.ndarray:
    """L(s) from l_reflected = L(1 - s) by the functional equation of the L
    function of conductor q (q = 1 and a = 0 for zeta, a = 1 for the odd
    real characters; Davenport, Multiplicative Number Theory, ch. 9):

        L(s) = (2 pi/q)^s (sqrt q / pi) sin(pi (s + a)/2) Gamma(1 - s) L(1 - s),

    one log Gamma per point.  The sine comes from _log_sinpi, so a value
    next to a trivial zero keeps its relative accuracy and a trivial zero
    itself comes out exactly 0."""
    a = 0.0 if q == 1 else 1.0
    with np.errstate(divide="ignore"):
        log_sin = _log_sinpi(0.5 * (s + a))
    log_factor = (s * math.log(TWO_PI / q) + math.log(math.sqrt(q) / math.pi) + log_sin
                  + _stirling_lgamma(1.0 - s))
    return np.exp(log_factor) * l_reflected


def _em_terms(s: np.ndarray) -> int:
    # Bernoulli tail converges once the cutoff exceeds |s| / 2pi
    t_abs = np.abs(s.imag).max(initial=0.0)
    return int(0.75 * t_abs) + 4 * (_TARGET_DIGITS - 10) + 20


def _phi_expm1_over_x(x: np.ndarray) -> np.ndarray:
    """(e^x - 1)/x, complex-safe, series near 0."""
    x = np.asarray(x, dtype=np.complex128)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 + x / 2.0 + x * x / 6.0, np.expm1(safe) / safe)


def _em_hurwitz(s: np.ndarray, a: float, minus_pole: bool = False) -> np.ndarray:
    """Euler-Maclaurin sum for zeta(s, a); optionally with 1/(s-1) removed.

    The minus_pole variant stays finite (and exact) at s = 1, which is what
    the character sums in dirichlet_L need.
    """
    s = np.ascontiguousarray(s, dtype=np.complex128)
    N, m = _em_terms(s), _EM_ORDER
    direct = _power_sum(s, np.log(a + np.arange(N)), np.ones(N, dtype=np.complex128))
    P = N + a
    logP = math.log(P)
    Ppow = np.exp(-s * logP)  # P^-s
    if minus_pole:
        # P^(1-s)/(s-1) - 1/(s-1) = -logP * phi((1-s) logP)
        tail1 = -logP * _phi_expm1_over_x((1.0 - s) * logP)
    else:
        tail1 = Ppow * P / (s - 1.0)
    out = direct + tail1 + 0.5 * Ppow
    poch = s.copy()
    Pfac = Ppow / P  # P^(-s-1)
    P2 = 1.0 / (P * P)
    for k in range(1, m + 1):
        out = out + _EM_C[k - 1] * poch * Pfac
        if k < m:
            poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
            Pfac = Pfac * P2
    return out


def _eta_factor(s: np.ndarray) -> np.ndarray:
    """q = 1 - 2^(1-s), with zeta = eta / q; expm1 keeps accuracy near s = 1.
    Where |q| < _ETA_MIN (near s = 1 + 2 pi i k / ln 2) the eta route loses
    digits and zeta takes Euler-Maclaurin instead."""
    return -np.expm1((1.0 - s) * LN2)


def _zeta_right(s: np.ndarray) -> np.ndarray:
    """zeta for Re s > 0 (pole neighborhood of s = 1 gives a huge finite value).
    The eta route runs on the whole batch, so a render block reaches
    _power_sum as a whole grid; Euler-Maclaurin then overwrites the points
    where |q| < _ETA_MIN."""
    q = _eta_factor(s)
    bad = np.abs(q) < _ETA_MIN
    if bad.all():
        return _em_hurwitz(s, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _alt_weighted_sum(1, s) / q
    if bad.any():
        out[bad] = _em_hurwitz(s[bad], 1.0)
    return out


def _zeta_left(s: np.ndarray) -> np.ndarray:
    """zeta for Re s <= 0 by _reflection.  Near s = 0 the reflection takes
    zeta(1 - s) next to its pole at the rounded 1 - s, which costs about
    1e-16/|s| relative, so Euler-Maclaurin overwrites the points with
    |s| < _ZETA_EM_RADIUS; the reflection runs on the whole batch, so a
    render block reaches _power_sum as a whole grid."""
    near = np.abs(s) < _ZETA_EM_RADIUS
    if near.all():
        return _em_hurwitz(s, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # s = 0 meets the pole of zeta(1 - s)
        out = _reflection(1, s, _zeta_right(1.0 - s))
    if near.any():
        out[near] = _em_hurwitz(s[near], 1.0)
    return out


def _zeta_values(s: np.ndarray) -> np.ndarray:
    """Vector zeta without pole checks (s = 1 itself gives inf); the trivial
    zeros s = -2, -4, ... come out exactly 0."""
    s = np.ascontiguousarray(s, dtype=np.complex128)
    pos = s.real > 0.0
    return _branches(s.shape, (pos, lambda m: _zeta_right(s[m])), (~pos, lambda m: _zeta_left(s[m])))


def _log_gamma_factor(q: int, s: np.ndarray) -> np.ndarray:
    """G(s) = log Gamma((s + a)/2) - ((s + a)/2) log(pi/q), the log gamma factor
    that completes the L function of conductor q (q = 1 and a = 0 for zeta,
    a = 1 for odd characters): exp(G(s)) L(s) is symmetric under s -> 1 - s."""
    w = 0.5 * (s + (0.0 if q == 1 else 1.0))
    return _stirling_lgamma(w) - w * math.log(math.pi / q)


def _hurwitz_rational_left(s: np.ndarray, p: int, q: int) -> np.ndarray:
    """zeta(s, p/q) for Re s < 0 via the discrete reflection formula.

    zeta(1-u, p/q) = 2 Gamma(u) / (2 pi q)^u * sum_r cos(pi u/2 - 2 pi r p/q) zeta(u, r/q)
    with u = 1 - s, so every Hurwitz evaluation on the right is well conditioned.
    """
    s = np.ascontiguousarray(s, dtype=np.complex128)
    u = 1.0 - s
    acc = np.zeros(s.shape, dtype=np.complex128)
    for r in range(1, q + 1):
        phase = TWO_PI * r * p / q
        acc = acc + np.cos(0.5 * math.pi * u - phase) * _em_hurwitz(u, r / q)
    scale = np.exp(_stirling_lgamma(u) + LN2 - u * math.log(TWO_PI * q))
    return scale * acc


def _hurwitz_values(s: np.ndarray, a: float) -> np.ndarray:
    """Vector Hurwitz zeta for a in (0, 1], reflection used where it pays off."""
    s = np.ascontiguousarray(s, dtype=np.complex128)
    frac = Fraction(a).limit_denominator(64)
    rational = abs(a - float(frac)) <= 1e-12 and frac.numerator >= 1
    left = (s.real < 0.0) & rational
    # irrational offsets: direct Euler-Maclaurin everywhere (accuracy degrades
    # below Re s ~ -2 from cancellation; nothing in this package needs it)
    return _branches(s.shape,
                     (left, lambda m: _hurwitz_rational_left(s[m], frac.numerator, frac.denominator)),
                     (~left, lambda m: _em_hurwitz(s[m], a)))


def _dirichlet_direct(q: int, s: np.ndarray) -> np.ndarray:
    """q^-s sum_a chi(a) [zeta(s, a/q) - 1/(s-1)]; entire since sum chi = 0."""
    acc = np.zeros(s.shape, dtype=np.complex128)
    for a, chi in CHARACTER_TABLES[q].items():
        acc = acc + chi * _em_hurwitz(s, a / q, minus_pole=True)
    return np.exp(-s * math.log(q)) * acc


def _dirichlet_values(q: int, s: np.ndarray) -> np.ndarray:
    """Vector L_{-q}, entire: row q of _ALTERNATING for Re s > 0 (q = 4, 8),
    character sums of Hurwitz zeta for Re s >= 1/2 (q = 3, 7), _reflection
    below; the trivial zeros s = -1, -3, ... come out exactly 0."""
    s = np.ascontiguousarray(s, dtype=np.complex128)
    if q in _ALTERNATING:
        right, direct = s.real > 0.0, functools.partial(_alt_weighted_sum, q)
    else:
        right, direct = s.real >= 0.5, functools.partial(_dirichlet_direct, q)
    return _branches(s.shape, (right, lambda m: direct(s[m])),
                     (~right, lambda m: _reflection(q, s[m], direct(1.0 - s[m]))))


def _character_label(q) -> int:
    """q as a key of CHARACTER_TABLES; any other label, 8.0 included, raises."""
    if not isinstance(q, numbers.Integral) or q not in CHARACTER_TABLES:
        raise UnsupportedDiscriminant(
            f"no character table for discriminant label {q!r}; supported: 3, 4, 7, 8")
    return int(q)


def _near_nonpositive_integer(z: np.ndarray, tol: float = _POLE_TOL):
    zr = np.round(z.real)
    return (np.abs(z.real - zr) <= tol) & (np.abs(z.imag) <= tol) & (zr <= 0.0)


def _central_difference(f, x):
    """f'(x) for x a number or an array: the symmetric quotient
    (f(x + h) - f(x - h)) / 2h, h = _DIFF_STEP, from one call of f on the
    flat batch of x + h and x - h."""
    x = np.asarray(x)
    y = np.asarray(f(np.concatenate([x + _DIFF_STEP, x - _DIFF_STEP], axis=None))).reshape((2,) + x.shape)
    return (y[0] - y[1]) / (2.0 * _DIFF_STEP)


def log_gamma(s):
    """Principal-branch log of Gamma(s).

    Raises PoleOfGamma when s is within 1e-12 of a non-positive integer.
    """
    arr, scalar = _coerce(s)
    hit = _near_nonpositive_integer(arr)
    if np.any(hit):
        loc = complex(round(arr[hit][0].real))
        raise PoleOfGamma(f"log_gamma pole at s = {loc}", loc)
    return _release(_stirling_lgamma(arr), scalar)


def zeta(s):
    """Riemann zeta; accelerated eta series for Re s > 0, reflection below."""
    arr, scalar = _coerce(s)
    if np.any(np.abs(arr - 1.0) <= _POLE_TOL):
        raise PoleOfZeta("zeta pole at s = 1", 1.0 + 0.0j)
    return _release(_zeta_values(arr), scalar)


def hurwitz_zeta(s, a: float):
    """Hurwitz zeta(s, a) for offsets a in (0, 1]."""
    if (not isinstance(a, numbers.Real) or isinstance(a, bool)
            or not math.isfinite(a) or not 0.0 < a <= 1.0):
        raise DomainError("hurwitz_zeta offset a must be a real in (0, 1]")
    arr, scalar = _coerce(s)
    if np.any(np.abs(arr - 1.0) <= _POLE_TOL):
        raise PoleOfZeta("hurwitz_zeta pole at s = 1", 1.0 + 0.0j)
    return _release(_hurwitz_values(arr, float(a)), scalar)


def beta_L(s):
    """Dirichlet beta sum_{n>=0} (-1)^n (2n+1)^-s = dirichlet_L(4, s), entire in s."""
    arr, scalar = _coerce(s)
    return _release(_dirichlet_values(4, arr), scalar)


def dirichlet_L(q: int, s):
    """L_{-q}(s) for the real odd characters with q in {3, 4, 7, 8}; CVZ series
    L_-4 and L_-8 refuse |Im s| > _MAX_HEIGHT (DomainError), L_-3 and L_-7 do not."""
    q = _character_label(q)
    arr, scalar = _coerce(s)
    return _release(_dirichlet_values(q, arr), scalar)
