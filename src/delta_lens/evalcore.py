"""Special-function evaluation core: complex log-gamma, Riemann zeta,
Hurwitz zeta, the Dirichlet beta function, and real-character L functions
for discriminants -3, -4, -7, -8.

Every public operation accepts a Python complex (or float) or a numpy array
of them and returns the matching shape.  Series cutoffs are sized for
_TARGET_DIGITS = 14 significant digits and Euler-Maclaurin carries
_EM_ORDER = 12 Bernoulli corrections: the error is about 1e-13 absolute or
relative, whichever is larger, for |Im s| <= 200 (near |Im s| = 200 phase
rounding in the reflection factors caps it around 4e-13).

The characters are data: CHARACTER_TABLES, with zeta's principal character
mod 1 (_CHARACTERS), is the only hand-written character table.  Each
conductor's row of _ALTERNATING (_alternating_row), the parity of its
functional equation (_PARITY) and its Euler-Maclaurin threshold (_EM_MIN)
are read off it.

* zeta, beta_L and dirichlet_L: one evaluator, _l_values, for every row
  at one argument s and, for a quotient's denominator, at x = 2s - 1/2.
  Row q of _ALTERNATING is the accelerated alternating series (binomial
  weights, error ~ (3+sqrt 8)^-n) of (1 - chi(2) 2^(1-w)) L(w), w = s for
  Re s > 0 and 1 - conj(s) below, summed once over both branches and
  reflected through one functional equation, _reflection, with one log
  Gamma per point and argument shared by the rows; its sine, _log_sinpi,
  keeps values next to a trivial zero accurate and the trivial zeros
  exactly 0.  Euler-Maclaurin (_em_values) takes the points next to the
  zeros of the twist factor.
* hurwitz_zeta: Euler-Maclaurin with Bernoulli corrections; for Re s < 0
  with rational a = p/q the discrete reflection formula is used instead,
  because the direct sum loses digits to cancellation there.

The CVZ series refuse |Im| above _MAX_HEIGHT = 500 with DomainError (their
347-term cap loses digits above it), so zeta, L_-4 and L_-8 do; a
quotient's denominator zeta(2s - 1/2) sets its ceiling at |Im s| = 250.
L_-3 and L_-7 take Euler-Maclaurin above it, and from |Im s| = 200 to 1000
their error is within 2e-12 absolute or relative, whichever is larger.

Every Dirichlet series, the rows of an _l_values call at both its
arguments and the one term 2^-w of each twist factor 1 - chi(2) 2^(1-w),
is summed in one of two ways.  A render grid or an equally spaced line
scan takes one matrix product per series (_series_sum, _separable_sum).
Other batches take one table of m^-w per point over the distinct m of all
the series (_row_table, _table_sums): a row at s gathers its terms, and a
row at x reads m^-(2w - 1/2) as sqrt(m) (m^-w)^2 where s and x share a
reflection branch, so a quotient point pays one exp per distinct m for
both arguments.  The tracing kernel quotient._log_derivatives takes its
terms from the same table (_table_terms).
Piecewise definitions go through one branch helper, _branches, which
_l_values calls after its sums.  Products of _GRID_MIN_POINTS points or more
run on one BLAS thread (_one_blas_thread): threaded, numpy's bundled
OpenBLAS spins its workers between calls, which doubles CPU time, and
moves a value's last bits with the thread count.

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
_ETA_MIN = 0.05  # smallest |1 - 2^(1-s)| the eta row of zeta is divided by
_TWIST_MIN = 0.1  # the same for L_-3, L_-7: 3e-14 of row rounding near t = 200 over 0.1 is 3e-13
# below this many points the line and grid tests in _series_sum cost more
# than they can save (scalar probes, short refinement levels, secant pairs)
_GRID_MIN_POINTS = 16
# points per block of _table_sums: a block's exps and gathered terms for delta5 at t = 100 take
# 2.7 MB at 256 points; blocks of 1,024 ran a box polygon 1.6x slower and held 6 MB more
_TABLE_BLOCK = 256
# largest |Im| of a CVZ series: the 347-term cap is off 1e-10 at 550, 4e-6 at 600
_MAX_HEIGHT = 500.0


# every L function evalcore sums, by conductor q; zeta's character is the
# principal one mod 1, chi(0) = 1, which holds for no other q
_CHARACTERS = {1: {0: 1}, **CHARACTER_TABLES}
# per q: the parity a of its functional equation, chi(-1) = (-1)^a, and the
# smallest |1 - chi(2) 2^(1-w)| its row is divided by, Euler-Maclaurin below it
_PARITY = {q: (1 - chars[q - 1]) / 2 for q, chars in _CHARACTERS.items()}
_EM_MIN = {q: _ETA_MIN if 0 in chars else _TWIST_MIN for q, chars in _CHARACTERS.items()}


def _alternating_row(q: int) -> tuple:
    """Row (step, offsets, signs, chi(2)) of the character chi mod q: the series
    sum_k (-1)^k sum_r eps_r (step k + r)^-s = (1 - chi(2) 2^(1-s)) L(s), L zeta
    (q = 1) or L_-q.  For odd q, n = q k + r turns sum_n (-1)^(n+1) chi(n) n^-s
    into it, eps_r = (-1)^(r+1) chi(r).  For even q (4, 8) chi(2) = 0, so no twist
    factor, and chi(n + q/2) = -chi(n): L alternates in q/2 blocks, eps_r = chi(r)."""
    chi = [_CHARACTERS[q].get(n % q, 0) for n in range(q + 1)]  # chi(0), ..., chi(q)
    chi2 = chi[2 % q]
    step = q if chi2 else q // 2
    offsets = tuple(r for r in range(1, step + 1) if chi[r])
    return step, offsets, tuple((-1) ** (r + 1) * chi[r] if chi2 else chi[r] for r in offsets), chi2


_ALTERNATING = {q: _alternating_row(q) for q in _CHARACTERS}
# a twist factor 1 - chi(2) 2^(1-w) is 1 - 2 chi(2) 2^-w: its one log and, per q, its weight
_TWIST_LOGS = np.array([LN2])
_TWIST_WEIGHTS = {q: np.array([2.0 * row[3]], dtype=np.complex128) for q, row in _ALTERNATING.items() if row[3]}
# the twisted odd rows, L_-3 and L_-7, which take Euler-Maclaurin above _MAX_HEIGHT in a call of their own
_EM_ABOVE = frozenset(q for q in _TWIST_WEIGHTS if 0 not in _CHARACTERS[q])


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


@functools.cache
def _alt_series(q: int, n: int):
    """(logs, weights) of the first n blocks of row q of _ALTERNATING: each
    log(step k + r), k < n, and the binomial acceleration weight w_k = c_k / d
    times the sign eps_r of each offset r, cached as complex128 so the power
    sum takes them without a cast."""
    r = 3.0 + math.sqrt(8.0)
    d = (r ** n + r ** (-n)) / 2.0
    b = -1.0
    c = -d
    w = np.empty(n)
    for k in range(n):
        c = b - c
        w[k] = c / d
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    step, offsets, signs, _ = _ALTERNATING[q]
    logs = np.log(np.add.outer(step * np.arange(n, dtype=np.float64), offsets).ravel())
    return logs, np.multiply.outer(w, signs).ravel().astype(np.complex128)


def _cvz_count(t_abs: float, sigma_min: float) -> int:
    # CVZ terms for arguments up to |Im| = t_abs and down to Re = sigma_min: the
    # weight ratio c_k/d stops decreasing past k ~ n, so large heights need
    # n ~ pi |t| / (2 ln(3+sqrt8)); small sigma inflates the constant a bit
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
    exp(-r logs_k) w_k and exp(-i c logs_k).  With real rows and real weights
    the left factor is real, and the product is one real product with the
    right factor's (re, im) pairs as 2C real columns."""
    a = np.exp(-np.multiply.outer(rows, logs))
    if np.isrealobj(a) and not w.imag.any():
        b = np.exp(-1j * np.multiply.outer(logs, cols))
        return (a * w.real @ b.view(np.float64)).view(np.complex128)
    return a * w @ np.exp(-1j * np.multiply.outer(cols, logs)).T


def _line_layout(sigma: float, t: np.ndarray):
    """Line rule of _series_sum for the points sigma + i t_j: (rows, cols, on)
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
    """Grid rule of _series_sum: W when the points re + i im are a row-major
    grid, each row of W points repeating the real parts re[:W] at one
    imaginary part (W is the first index where Im changes, or N for a
    single row); 0 otherwise.  O(N), no sort."""
    n = re.size
    w = int(np.argmax(im != im[0])) or n
    grid = (n % w == 0 and (re.reshape(-1, w) == re[:w]).all()
            and (im.reshape(-1, w) == im[::w, None]).all())
    return w if grid else 0


def _series(qs: tuple, n: int):
    """(logs, weights) of each row of qs over n blocks (_alt_series), each
    followed by its twist term 2^-w, weight 2 chi(2), if it has one."""
    for q in qs:
        yield _alt_series(q, n)
        if q in _TWIST_WEIGHTS:
            yield _TWIST_LOGS, _TWIST_WEIGHTS[q]


@functools.lru_cache(maxsize=64)
def _row_table(qs: tuple, n: int, qx: tuple = (), nx: int = 0) -> tuple:
    """The power table of the series of the rows qs over n blocks and of the
    rows qx over nx blocks, taken at 2w - 1/2 (_series): (logs, gather, cut,
    series).  logs are the distinct logs of all their terms.  gather lists,
    for every series in turn, the columns of logs of its terms (None for one
    series, whose terms are logs), and the series of qx start at column cut
    of the gathered terms.  series holds per series (span, logs, weights,
    table weights): span selects its gathered terms; a series of qx reads
    its terms m^-(2w - 1/2) as sqrt(m) (m^-w)^2, so its table weights are its
    weights times sqrt(m), m = e^logs; a series of qs keeps its weights."""
    at_s = [*_series(qs, n)]
    raw = at_s + [*_series(qx, nx)]
    ends = np.cumsum([lg.size for lg, _ in raw]).tolist()
    series = tuple((slice(end - lg.size, end), lg, w, w * np.sqrt(np.rint(np.exp(lg))) if i >= len(at_s) else w)
                   for i, (end, (lg, w)) in enumerate(zip(ends, raw)))
    if len(raw) == 1:
        return raw[0][0], None, ends[0], series
    every = np.concatenate([lg for lg, _ in raw])
    logs = np.sort(every)
    logs = logs[np.append(True, logs[1:] != logs[:-1])]  # not np.unique, whose first call adds 1.7 MB of RSS
    return logs, np.searchsorted(logs, every), ends[len(at_s) - 1], series


def _table_terms(s: np.ndarray, table: tuple) -> tuple:
    """(terms, sums) of a table (_row_table) at the flat points s: one
    exp(-s logs) per point and distinct log, every series' terms gathered
    in turn (np.take keeps them C-ordered, as a row's own exps are), those
    of the series at x squared in place, and each series' sum, its terms
    times its table weights.  Each product spans all the points, as a
    row's own sum does: numpy takes one point's product as a dot product,
    whose bits differ from a matrix-vector product's.  The tracing kernel
    quotient._log_derivatives takes its derivatives from the same terms."""
    logs, gather, cut, series = table
    terms = np.exp(np.multiply.outer(-s, logs))
    if gather is not None:
        terms = np.take(terms, gather, axis=1)
    np.square(terms[:, cut:], out=terms[:, cut:])
    with _one_blas_thread(s.size):
        return terms, [terms[:, span] @ tw for span, _, _, tw in series]


def _table_sums(w: np.ndarray, table: tuple, x=None, tied=None) -> list:
    """The sums of a table's series at the points w, one array each, in
    blocks of at most _TABLE_BLOCK points (_table_terms).  Where a table has
    series at x and tied is False (w and x on different reflection
    branches), those series take their own exps at x instead; a lone such
    point of a larger block is summed as two rows, so its product is a
    matrix-vector product as in a block of its own argument."""
    flat = w.reshape(-1)
    if flat.size > _TABLE_BLOCK:
        xf, tf = (None, None) if x is None else (x.reshape(-1), tied.reshape(-1))
        parts = [_table_sums(flat[c], table, None if xf is None else xf[c], None if tf is None else tf[c])
                 for c in np.array_split(np.arange(flat.size), -(-flat.size // _TABLE_BLOCK))]
        return [np.concatenate(p).reshape(w.shape) for p in zip(*parts)]
    sums = _table_terms(flat, table)[1]
    if tied is not None and not tied.all():
        apart = np.flatnonzero(~tied.reshape(-1))
        xs = x.reshape(-1)[apart if apart.size > 1 or flat.size == 1 else apart.repeat(2)]
        for (span, lg, wt, _), v in zip(table[3], sums):
            if span.start >= table[2]:
                v[apart] = (np.exp(np.multiply.outer(-xs, lg)) @ wt)[:apart.size]
    return [v.reshape(w.shape) for v in sums]


def _separable_layout(flat: np.ndarray):
    """The rule of _series_sum that sums the flat points as separable
    products: the (rows, cols, on) of the line rule, the width of the grid
    rule, or None for points no rule covers."""
    if flat.size < _GRID_MIN_POINTS:
        return None
    re = flat.real
    if np.all(re == re[0]):
        layout = _line_layout(re[0], flat.imag)
        return layout if np.count_nonzero(layout[2]) >= _GRID_MIN_POINTS else None
    return _grid_width(re, flat.imag) or None


def _series_sum(w: np.ndarray, logs: np.ndarray, c: np.ndarray, layout) -> np.ndarray:
    """The power sum sum_k c_k exp(-w logs_k) of one series at the points w,
    with the layout of w (_separable_layout).

    Two rules factor the term as exp(-a logs_k) c_k * exp(-i b logs_k) and
    sum a whole batch as one (A x n) @ (n x B) product, _separable_sum: the
    line rule for points on one vertical line with equally spaced
    ordinates, as in a critical-line scan (_line_layout), and the grid rule
    for a complete row-major sigma x t grid, as render blocks and their
    reflection branches' column masks are laid out (_grid_width; a is sigma,
    b is t, the W x H product transposed back).  Points no rule covers (a
    scan's clipped last ordinate, a batch without a layout) take a table of
    the series' own terms per point (_table_sums).  Every product from
    _GRID_MIN_POINTS points on runs on one BLAS thread, so a value has the
    same bits whatever thread count the process's BLAS is set to.
    """
    if layout is None:
        return _table_sums(w, (logs, None, logs.size, ((slice(None), logs, c, c),)))[0]
    flat = w.reshape(-1)
    with _one_blas_thread(flat.size):
        if isinstance(layout, int):
            return _separable_sum(flat.real[:layout], flat.imag[::layout], logs, c).T.reshape(w.shape)
        rows, cols, on = layout
        v = np.empty(flat.shape, dtype=np.complex128)
        v[on] = _separable_sum(rows, cols, logs, c).reshape(-1)[:flat.size][on]
        v[~on] = _series_sum(flat[~on], logs, c, None)
    return v.reshape(w.shape)


def _power_sum(s: np.ndarray, logs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k w_k exp(-s logs_k), _series_sum with the layout read off s."""
    s = np.ascontiguousarray(s, dtype=np.complex128)
    return _series_sum(s, logs, w, _separable_layout(s.reshape(-1)))


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


def _reflection(q: int, s: np.ndarray, l_reflected: np.ndarray, lgamma: np.ndarray) -> np.ndarray:
    """L(s) from l_reflected = L(1 - s) and lgamma = log Gamma(1 - s) by the
    functional equation of the L function of conductor q, a = _PARITY[q]
    (Davenport, Multiplicative Number Theory, ch. 9):

        L(s) = (2 pi/q)^s (sqrt q / pi) sin(pi (s + a)/2) Gamma(1 - s) L(1 - s).

    The caller takes log Gamma(1 - s) once for every row it reflects at s.
    The sine comes from _log_sinpi, so a value next to a trivial zero keeps
    its relative accuracy and a trivial zero itself comes out exactly 0."""
    with np.errstate(divide="ignore"):
        log_sin = _log_sinpi(0.5 * (s + _PARITY[q]))
    log_factor = s * math.log(TWO_PI / q) + math.log(math.sqrt(q) / math.pi) + log_sin + lgamma
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


def _em_hurwitz(s: np.ndarray, offsets, weights=(1.0,)) -> np.ndarray:
    """sum_i w_i zeta(s, a_i) by Euler-Maclaurin, one cutoff N for every
    offset a_i and one shared tail.

    Each offset keeps its own direct power sum over a_i + k, k < N.  The
    tail is read from E_i = P_i^-s, P_i = N + a_i, once per offset: the
    pole term sum_i w_i P_i E_i / (s - 1), half the boundary term, and each
    Bernoulli column sum_i w_i P_i^(1-2k) E_i as one (points x offsets)
    product, summed by one Horner pass over the Pochhammer factors
    (s + 2k - 1)(s + 2k) (_em_tail).  Where the weights sum to 0 (a
    character sum, which is entire) and |s - 1| < 0.5, the pole term takes
    the form sum_i w_i (P_i^(1-s) - 1)/(s - 1), exact at s = 1; the shared
    form would lose about 4e-15/|s - 1| to cancellation there.
    """
    s = np.ascontiguousarray(s, dtype=np.complex128)
    a, w = np.asarray(offsets, dtype=np.float64), np.asarray(weights, dtype=np.float64)
    n = _em_terms(s)
    ones = np.ones(n, dtype=np.complex128)
    out = np.zeros(s.shape, dtype=np.complex128)
    for logs, wi in zip(np.log(np.add.outer(a, np.arange(n))), w):
        out += wi * _power_sum(s, logs, ones)
    with _one_blas_thread(s.size):
        out += _em_tail(s.reshape(-1), n + a, w).reshape(s.shape)
    return out


def _em_tail(s: np.ndarray, P: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The shared tail of _em_hurwitz at the flat points s, for the cutoffs
    P_i = N + a_i and the weights w_i."""
    logP = np.log(P)
    E = np.exp(np.multiply.outer(-s, logP))  # P_i^-s
    near = (w.sum() == 0.0) & (np.abs(s - 1.0) < 0.5)

    def pole_minus_one(m):
        # sum_i w_i (P_i^(1-s) - 1)/(s - 1), each term -log P_i phi((1 - s) log P_i)
        return _phi_expm1_over_x(np.multiply.outer(1.0 - s[m], logP)) @ (-logP * w)

    with np.errstate(divide="ignore", invalid="ignore"):  # s = 1, which pole_minus_one takes
        out = _branches(s.shape, (near, pole_minus_one), (~near, lambda m: (E[m] @ (w * P)) / (s[m] - 1.0)))
    out += E @ (0.5 * w)
    # row k - 1: w_i P_i^(1-2k) B_2k / (2k)!, the weights of Bernoulli column k
    order = np.arange(1, _EM_ORDER + 1)
    cols = _EM_C[:_EM_ORDER, None] * w * P ** (1.0 - 2.0 * order[:, None])
    acc = E @ cols[-1]
    for k in range(_EM_ORDER - 1, 0, -1):
        acc *= (s + (2 * k - 1)) * (s + 2 * k)
        acc += E @ cols[k - 1]
    out += s * acc
    return out


def _log_gamma_factor(q: int, s: np.ndarray) -> np.ndarray:
    """G(s) = log Gamma((s + a)/2) - ((s + a)/2) log(pi/q), the log gamma factor
    that completes the L function of conductor q, a = _PARITY[q]: exp(G(s)) L(s)
    is symmetric under s -> 1 - s."""
    w = 0.5 * (s + _PARITY[q])
    return _stirling_lgamma(w) - w * math.log(math.pi / q)


def _hurwitz_rational_left(s: np.ndarray, p: int, d: int) -> np.ndarray:
    """zeta(s, p/d) for Re s < 0 via the discrete reflection formula.

    zeta(1-u, p/d) = 2 Gamma(u) / (2 pi d)^u * sum_r cos(pi u/2 - phi_r) zeta(u, r/d),
    phi_r = 2 pi r p/d, u = 1 - s, so every Hurwitz evaluation on the right is well
    conditioned; cos(pi u/2) cos phi_r + sin(pi u/2) sin phi_r makes the sum two
    weighted _em_hurwitz calls, one for d <= 2, where every sin phi_r is 0.
    """
    s = np.ascontiguousarray(s, dtype=np.complex128)
    u = 1.0 - s
    offsets = [r / d for r in range(1, d + 1)]
    phases = [TWO_PI * r * p / d for r in range(1, d + 1)]
    acc = np.cos(0.5 * math.pi * u) * _em_hurwitz(u, offsets, [math.cos(phi) for phi in phases])
    if d > 2:
        acc += np.sin(0.5 * math.pi * u) * _em_hurwitz(u, offsets, [math.sin(phi) for phi in phases])
    scale = np.exp(_stirling_lgamma(u) + LN2 - u * math.log(TWO_PI * d))
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
                     (~left, lambda m: _em_hurwitz(s[m], (a,))))


def _em_values(q: int, s: np.ndarray, lgamma: np.ndarray) -> np.ndarray:
    """zeta (q = 1) or L_-q by Euler-Maclaurin: zeta at s, whose reflection
    would meet the pole of zeta(1 - s) at s = 0; L_-q as the character sum
    q^-w sum_a chi(a) zeta(w, a/q), entire since sum chi = 0, at w = s or,
    for Re s <= 0, where its direct sum loses digits, at 1 - s, reflected
    with lgamma = log Gamma(1 - s) at those points."""
    if 0 in _CHARACTERS[q]:  # zeta's
        return _em_hurwitz(s, (1.0,))
    chars = CHARACTER_TABLES[q]
    right = s.real > 0.0
    w = np.where(right, s, 1.0 - s)
    v = np.exp(-w * math.log(q)) * _em_hurwitz(w, [a / q for a in chars], list(chars.values()))
    return _branches(s.shape, (right, lambda m: v[m]), (~right, lambda m: _reflection(q, s[m], v[m], lgamma[m])))


def _cvz_row(q: int, s: np.ndarray, a: np.ndarray, twist, right: np.ndarray, lgamma: np.ndarray) -> np.ndarray:
    """Row q of _ALTERNATING at the points s of _l_values from its power sum
    a at their arguments w and, for a twisted row, the power sum twist of
    its twist term, with their branch mask right and log Gamma(1 - s).  The
    twist factor f = 1 - twist = 1 - chi(2) 2^(1-w) has its zeros on Re w =
    1: at 1 + 2 pi i k / ln 2 for chi(2) = 1 (q = 1, 7), at 1 + (2k + 1)
    pi i / ln 2 for chi(2) = -1 (q = 3); no row is read off a factor below
    _EM_MIN[q], where f would cancel."""
    with np.errstate(divide="ignore", invalid="ignore"):  # f = 0 at s = 0, 1, ...
        if twist is not None:
            f = 1.0 - twist
            a = a / f
        out = _branches(s.shape, (right, lambda m: a[m]),
                        (~right, lambda m: _reflection(q, s[m], a[m].conj(), lgamma[m])))
        if twist is not None:
            em = np.abs(f) < _EM_MIN[q]
            if em.any():
                k = np.where(em, np.round(np.abs(s.imag) * (LN2 / math.pi)), -1.0)  # the zero of f nearby
                for zero in set(k[em].tolist()):  # not np.unique, whose first call adds 1.7 MB of RSS
                    out[k == zero] = _em_values(q, s[k == zero], lgamma[k == zero])
    return out


def _cvz_rows(qs, s: np.ndarray, sums, right: np.ndarray, lgamma: np.ndarray) -> list:
    """_cvz_row of each row of qs at the points s from the power sums of its
    series (_series), taken in turn from the iterable sums."""
    sums = iter(sums)
    return [_cvz_row(q, s, next(sums), next(sums) if q in _TWIST_WEIGHTS else None, right, lgamma) for q in qs]


def _branch(s: np.ndarray) -> tuple:
    """(right, w, lgamma) of the points s: the branch mask Re s > 0, the
    argument w = s there and 1 - conj(s) elsewhere (Im w = Im s, so a grid
    stays one grid), and log Gamma(1 - s) at the reflected points, 0 at the
    others."""
    right = s.real > 0.0
    lgamma = np.zeros(s.shape, dtype=np.complex128)
    if not right.all():
        lgamma[~right] = _stirling_lgamma(1.0 - s[~right])
    return right, np.where(right, s, 1.0 - s.conj()), lgamma


def _l_values(qs, s: np.ndarray, qx=()) -> list:
    """Vector zeta (q = 1) or L_-q for each q of qs at s, then for each q of
    qx at x = 2s - 1/2: one array per row, without pole checks (zeta at
    s = 1 gives inf); the trivial zeros come out exactly 0.

    The rows at one argument share its branch data (_branch) and its term
    count, read off the batch's largest |Im w| and smallest Re w, so one
    count covers both branches (a reflected point's count follows its
    right-branch batch-mates).  The layout of the arguments w at s
    (_separable_layout) is read once.  A grid or a line scan, whose
    arguments at x are one too, sums its rows and twist terms (_series) as
    separable products (_series_sum) and forms them before it takes the
    rows at x the same way, so a render block holds one argument's arrays
    at a time.  Other batches sum every series of both arguments from one
    power table (_row_table) at w (_table_sums).
    Where s and x share a branch (Re s > 1/4, or Re s <= 0), the argument of
    x is 2w - 1/2, so a row at x reads its terms m^-(2w - 1/2) as
    sqrt(m) (m^-w)^2 from the table at w: one exp per distinct m for both
    arguments.  Points with 0 < Re s <= 1/4 sum x's rows from their own
    exps.  Each row is divided by
    its twist factor if it has one, and conjugated to L(1 - s) and
    reflected below (_cvz_row).  _em_values overwrites |f(w)| < _EM_MIN[q],
    one call per zero of f with a cutoff sized for its height (zeta's
    direct sum on Re s <= 0 loses digits as the cutoff grows: 3e-13 below
    t = 100 with the cutoff for t = 500), and, in a call of L_-3 and L_-7
    rows at s alone, takes the points above _MAX_HEIGHT, where the series
    refuse."""
    s = np.ascontiguousarray(s, dtype=np.complex128)
    if not qx and _EM_ABOVE.issuperset(qs) and (above := np.abs(s.imag) > _MAX_HEIGHT).any():
        lgamma = _branch(s[above])[2]
        rows = []
        for q, values in zip(qs, _l_values(qs, s[~above])):
            row = np.empty(s.shape, dtype=np.complex128)
            row[above] = _em_values(q, s[above], lgamma)
            row[~above] = values
            rows.append(row)
        return rows
    right, w, lgamma = _branch(s)
    n = _cvz_count(np.abs(w.imag).max(initial=0.0), w.real.min(initial=math.inf))
    layout = _separable_layout(w.reshape(-1))
    if layout is not None:  # a grid or a line scan, and so are its arguments at x: each argument in turn
        rows = _cvz_rows(qs, s, (_series_sum(w, lg, c, layout) for lg, c in _series(qs, n)), right, lgamma)
        del right, w, lgamma  # freed before the rows at x are taken, as in a call of their own
        return rows + (_l_values(qx, 2.0 * s - 0.5) if qx else [])
    if not qx:
        return _cvz_rows(qs, s, _table_sums(w, _row_table(tuple(qs), n)), right, lgamma)
    x = 2.0 * s - 0.5
    right_x, w_x, lgamma_x = _branch(x)
    nx = _cvz_count(np.abs(w_x.imag).max(initial=0.0), w_x.real.min(initial=math.inf))
    sums = iter(_table_sums(w, _row_table(tuple(qs), n, tuple(qx), nx), w_x, right == right_x))
    return _cvz_rows(qs, s, sums, right, lgamma) + _cvz_rows(qx, x, sums, right_x, lgamma_x)


def _character_label(q) -> int:
    """q as a key of CHARACTER_TABLES; any other label, 8.0 included, raises."""
    if not isinstance(q, numbers.Integral) or q not in CHARACTER_TABLES:
        raise UnsupportedDiscriminant(
            f"no character table for discriminant label {q!r}; supported: {', '.join(map(str, CHARACTER_TABLES))}")
    return int(q)


def _near_nonpositive_integer(z: np.ndarray):
    zr = np.round(z.real)
    return (np.abs(z.real - zr) <= _POLE_TOL) & (np.abs(z.imag) <= _POLE_TOL) & (zr <= 0.0)


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
    return _release(_l_values((1,), arr)[0], scalar)


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
    return _release(_l_values((4,), arr)[0], scalar)


def dirichlet_L(q: int, s):
    """L_{-q}(s) for the real odd characters with q in {3, 4, 7, 8}; CVZ series
    L_-4 and L_-8 refuse |Im s| > _MAX_HEIGHT (DomainError), L_-3 and L_-7 do not."""
    q = _character_label(q)
    arr, scalar = _coerce(s)
    return _release(_l_values((q,), arr)[0], scalar)
