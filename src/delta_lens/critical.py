"""Critical-line zero/pole location for the quotient, via sign changes of
completed (real-on-the-line) versions of zeta and beta, plus the residues
and slopes of the quotient at its real-axis poles and zeros.

The completed functions are

    completed_zeta(s) = pi^(-s/2) Gamma(s/2) zeta(s)
    completed_beta(s) = (pi/4)^(-(s+1)/2) Gamma((s+1)/2) beta(s)

both symmetric under s -> 1-s and real on Re s = 1/2, which makes sign
changes bracket their zeros robustly where raw modulus minima would not.
Each bracket is refined from the scan's own values by bracket-keeping secant
pairs to a half width of 2.5e-10.  Zeros found this way are recorded with
multiplicity 1 and a derivative guard asserts the zero really is simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    NotAPole,
    NotAZero,
    PoleOfCompletedZeta,
    StepTooCoarse,
    UnexpectedCoincidence,
)
from .evalcore import (
    _POLE_TOL,
    _central_difference,
    _coerce,
    _l_values,
    _log_gamma_factor,
    _release,
    beta_L,
    zeta,
)

_KINDS = ("zero", "pole")
# one row per catalogued function, keyed by catalog name: conductor q (keys
# _l_values, the gamma factor and the zero-count main term) and entry source;
# every list of catalogued functions (find_zeros, census, the CLI) reads it
_CATALOGUED = {"zeta": (1, "zeta_zero"), "beta": (4, "beta_zero")}
_SOURCES = (*(entry for _, entry in _CATALOGUED.values()), "half_zeta_zero")

# real-axis features of the quotient: simple poles and first-order zeros
POLE_SIGMAS = (1.0, -0.75, -1.75, -2.75, -3.75, -4.75)
ZERO_SIGMAS = (0.75, -1.0, -2.0, -3.0, -4.0)


@dataclass(frozen=True)
class CriticalPoint:
    """A zero or pole of the quotient on the critical line, at ordinate t."""

    t: float
    kind: str
    source: str
    multiplicity: int = 1
    refined_to: float = 1e-9

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}")
        if self.source not in _SOURCES:
            raise DomainError(f"source must be one of {_SOURCES}")
        if (self.kind == "pole") != (self.source == "half_zeta_zero"):
            raise DomainError("poles come from half_zeta_zero and only from it")
        if not self.t > 0:
            raise DomainError("ordinate t must be positive")
        m = self.multiplicity
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise DomainError("multiplicity must be a positive integer")
        if not 0.0 < self.refined_to <= 1e-6:
            raise DomainError("refined_to must lie in (0, 1e-6]")


@dataclass(frozen=True)
class RealAxisFeature:
    """A real-axis pole (with residue) or zero (with slope) of the quotient."""

    sigma: float
    kind: str
    coefficient: float

    def __post_init__(self):
        if self.kind == "pole":
            allowed = POLE_SIGMAS
        elif self.kind == "zero":
            allowed = ZERO_SIGMAS
        else:
            raise DomainError(f"kind must be one of {_KINDS}")
        if not min(abs(self.sigma - a) for a in allowed) <= 1e-9:  # NaN fails too
            raise DomainError(f"sigma {self.sigma} is not a catalogued real-axis {self.kind}")
        if not math.isfinite(self.coefficient):
            raise DomainError(f"coefficient {self.coefficient} is not finite")


def _completed_values(source: str, s: np.ndarray) -> np.ndarray:
    q, _ = _CATALOGUED[source]
    s = np.ascontiguousarray(s, dtype=np.complex128)
    s = np.where(s.real < 0.5, 1.0 - s, s)  # use the symmetric half-plane
    return np.exp(_log_gamma_factor(q, s)) * _l_values(q, s)


def completed_zeta(s):
    """pi^(-s/2) Gamma(s/2) zeta(s): real on the critical line, symmetric
    under s -> 1-s.  Raises PoleOfCompletedZeta at s = 0 and s = 1."""
    arr, scalar = _coerce(s)
    for pole in (0.0, 1.0):
        if np.any(np.abs(arr - pole) <= _POLE_TOL):
            raise PoleOfCompletedZeta(f"completed zeta pole at s = {pole}", complex(pole))
    return _release(_completed_values("zeta", arr), scalar)


def completed_beta(s):
    """(pi/4)^(-(s+1)/2) Gamma((s+1)/2) beta(s): entire, real on the critical
    line, symmetric under s -> 1-s."""
    arr, scalar = _coerce(s)
    return _release(_completed_values("beta", arr), scalar)


def _line_values(source: str, ts: np.ndarray) -> np.ndarray:
    # completed function on the critical line, rescaled by the positive factor
    # exp(-Re G), G the log gamma factor, so values stay O(1) instead of
    # decaying like exp(-pi t / 4); zeros and signs are unchanged and the
    # derivative guard threshold stays meaningful at large t
    q, _ = _CATALOGUED[source]
    s = 0.5 + 1j * np.asarray(ts, dtype=np.float64)
    return (np.exp(1j * _log_gamma_factor(q, s).imag) * _l_values(q, s)).real


# points of one sign-change scan, refused before its ordinates are allocated
_MAX_SCAN_POINTS = 1_000_001
# half width of a secant pair, and so of every final sign-change bracket
_PAIR_HALF = 2.5e-10


def _secant_pairs(f, a, b, fa, fb):
    """Roots of f, one in each bracket [a, b] whose end values fa, fb differ
    in sign, and the half widths of their final sign-change brackets.  Each
    round makes one call of f for every live bracket: the secant point m,
    clipped to [a + d, b - d] (d = _PAIR_HALF), is evaluated at m - d and
    m + d.  A pair whose signs differ, or that holds a 0, ends its bracket at
    m with half width d; otherwise the bracket shrinks to the side of the
    pair that keeps the sign change.  An end kept twice running has its
    stored value halved (the Illinois rule of Dowell and Jarratt, BIT 11,
    1971).  A round that halves neither the bracket nor |f| at the end it
    moves makes the next round take the midpoint, so regula falsi's
    one-sided stall cannot last.  A bracket narrowed to 2d ends at its
    midpoint."""
    d = _PAIR_HALF
    roots, halves = 0.5 * (a + b), 0.5 * (b - a)
    idx = np.flatnonzero(b - a > 2.0 * d)
    a, b, fa, fb = a[idx], b[idx], fa[idx], fb[idx]
    moved = np.zeros(idx.size)  # +1 where a moved last round, -1 where b did
    midpoint = np.zeros(idx.size, dtype=bool)
    while idx.size:
        m = np.where(midpoint, 0.5 * (a + b), a - fa * (b - a) / (fb - fa))
        m = np.clip(m, a + d, b - d)
        below, above = np.split(f(np.concatenate([m - d, m + d])), 2)
        done = np.sign(below) * np.sign(above) <= 0.0
        roots[idx[done]], halves[idx[done]] = m[done], d
        up = np.sign(below) == np.sign(fa)  # the sign change lies above the pair
        width = b - a
        gained = np.abs(np.where(up, above, below)) <= 0.5 * np.abs(np.where(up, fa, fb))
        fa = np.where(up, above, np.where(moved < 0.0, 0.5 * fa, fa))
        fb = np.where(up, np.where(moved > 0.0, 0.5 * fb, fb), below)
        a, b = np.where(up, m + d, a), np.where(up, b, m - d)
        moved, midpoint = np.where(up, 1.0, -1.0), (b - a > 0.5 * width) & ~gained
        narrow = ~done & ~(b - a > 2.0 * d)
        roots[idx[narrow]], halves[idx[narrow]] = 0.5 * (a + b)[narrow], 0.5 * (b - a)[narrow]
        live = ~done & ~narrow
        idx, a, b, fa, fb, moved, midpoint = (x[live] for x in (idx, a, b, fa, fb, moved, midpoint))
    return roots, halves


def _sign_change_roots(f, t_lo: float, t_hi: float, scan_step: float):
    """Simple zeros of the real function f (array in, array out) on
    [t_lo, t_hi], as ascending arrays of the roots and of the half widths of
    their final brackets.  Opposite signs of neighbours on a scan of step
    scan_step, clipped at t_hi, bracket them (a product of neighbours could
    underflow), and a scan point where f is exactly 0 is a root of half
    width 0; a bracket hiding two more crossings raises StepTooCoarse.
    The scan's end values and the 7 interior values of that check narrow
    each bracket to the eighth that holds its sign change, and secant pairs
    (_secant_pairs) refine every bracket to half width _PAIR_HALF; |f'| <=
    1e-8 at a root raises UnexpectedCoincidence, so f must be O(1) near its
    zeros.  Needs scan_step in (0, 0.05] and at most _MAX_SCAN_POINTS scan
    points."""
    if not 0.0 < scan_step <= 0.05:
        raise DomainError("scan_step must lie in (0, 0.05]")
    if (t_hi - t_lo) / scan_step > _MAX_SCAN_POINTS - 1:
        raise DomainError(f"scan_step={scan_step:g} over [{t_lo:g}, {t_hi:g}] needs more than "
                          f"{_MAX_SCAN_POINTS} scan points")
    n = int(math.ceil((t_hi - t_lo) / scan_step))
    ts = t_lo + scan_step * np.arange(n + 1)
    ts[-1] = t_hi
    values = f(ts)
    signs = np.sign(values)
    # a crossing brackets [t_i, t_i+1], a 0 on the scan the one point [t_i, t_i]
    cross = np.append(signs[:-1] * signs[1:] < 0.0, False)
    start = np.flatnonzero(cross | (values == 0.0))
    end = start + cross[start]
    lo, hi = ts[start], ts[end]
    if not lo.size:
        return lo, hi  # both empty
    # a bracket hiding two extra crossings would refine onto the wrong root;
    # its 7 interior points are evaluated, its ends reuse the scan's values
    sub = lo[:, None] + (hi - lo)[:, None] * (np.arange(1, 8) / 8.0)[None, :]
    grid = np.column_stack([lo, sub, hi])
    fs = np.column_stack([values[start], f(sub.reshape(-1)).reshape(sub.shape), values[end]])
    ss = np.sign(fs)
    changes = np.sum(ss[:, :-1] * ss[:, 1:] < 0.0, axis=1)
    if np.any(changes > 1):
        bad = float(lo[np.argmax(changes > 1)])
        raise StepTooCoarse(
            f"{int(changes.max())} sign changes inside one scan step near t = {bad:.6f}")
    # the first eighth whose end signs differ or hold a 0 keeps the crossing
    j = np.argmax(ss[:, :-1] * ss[:, 1:] <= 0.0, axis=1)
    rows = np.arange(lo.size)
    roots, halves = _secant_pairs(f, grid[rows, j], grid[rows, j + 1], fs[rows, j], fs[rows, j + 1])
    deriv = _central_difference(f, roots)
    if np.any(np.abs(deriv) <= 1e-8):
        t_bad = float(roots[np.argmax(np.abs(deriv) <= 1e-8)])
        raise UnexpectedCoincidence(
            f"vanishing derivative at detected zero t = {t_bad:.9f}; zero may not be simple")
    return roots, halves


def find_zeros(source: str, t_min: float, t_max: float,
               scan_step: float = 0.01) -> list[CriticalPoint]:
    """All critical-line zeros of a catalogued function (a key of
    _CATALOGUED) with ordinate in [t_min, t_max], ascending, found by
    _sign_change_roots on the completed function at resolution scan_step;
    each refined_to is the half width of its final sign-change bracket, at
    most 2.5e-10.  Needs 0 <= t_min < t_max <= 200 and scan_step in
    (0, 0.05] with a scan of at most 1,000,001 points (DomainError otherwise).
    """
    if source not in _CATALOGUED:
        raise DomainError(f"source must be one of {tuple(_CATALOGUED)}")
    if not (0.0 <= t_min < t_max <= 200.0):
        raise DomainError("need 0 <= t_min < t_max <= 200")
    roots, widths = _sign_change_roots(lambda ts: _line_values(source, ts), t_min, t_max, scan_step)
    return [CriticalPoint(t=float(r), kind="zero", source=_CATALOGUED[source][1], multiplicity=1,
                          refined_to=float(max(w, 1e-12)))
            for r, w in zip(roots, widths)]


def singular_points_delta5(t_min: float, t_max: float,
                           scan_step: float = 0.01) -> list[CriticalPoint]:
    """Merged catalog of the quotient's critical-line zeros (zeta and beta
    ordinates) and poles (half the zeta ordinates), sorted by t.

    A zero ordinate colliding with a pole ordinate within 1e-9 would mean a
    cancellation the quotient's structure does not predict; that raises
    UnexpectedCoincidence instead of silently dropping either point.
    """
    if not (0.0 <= t_min < t_max <= 100.0):
        raise DomainError("need 0 <= t_min < t_max <= 100 (pole scan runs to 2 t_max)")
    points = []
    points += find_zeros("zeta", t_min, t_max, scan_step)
    points += find_zeros("beta", t_min, t_max, scan_step)
    for p in find_zeros("zeta", 2.0 * t_min, 2.0 * t_max, scan_step):
        points.append(CriticalPoint(t=0.5 * p.t, kind="pole", source="half_zeta_zero",
                                    multiplicity=1, refined_to=0.5 * p.refined_to))
    points.sort(key=lambda p: p.t)
    for a, b in zip(points, points[1:]):
        if b.t - a.t < 1e-9:
            raise UnexpectedCoincidence(
                f"{a.source} and {b.source} ordinates coincide at t = {a.t:.9f}")
    return points


def residue_at_pole(sigma: float) -> RealAxisFeature:
    """Residue of the quotient at one of its real poles.

    At sigma = 1 the numerator zeta carries the pole (residue 1), so the
    residue is beta(1)/zeta(3/2).  At sigma = 1/4 - k the denominator has a
    trivial zero, giving zeta(sigma) beta(sigma) / (2 zeta'(2 sigma - 1/2))
    with the derivative taken by central difference (h = 1e-6).
    """
    matches = [a for a in POLE_SIGMAS if abs(sigma - a) <= 1e-9]
    if not matches:
        raise NotAPole(f"sigma = {sigma} is not a real-axis pole of the quotient")
    a = matches[0]
    if a == 1.0:
        value = beta_L(1.0).real / zeta(1.5).real
    else:
        value = (zeta(a).real * beta_L(a).real
                 / (2.0 * _central_difference(zeta, 2.0 * a - 0.5).real))
    return RealAxisFeature(sigma=a, kind="pole", coefficient=float(value))


def slope_at_zero(sigma: float) -> RealAxisFeature:
    """Linear coefficient of the quotient at one of its real first-order zeros.

    At sigma = 3/4 the denominator pole (residue 1/2) inverts to the factor
    2 (s - 3/4), so the slope is 2 zeta(3/4) beta(3/4).  At the negative
    integers exactly one numerator factor vanishes; its derivative is taken
    by central difference (h = 1e-6).
    """
    matches = [a for a in ZERO_SIGMAS if abs(sigma - a) <= 1e-9]
    if not matches:
        raise NotAZero(f"sigma = {sigma} is not a real-axis zero of the quotient")
    a = matches[0]
    if a == 0.75:
        value = 2.0 * zeta(0.75).real * beta_L(0.75).real
    else:
        den = zeta(2.0 * a - 0.5).real
        if int(round(a)) % 2 == 0:
            value = _central_difference(zeta, a).real * beta_L(a).real / den
        else:
            value = zeta(a).real * _central_difference(beta_L, a).real / den
    return RealAxisFeature(sigma=a, kind="zero", coefficient=float(value))
