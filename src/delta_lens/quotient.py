"""The quotient family delta_q(s) = zeta(s) L_-q(s) / zeta(2s - 1/2) times a
bracket factor, for discriminants -3, -4, -7, -8, as one table, _QUOTIENTS
(q = 4 is delta5, without a bracket); the reflection factor f5 of delta5
and their asymptotic forms.  _delta_q_values and the tracing kernel
_log_derivatives read the table, take the rows at s and at 2s - 1/2 in
one evalcore._l_values call (off grids and line scans, from one power
table per point, evalcore._row_table) and form delta through one
_product.

Conventions used throughout:

* "folded" phase means the representative of arg modulo pi inside the
  half-open interval (-pi/2, pi/2].
* pole rule: delta5 / delta_q raise the table's error, PoleOfDelta5 (q = 4)
  or PoleOfDeltaQ, within 1e-10 of a pole (with a 1e-3 relative margin for
  the rounding of pole + 1e-10), so path-tracing code never silently steps
  onto one; an array raises for its first offending element.  Closed forms
  cover s = 1, the real poles s = 1/4 - k (k >= 1), the bracket zero s = 1/2
  and, where the bracket divides (q = 7, 8), its every zero; the error
  carries the pole.  The critical-line poles 1/2 + i gamma/2 raise when the
  first-order distance |Z| / (2 |Z'|) is within the disc, Z = zeta(2s - 1/2)
  read from the denominator row the call evaluates and Z' a central
  difference taken where |Z| <= _DEN_SCREEN and Re s > -1/4; the error
  carries the point.
* the first-order zero of every quotient at s = 3/4 is returned as exactly
  0 for |s - 3/4| <= 1e-12 (the raw quotient divides by a pole there).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    GammaPoleOnPath,
    PoleOfDelta5,
    PoleOfDeltaQ,
    PoleOfZeta,
)
from .evalcore import (
    _EM_MIN,
    _TWIST_WEIGHTS,
    LN2,
    _POLE_TOL,
    _central_difference,
    _character_label,
    _coerce,
    _cvz_count,
    _l_values,
    _near_nonpositive_integer,
    _one_blas_thread,
    _release,
    _row_table,
    _stirling_lgamma,
    _table_terms,
)

_QUOTIENT_POLE_TOL = 1e-10 * (1.0 + 1e-3)
_EXACT_ZERO_TOL = 1e-12
# the distance rule takes Z' only where |Z| is this small and Re s > -1/4.  Inside the disc
# |Z| <= 2e-10 |Z'|, and |zeta'| at the zeta zeros up to t = 500 (|Im s| <= 250) stays below 8
# (7.73 at t = 498.6), far under 5e3.  Zeta has no other zeros there but -2k (Platt and Trudgian
# 2021), so left of Re s = -1/4 only the real poles 1/4 - k make |Z| this small (up to 8e-5 from
# them), and the closed forms own those
_DEN_SCREEN = 1e-6


@dataclass(frozen=True)
class QuotientKind:
    """Which quotient family member: 4 is delta5, 3 and 7, 8 its siblings."""

    discriminant_label: int = 4

    def __post_init__(self):
        _character_label(self.discriminant_label)


def _label(kind) -> int:
    """The validated discriminant label of a QuotientKind or a plain int."""
    return (kind if isinstance(kind, QuotientKind) else QuotientKind(kind)).discriminant_label


@dataclass(frozen=True)
class AsymptoticPhase:
    """A critical-line ordinate with its phase representative modulo pi."""

    t: float
    phase_mod_pi: float

    def __post_init__(self):
        if not -math.pi / 2 < self.phase_mod_pi <= math.pi / 2:
            raise DomainError("phase_mod_pi must lie in (-pi/2, pi/2]")


def fold_phase(phi: float) -> float:
    """Reduce a phase to its representative modulo pi in (-pi/2, pi/2]."""
    r = math.remainder(phi, math.pi)
    if r <= -math.pi / 2:
        r += math.pi
    return r


# q -> (rows of evalcore._ALTERNATING whose L is taken at s, those taken at x = 2s - 1/2, the
# bracket 1 - r^(s - 1/2) as (ln r, exponent) or None, name and error of a pole): delta_q =
# prod L(s) / prod L(x) bracket^exponent, and r < 1, so the bracket tends to 1 as sigma grows
_QUOTIENTS = {
    3: ((1, 3), (1,), (math.log(3 / 4), 1), "delta_q (q = 3)", PoleOfDeltaQ),
    4: ((1, 4), (1,), None, "delta5", PoleOfDelta5),
    7: ((1, 7), (1,), (math.log(4 / 7), -1), "delta_q (q = 7)", PoleOfDeltaQ),
    8: ((1, 8), (1,), (math.log(4 / 8), -1), "delta_q (q = 8)", PoleOfDeltaQ),
}


def _bracket_values(q: int, s: np.ndarray) -> np.ndarray:
    return -np.expm1((s - 0.5) * _QUOTIENTS[q][2][0])


def bracket_factor(q: int, s):
    """The normalizing factor 1 - r^(s-1/2) of delta_q (r = 3/4 or 4/q); 1 for q = 4."""
    q = _label(q)
    arr, scalar = _coerce(s)
    vals = _bracket_values(q, arr) if _QUOTIENTS[q][2] else np.ones(arr.shape, dtype=np.complex128)
    return _release(vals, scalar)


def _product(q: int, s: np.ndarray, num: list, den: list) -> np.ndarray:
    """delta_q at s from the lists of L values num of its rows at s and den at
    2s - 1/2: the bracket is appended to its side, each side multiplied in order,
    then num / den; the one product of _delta_q_values and the kernel."""
    bracket = _QUOTIENTS[q][2]
    if bracket:
        (num if bracket[1] > 0 else den).append(_bracket_values(q, s))
    return functools.reduce(operator.mul, num) / functools.reduce(operator.mul, den)


def _delta_q_values(q: int, s: np.ndarray) -> np.ndarray:
    """Vector quotient values, the grid backend for rendering and tracing: pole
    neighborhoods yield inf/nan, and delta5 / delta_q add the pole checks."""
    s = np.ascontiguousarray(s, dtype=np.complex128)
    num, den = _QUOTIENTS[q][:2]
    with np.errstate(all="ignore"):
        rows = _l_values(num, s, den)
        return _product(q, s, rows[:len(num)], rows[len(num):])


@functools.lru_cache(maxsize=16)
def _kernel_block(q: int, n: int, nx: int):
    """_log_derivatives' data for delta_q at these term counts: the power
    table of its rows at s (n blocks) and at x = 2s - 1/2 (nx blocks),
    evalcore._row_table; per row the index of its series and of its twist
    term's series or None; the rows' exponents e, 1 at s and -1 at x; the
    block, one row per gathered term of the table, whose columns 2i, 2i + 1
    hold e -c L w and e c^2 L^2 w for row i's first two s-derivatives,
    c = dx/ds and w its table weights; and per factor 1 - C r^w (each twist
    factor, exponent -e, then the bracket) ln r, its weights in l' and l'',
    and _EM_MIN, as four arrays."""
    num, den, bracket = _QUOTIENTS[q][:3]
    table = _row_table(num, n, den, nx)
    series = table[3]
    block = np.zeros((series[-1][0].stop, 2 * (len(num) + len(den))), dtype=np.complex128)
    rows, factors, k = [], [], 0
    for i, (r, c, e) in enumerate([(r, 1.0, 1.0) for r in num] + [(r, 2.0, -1.0) for r in den]):
        twist = r in _TWIST_WEIGHTS
        span, lg, _, tw = series[k]
        block[span, 2 * i:2 * i + 2] = e * np.stack([-c * lg * tw.real, (c * lg) ** 2 * tw.real], axis=1)
        rows.append((k, k + 1 if twist else None))
        if twist:
            factors.append((-LN2, -e * c, -e * c * c, _EM_MIN[r]))
        k += 1 + twist
    if bracket:
        factors.append((*bracket, bracket[1], 0.0))
    exps = np.array([1.0] * len(num) + [-1.0] * len(den))[:, None]
    lr, w1, w2, em = map(np.array, zip(*factors))
    return table, rows, exps, block, lr[:, None], w1, w2, em[:, None]


def _log_derivatives(q: int, s: np.ndarray):
    """(delta, l1, l2) for a 1-D batch s: delta_q and l', l'' of l = log delta_q.
    The route is taken per point.  Where s and x = 2s - 1/2 take their rows'
    alternating series directly (Re x > 0; tracing stays at sigma >= 0.495)
    and every twist factor is at least its row's _EM_MIN, the terms and the
    rows' sums come from the power table at s that _l_values sums
    (evalcore._table_terms): a row at s gathers its terms, a row at x takes
    (m^-s)^2 against its weights times sqrt(m).  _product forms delta, so
    delta has the bits of _delta_q_values on any batch that is neither a
    grid nor a line scan, for every q.  One product of the terms with the
    cached _kernel_block gives the rows' derivatives, the factors'
    derivatives have closed forms, and l1 and l2 are summed as array
    operations over the batch.  At the other points delta is
    _delta_q_values on those points, l1 comes from
    evalcore._central_difference, and l2 is nan."""
    s = np.ascontiguousarray(s, dtype=np.complex128)
    # the term counts _l_values reads off the arguments w at s and x, w = 1 - conj(p) where Re p <= 0
    re, xr = s.real.tolist(), (2.0 * s.real - 0.5).tolist()
    t_abs = max(map(abs, s.imag.tolist()))
    n = _cvz_count(t_abs, min(r if r > 0.0 else 1.0 - r for r in re))
    nx = _cvz_count(2.0 * t_abs, min(r if r > 0.0 else 1.0 - r for r in xr))
    table, rows, exps, block, lr, w1, w2, em = _kernel_block(q, n, nx)
    terms, sums = _table_terms(s, table)
    with _one_blas_thread(s.size):
        m = (terms @ block).T
    # per sum A^e: e A'/A and e A''/A - e (A'/A)^2, the block holding e A', e A''; per factor
    # v = 1 - C r^w: (log v)' = g = ln r (v - 1)/v and (log v)'' = g (ln r - g); rows index points
    with np.errstate(all="ignore"):  # the points off the route, replaced below
        a = np.array([sums[k] for k, _ in rows])
        f = [1.0 - sums[t] for _, t in rows if t is not None]
        v = np.array(f + ([_bracket_values(q, s)] if _QUOTIENTS[q][2] else []))
        g = m[0::2] / a
        h = lr * ((v - 1.0) / v)
        l1 = g.sum(axis=0) + w1 @ h
        l2 = (m[1::2] / a - exps * (g * g)).sum(axis=0) + w2 @ (h * (lr - h))
        f = iter(f)
        vals = [sums[k] if t is None else sums[k] / next(f) for k, t in rows]
        n_num = len(_QUOTIENTS[q][0])
        delta = _product(q, s, vals[:n_num], vals[n_num:])
    off = (np.abs(v) < em).any(axis=0)
    if min(xr) <= 0.0:
        off |= np.array(xr) <= 0.0
    if off.any():
        delta[off] = _delta_q_values(q, s[off])
        l1[off] = _central_difference(functools.partial(_delta_q_values, q), s[off]) / delta[off]
        l2[off] = complex(math.nan, math.nan)
    return delta, l1, l2


def _check_poles(q: int, s: np.ndarray, z: np.ndarray):
    """Raise for the first element of the flat array s inside a pole disc,
    z = |zeta(2s - 1/2)| at s, from delta_q's denominator row."""
    bracket, name, error = _QUOTIENTS[q][2:]
    k = np.maximum(np.round(0.25 - s.real), 1.0)
    closed = [1.0, 0.25 - k]  # s = 1 and the real poles s = 1/4 - k
    if bracket:  # its zeros 1/2 + i m 2 pi/|ln r|; in the numerator only m = 0
        period = 2.0 * math.pi / abs(bracket[0])
        closed.append(0.5 + 1j * period * (np.round(s.imag / period) if bracket[1] < 0 else 0.0))
    # critical-line poles: first-order distance |Z| / (2 |Z'|), Z = zeta(2s - 1/2)
    hit = (z <= _DEN_SCREEN) & (s.real > -0.25)
    if np.any(hit):
        dz = np.abs(_central_difference(lambda x: _l_values((1,), x)[0], 2.0 * s[hit] - 0.5))
        hit[hit] = z[hit] <= 2.0 * _QUOTIENT_POLE_TOL * dz
    loc = s
    for pole in closed:
        near = np.abs(s - pole) <= _QUOTIENT_POLE_TOL
        hit |= near
        loc = np.where(near, pole, loc)
    if np.any(hit):
        i = int(np.argmax(hit))
        raise error(f"{name}: s = {complex(s[i])} is within 1e-10 of a pole", complex(loc[i]))


def delta5(s):
    """The quotient zeta(s) L_-4(s) / zeta(2s - 1/2), i.e. delta_q(4, s):
    exactly 0 at s = 3/4, PoleOfDelta5 within 1e-10 of a pole."""
    return delta_q(4, s)


def delta_q(kind, s):
    """The quotient family member for discriminant label q in {3, 4, 7, 8},
    given as a QuotientKind or a plain int; q = 4 is delta5.  The zero of the
    bracket at s = 1/2, a degeneracy of the construction, is reported as a
    pole, like the bracket zeros in a denominator.  Pole rule: module docstring.
    """
    q = _label(kind)
    arr, scalar = _coerce(s)
    flat = np.ascontiguousarray(arr.reshape(-1))
    num, den = _QUOTIENTS[q][:2]
    with np.errstate(all="ignore"):  # the rows of _delta_q_values, evaluated once
        rows = _l_values(num, flat, den)
        _check_poles(q, flat, np.abs(rows[len(num)]))
        out = _product(q, flat, rows[:len(num)], rows[len(num):])
    out[np.abs(flat - 0.75) <= _EXACT_ZERO_TOL] = 0.0
    return _release(out.reshape(arr.shape), scalar)


_F5_SHIFTS = (  # gamma factors of f5 as (scale, offset, sign): Gamma(scale*s + offset)^sign
    (-1.0, 1.0, 1.0),    # Gamma(1 - s)
    (1.0, -0.25, 1.0),   # Gamma(s - 1/4)
    (1.0, 0.0, -1.0),    # 1 / Gamma(s)
    (-1.0, 0.75, -1.0),  # 1 / Gamma(3/4 - s)
)


def f5(s):
    """Reflection factor Gamma(1-s) Gamma(s-1/4) / (Gamma(s) Gamma(3/4-s)).

    Computed through log-gamma differences, the four arguments as one
    log-gamma batch, so it neither overflows nor underflows for |Im s| up
    to 200.
    """
    arr, scalar = _coerce(s)
    args = np.stack([scale * arr + offset for scale, offset, _ in _F5_SHIFTS])
    for a in args:
        hit = _near_nonpositive_integer(a)
        if np.any(hit):
            loc = complex(arr[hit][0])
            raise GammaPoleOnPath(f"gamma factor of f5 has a pole at s = {loc}", loc)
    log_f = sum(sign * lg for lg, (*_, sign) in zip(_stirling_lgamma(args), _F5_SHIFTS))
    return _release(np.exp(log_f), scalar)


def f5_asymptotic(s):
    """Large-|t| form of f5: e^(-i pi/4) (1 + 1/(16 s) + 17/(512 s^2)).

    The leading constant conjugates to e^(+i pi/4) for t < -1; the strip
    |Im s| <= 1 is outside the asymptotic regime and is rejected.
    """
    arr, scalar = _coerce(s)
    if np.any(np.abs(arr.imag) <= 1.0):
        raise DomainError("f5_asymptotic requires |Im s| > 1")
    lead = np.where(arr.imag > 0.0,
                    np.exp(-0.25j * math.pi) * np.ones(arr.shape, dtype=np.complex128),
                    np.exp(0.25j * math.pi) * np.ones(arr.shape, dtype=np.complex128))
    series = 1.0 + 1.0 / (16.0 * arr) + 17.0 / (512.0 * arr * arr)
    return _release(lead * series, scalar)


def functional_equation_residual(s) -> float:
    """Self-test probe |delta5(s) - f5(s) delta5(1-s)| / (1 + |delta5(s)|)."""
    z = complex(np.asarray(s, dtype=np.complex128))
    lhs = delta5(z)
    rhs = f5(z) * delta5(1.0 - z)
    return abs(lhs - rhs) / (1.0 + abs(lhs))


def critical_phase_approx(t: float) -> AsymptoticPhase:
    """Asymptotic critical-line phase -pi/8 - 1/(32 t), folded modulo pi."""
    if not t > 1.0:
        raise DomainError("critical_phase_approx requires t > 1")
    return AsymptoticPhase(t=float(t), phase_mod_pi=fold_phase(-math.pi / 8.0 - 1.0 / (32.0 * t)))


def large_sigma_phase_modulus(sigma: float, t: float) -> tuple[float, float]:
    """First-order phase and modulus of delta5 for sigma >= 6.

    Returns (-sin(t ln 2)/2^sigma, 1 + cos(t ln 2)/2^sigma); the error of
    both is bounded by the next Dirichlet term, about 3/4^sigma.
    """
    if not (math.isfinite(sigma) and math.isfinite(t)):
        raise DomainError("large_sigma_phase_modulus requires finite sigma and t")
    if sigma < 6.0:
        raise DomainError("large_sigma_phase_modulus requires sigma >= 6")
    scale = 2.0 ** (-sigma)
    return (-math.sin(t * LN2) * scale, 1.0 + math.cos(t * LN2) * scale)


def reflected_approx(sigma: float, t: float) -> complex:
    """Product approximation to delta5(1 - sigma + i t) for sigma >= 3, t > 1:

    [1 + 2^-sigma cos(t ln 2) + i 2^-sigma sin(t ln 2)] e^(-i pi/4)
    (1 - (sigma + i t) / (16 (sigma^2 + t^2))).
    """
    if not (math.isfinite(sigma) and math.isfinite(t)):
        raise DomainError("reflected_approx requires finite sigma and t")
    if sigma < 3.0 or not t > 1.0:
        raise DomainError("reflected_approx requires sigma >= 3 and t > 1")
    scale = 2.0 ** (-sigma)
    head = 1.0 + scale * math.cos(t * LN2) + 1j * scale * math.sin(t * LN2)
    correction = 1.0 - (sigma + 1j * t) / (16.0 * (sigma * sigma + t * t))
    return head * complex(math.cos(math.pi / 4.0), -math.sin(math.pi / 4.0)) * correction


def bracket_phase_zeros(q: int, sigma: float, t_max: float) -> list[float]:
    """Ordinates in (0, t_max] where the bracket factor's phase crosses zero
    along the vertical line Re s = sigma.  Im(1 - r^(s - 1/2)) =
    -r^(sigma - 1/2) sin(t ln r), so they are the multiples m pi / |ln r|,
    m >= 1, at least pi / ln 2 apart, whatever sigma is; q = 4 has none.
    Needs finite sigma and 0 < t_max <= 200 (DomainError otherwise)."""
    q = _label(q)
    if not -math.inf < sigma < math.inf:
        raise DomainError("sigma must be finite")
    if not 0.0 < t_max <= 200.0:
        raise DomainError("need 0 < t_max <= 200")
    bracket = _QUOTIENTS[q][2]
    if not bracket:
        return []
    period = math.pi / abs(bracket[0])
    return [m * period for m in range(1, int(t_max / period) + 2) if m * period <= t_max]


def lattice_sum_C(s):
    """The square-lattice sum over (m, n) != (0, 0) of (m^2 + n^2)^-s,
    computed through its factorization 4 zeta(s) beta(s)."""
    arr, scalar = _coerce(s)
    if np.any(np.abs(arr - 1.0) <= _POLE_TOL):
        raise PoleOfZeta("lattice sum has a pole at s = 1", 1.0 + 0.0j)
    z, b = _l_values((1, 4), arr)
    return _release(4.0 * z * b, scalar)
