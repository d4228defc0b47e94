"""The quotient delta5(s) = zeta(s) L_-4(s) / zeta(2s - 1/2), its reflection
factor f5, their asymptotic forms, and the sibling quotients delta_q for
discriminants -3, -7, -8.

Conventions used throughout:

* "folded" phase means the representative of arg modulo pi inside the
  half-open interval (-pi/2, pi/2].
* pole rule: delta5 / delta_q raise PoleOfDelta5 (q = 4) / PoleOfDeltaQ
  within 1e-10 of a pole (with a 1e-3 relative margin for the rounding of
  pole + 1e-10), so path-tracing code never silently steps onto one; an
  array raises for its first offending element.  Closed forms cover s = 1,
  the real poles s = 1/4 - k (k >= 1), and for q != 4 the bracket zero
  s = 1/2 plus, for q = 7, 8, s = 1/2 + i k 2 pi / ln(q/4); the error
  carries the pole itself.  The critical-line poles 1/2 + i gamma/2 raise
  when the first-order distance |Z| / (2 |Z'|), Z = zeta(2s - 1/2) and Z' a
  central difference, is within the disc; the error carries the point.
* the first-order zero of every quotient at s = 3/4 is returned as exactly
  0 for |s - 3/4| <= 1e-12 (the raw quotient divides by a pole there).
"""

from __future__ import annotations

import functools
import math
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
    _ETA_MIN,
    LN2,
    _POLE_TOL,
    _alt_series,
    _central_difference,
    _character_label,
    _coerce,
    _cvz_terms,
    _l_values,
    _near_nonpositive_integer,
    _one_blas_thread,
    _release,
    _stirling_lgamma,
    _twist_factor,
)

_QUOTIENT_POLE_TOL = 1e-10 * (1.0 + 1e-3)
_EXACT_ZERO_TOL = 1e-12
# the distance rule only looks at points this close to the critical line
# whose denominator is this small; inside the disc |Z| <= 2e-10 |Z'|, and
# |zeta'| at the zeta zeros up to t = 200 stays below 6, far under 5e3
_LINE_SCREEN = 1e-9
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


def _log_bracket_ratio(q: int) -> float:
    # ratio r < 1 so that the factor 1 - r^(s - 1/2) tends to 1 as sigma grows
    return math.log(q / 4.0 if q < 4 else 4.0 / q)


def _bracket_values(q: int, s: np.ndarray) -> np.ndarray:
    return -np.expm1((s - 0.5) * _log_bracket_ratio(q))


def bracket_factor(q: int, s):
    """The normalizing factor 1 - r^(s-1/2) of delta_q (r = 3/4 or 4/q).

    For q = 4 the factor is identically 1.
    """
    q = _label(q)
    arr, scalar = _coerce(s)
    vals = np.ones(arr.shape, dtype=np.complex128) if q == 4 else _bracket_values(q, arr)
    return _release(vals, scalar)


def _delta_q_values(q: int, s: np.ndarray) -> np.ndarray:
    """Vector quotient values; pole neighborhoods yield inf/nan, never raise.

    This is the grid backend for rendering and tracing; delta5 / delta_q add
    the pole classification on top of it.
    """
    s = np.ascontiguousarray(s, dtype=np.complex128)
    with np.errstate(all="ignore"):
        num = _l_values(1, s) * _l_values(q, s)
        den = _l_values(1, 2.0 * s - 0.5)
        if q == 3:
            num = num * _bracket_values(q, s)
        elif q > 4:
            den = den * _bracket_values(q, s)
        return num / den


@functools.cache
def _cvz_moments(q: int, n: int, chain: float) -> np.ndarray:
    """The weights -c L w and c^2 L^2 w, c = chain, of the logs L and weights
    w that _alt_series(q, n) gives: against exp(-x L) they give the first two
    s-derivatives of the CVZ sum A(x) = sum w e^(-x L) when x = c s + const.
    Cached per term count, like _alt_series, as real numbers: half the memory
    of complex ones, and the block matrix they are copied into is complex."""
    logs, w = _alt_series(q, n)
    cl, w = chain * logs, w.real
    return np.stack([-cl * w, cl * cl * w], axis=1)


# log delta5 = log A(s) + log B(s) - log A(x) - log q(s) + log q(x), x = 2s - 1/2,
# with A and B the CVZ sums of rows 1 and 4 (eta and beta) and q the eta factor
_SUM_SIGNS = np.array([1.0, 1.0, -1.0])


def _delta5_log_derivatives(s: np.ndarray):
    """(delta, l1, l2) for a 1-D batch s, with l = log delta5, l1 = l' and
    l2 = l''.  Where zeta(s), beta(s) and zeta(x), x = 2s - 1/2, all take
    their rows in evalcore._l_values (tracing stays at sigma >= 0.495, where
    they do), the exponents -s log(1 + k), -s log(1 + 2k) and -x log(1 + k), the
    terms of rows 1, 4 and 1 of evalcore._ALTERNATING, go through one exp.
    Each sum's value is its own product with the CVZ weights, as on
    _power_sum's outer-product path, so delta has the bits of _delta_q_values
    on any batch that is neither a grid nor a line scan; the derivatives are
    one product with a block matrix of _cvz_moments columns, and the eta
    factors q enter in closed form.  From _GRID_MIN_POINTS points on, the
    products run on one BLAS thread (evalcore._one_blas_thread).  A batch
    with a point off that route (|q(s)| or |q(x)| < _ETA_MIN, near s or
    x = 1 + 2 pi i k / ln 2, or Re x <= 0) takes delta from _delta_q_values
    and delta' from evalcore._central_difference instead, with l2 = nan."""
    s = np.ascontiguousarray(s, dtype=np.complex128)
    x = 2.0 * s - 0.5
    q = _twist_factor(1, np.array([s, x]))
    if np.abs(q).min() < _ETA_MIN or x.real.min() <= 0.0:
        v = _delta_q_values(4, s)
        d = _central_difference(lambda z: _delta_q_values(4, z), s)
        return v, d / v, np.full(s.shape, complex(math.nan, math.nan))
    n, nx = _cvz_terms(s), _cvz_terms(x)
    (lz, wz), (lb, wb), (lx, wx) = _alt_series(1, n), _alt_series(4, n), _alt_series(1, nx)
    e = np.concatenate([np.multiply.outer(-s, np.concatenate([lz, lb])), np.multiply.outer(-x, lx)], axis=1)
    e = np.exp(e, out=e)
    moments = np.zeros((e.shape[1], 6), dtype=np.complex128)
    moments[:n, 0:2] = _cvz_moments(1, n, 1.0)
    moments[n:2 * n, 2:4] = _cvz_moments(4, n, 1.0)
    moments[2 * n:, 4:6] = _cvz_moments(1, nx, 2.0)
    a = np.empty((s.size, 3), dtype=np.complex128)
    with _one_blas_thread(s.size):
        a[:, 0], a[:, 1], a[:, 2] = e[:, :n] @ wz, e[:, n:2 * n] @ wb, e[:, 2 * n:] @ wx
        m = (e @ moments).reshape(-1, 3, 2)
    g1 = m[:, :, 0] / a  # (log A)' and (log A)'' of each sum A
    g2 = m[:, :, 1] / a - g1 * g1
    # (log q)' = ln2 (1 - q)/q, (log q)'' = -ln2^2 (1 - q)/q - ((log q)')^2
    q1 = LN2 * ((1.0 - q) / q)
    q2 = -LN2 * q1 - q1 * q1
    l1 = g1 @ _SUM_SIGNS + 2.0 * q1[1] - q1[0]  # dx/ds = 2
    l2 = g2 @ _SUM_SIGNS + 4.0 * q2[1] - q2[0]
    return a[:, 0] / q[0] * a[:, 1] / (a[:, 2] / q[1]), l1, l2


def _check_poles(q: int, s: np.ndarray):
    """Raise for the first element of the flat array s inside a pole disc."""
    k = np.maximum(np.round(0.25 - s.real), 1.0)
    closed = [1.0, 0.25 - k]  # s = 1 and the real poles s = 1/4 - k
    if q != 4:  # bracket zeros 1/2 + i m 2 pi/ln(q/4); for q = 3 only m = 0
        period = 2.0 * math.pi / abs(_log_bracket_ratio(q))
        closed.append(0.5 + 1j * period * (np.round(s.imag / period) if q > 4 else 0.0))
    hit = np.zeros(s.shape, dtype=bool)
    loc = s
    for pole in closed:
        near = np.abs(s - pole) <= _QUOTIENT_POLE_TOL
        hit |= near
        loc = np.where(near, pole, loc)
    # critical-line poles: first-order distance |Z| / (2 |Z'|), Z = zeta(2s - 1/2)
    line = np.flatnonzero(np.abs(s.real - 0.5) <= _LINE_SCREEN)
    if line.size:
        w = 2.0 * s[line] - 0.5
        z = np.abs(_l_values(1, w))
        small = z <= _DEN_SCREEN
        if np.any(small):
            dz = np.abs(_central_difference(functools.partial(_l_values, 1), w[small]))
            hit[line[small]] |= z[small] <= 2.0 * _QUOTIENT_POLE_TOL * dz
    if np.any(hit):
        i = int(np.argmax(hit))
        name, err = ("delta5", PoleOfDelta5) if q == 4 else (f"delta_q (q = {q})", PoleOfDeltaQ)
        raise err(f"{name}: s = {complex(s[i])} is within 1e-10 of a pole", complex(loc[i]))


def delta5(s):
    """The quotient zeta(s) L_-4(s) / zeta(2s - 1/2), i.e. delta_q(4, s):
    exactly 0 at s = 3/4, PoleOfDelta5 within 1e-10 of a pole."""
    return delta_q(4, s)


def delta_q(kind, s):
    """The quotient family member for discriminant label q in {3, 4, 7, 8},
    given as a QuotientKind or a plain int; q = 4 is delta5.

    The bracket factor 1 - r^(s-1/2) vanishes at s = 1/2 for every q != 4;
    that degeneracy of the construction is reported as a pole, like the
    bracket zeros in the denominator (q > 4).  Pole rule: module docstring.
    """
    q = _label(kind)
    arr, scalar = _coerce(s)
    flat = arr.reshape(-1)
    _check_poles(q, flat)
    out = _delta_q_values(q, flat)
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

    Computed through log-gamma differences, so it neither overflows nor
    underflows for |Im s| up to 200.
    """
    arr, scalar = _coerce(s)
    factors = [(scale * arr + offset, sign) for scale, offset, sign in _F5_SHIFTS]
    for args, _ in factors:
        hit = _near_nonpositive_integer(args)
        if np.any(hit):
            loc = complex(arr[hit][0])
            raise GammaPoleOnPath(f"gamma factor of f5 has a pole at s = {loc}", loc)
    log_f = sum(sign * _stirling_lgamma(args) for args, sign in factors)
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
    along the vertical line Re s = sigma.

    Im(1 - r^(s - 1/2)) = -r^(sigma - 1/2) sin(t ln r), so they are the
    multiples m pi / |ln r|, m >= 1, at least pi / ln 2 apart, whatever
    sigma is; q = 4 has none.  Needs finite sigma and 0 < t_max <= 200
    (DomainError otherwise).
    """
    q = _label(q)
    if not -math.inf < sigma < math.inf:
        raise DomainError("sigma must be finite")
    if not 0.0 < t_max <= 200.0:
        raise DomainError("need 0 < t_max <= 200")
    if q == 4:
        return []
    period = math.pi / abs(_log_bracket_ratio(q))
    return [m * period for m in range(1, int(t_max / period) + 2) if m * period <= t_max]


def lattice_sum_C(s):
    """The square-lattice sum over (m, n) != (0, 0) of (m^2 + n^2)^-s,
    computed through its factorization 4 zeta(s) beta(s)."""
    arr, scalar = _coerce(s)
    if np.any(np.abs(arr - 1.0) <= _POLE_TOL):
        raise PoleOfZeta("lattice sum has a pole at s = 1", 1.0 + 0.0j)
    return _release(4.0 * _l_values(1, arr) * _l_values(4, arr), scalar)
