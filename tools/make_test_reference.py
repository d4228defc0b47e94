"""Write tests/mpmath_reference.json, the frozen mpmath values of the
log-gamma and critical-line accuracy tests.

Usage (from the repository root; needs mpmath, which delta_lens does not
depend on):

    python3 tools/make_test_reference.py

The fixture holds

* log_gamma: the principal-branch log Gamma (mpmath.loggamma) on the
  boundary pool of the per-point Stirling shift, Re z in {-2.5, -1e-9, 0,
  0.5, 9.5, 10} x Im z in {+-9.999, +-10, +-10.001, +-47, +-250};
* dirichlet_L: L(-3) at 0.5 + 140i and L(-7) at 0.5 + 148i, critical-line
  points where |L| is small (0.011 and 0.003), so the contract there is
  absolute rather than relative;
* line_minima: rows [q, Re s, Im s, Re L, Im L] for L(-4) and L(-8) at every
  point 0.5 + 0.01k i, k = 1..20000 (t in (0, 200], the scan grid of
  find_zeros), where |L| is below 0.02 and below both grid neighbours: the
  grid points next to the critical-line zeros.  The scan runs in mpmath's
  double-precision context (mpmath.fp), the frozen values at 40 digits;
* zeta_zeros: the ordinates of the 79 zeta zeros up to t = 200
  (mpmath.zetazero);
* beta_zeros: the ordinates of the 50 beta zeros up to t = 100, bracketed by
  the sign changes of the rotated beta function exp(i theta(t)) beta(1/2 + it)
  (real, theta the phase of its gamma factor) on a scan of step 0.02 and
  refined by mpmath.findroot;
* trivial_zeros: rows [q, Re s, Im s, Re L, Im L] next to the trivial
  zeros, where the reflection's sine is small: zeta (q = 1) at -2k + d,
  k = 1, 2, and beta (q = 4), L(-3), L(-7), L(-8) at -(2k + 1) + d,
  k = 0, 1, 2, for d in {+-1e-9, 1e-7, 1e-5, 1e-3, 1e-6 i};
* zeta_near_zero: zeta on rings |s| = r around s = 0, where the
  reflection meets the pole of zeta(1 - s): r in {1e-8, 1e-6, 1e-4, 1e-2,
  0.0499, 0.0501} at 12 equally spaced angles, and at s = -2e-8, -1e-6,
  -1e-5;
* delta5: the quotient at 1/4 - 1e-8 + 1e-8 i, where its denominator
  zeta(2s - 1/2) is taken next to s = 0.

Each point s is the double the test passes, so mpmath sees the same
number.

Values are computed at 40 digits and written as 17-digit decimals.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parents[1] / "tests" / "mpmath_reference.json"
LOG_GAMMA_RE = (-2.5, -1e-9, 0.0, 0.5, 9.5, 10.0)
LOG_GAMMA_IM = (-250.0, -47.0, -10.001, -10.0, -9.999, 9.999, 10.0, 10.001, 47.0, 250.0)
CHARACTERS = {  # chi(0), ..., chi(q - 1)
    3: [0, 1, -1], 4: [0, 1, 0, -1], 7: [0, 1, 1, -1, 1, -1, -1], 8: [0, 1, 0, 1, 0, -1, 0, -1]}
L_POINTS = ((3, 0.5, 140.0), (7, 0.5, 148.0))
MINIMA_QS, MINIMA_STEP, MINIMA_COUNT, MINIMA_BELOW = (4, 8), 0.01, 20000, 0.02
ZETA_ZERO_COUNT = 79  # every zeta zero up to t = 200
BETA_T_MAX, BETA_SCAN_STEP = 100, 0.02
TRIVIAL_OFFSETS = (1e-9, -1e-9, 1e-7, 1e-5, 1e-3, 1e-6j)
RING_RADII = (1e-8, 1e-6, 1e-4, 1e-2, 0.0499, 0.0501)
RING_ANGLES = 12
NEAR_ZERO_REAL = (-2e-8, -1e-6, -1e-5)
DELTA5_POINT = 0.25 - 1e-8 + 1e-8j


def _pair(z) -> list[float]:
    return [float(mp.re(z)), float(mp.im(z))]


def _L(q: int, s: complex):
    # zeta for q = 1, else the L function of the real odd character mod q
    s = mp.mpc(s.real, s.imag)
    return mp.zeta(s) if q == 1 else mp.dirichlet(s, CHARACTERS[q])


def _trivial_zero_points():
    # zeta's trivial zeros are -2, -4; the odd characters' -1, -3, -5
    for q, zeros in ((1, (-2, -4)), *((q, (-1, -3, -5)) for q in (4, 3, 7, 8))):
        for c in zeros:
            for d in TRIVIAL_OFFSETS:
                yield q, complex(c + d)


def _line_minima():
    for q in MINIMA_QS:
        ts = [MINIMA_STEP * k for k in range(MINIMA_COUNT + 2)]  # the neighbours t = 0 and 200.01 too
        size = [abs(mp.fp.dirichlet(complex(0.5, t), CHARACTERS[q])) for t in ts]
        for k in range(1, MINIMA_COUNT + 1):
            if size[k] < min(size[k - 1], size[k + 1], MINIMA_BELOW):
                yield q, complex(0.5, ts[k])


def _near_zero_points():
    for r in RING_RADII:
        for k in range(RING_ANGLES):
            yield complex(r * mp.cos(2 * mp.pi * k / RING_ANGLES), r * mp.sin(2 * mp.pi * k / RING_ANGLES))
    yield from map(complex, NEAR_ZERO_REAL)


def _beta_line(t):
    # beta on the critical line rotated by the phase of its gamma factor
    # (pi/4)^(-(s+1)/2) Gamma((s+1)/2): real, with the zeros of beta
    s = mp.mpc(0.5, t)
    theta = mp.im(mp.loggamma((s + 1) / 2)) - t / 2 * mp.log(mp.pi / 4)
    return mp.re(mp.expj(theta) * mp.dirichlet(s, CHARACTERS[4]))


def _beta_zeros() -> list[float]:
    ts = [BETA_SCAN_STEP * k for k in range(1, round(BETA_T_MAX / BETA_SCAN_STEP) + 1)]
    values = [_beta_line(t) for t in ts]
    return [float(mp.findroot(_beta_line, (mp.mpf(a), mp.mpf(b)), solver="anderson"))
            for a, b, fa, fb in zip(ts, ts[1:], values, values[1:]) if fa * fb < 0]


def main() -> None:
    mp.mp.dps = 40
    tables = {
        "log_gamma": [[x, y, *_pair(mp.loggamma(mp.mpc(x, y)))] for x in LOG_GAMMA_RE for y in LOG_GAMMA_IM],
        "dirichlet_L": [[q, x, y, *_pair(mp.dirichlet(mp.mpc(x, y), CHARACTERS[q]))] for q, x, y in L_POINTS],
        "line_minima": [[q, s.real, s.imag, *_pair(_L(q, s))] for q, s in _line_minima()],
        "zeta_zeros": [float(mp.im(mp.zetazero(n))) for n in range(1, ZETA_ZERO_COUNT + 1)],
        "beta_zeros": _beta_zeros(),
        "trivial_zeros": [[q, s.real, s.imag, *_pair(_L(q, s))] for q, s in _trivial_zero_points()],
        "zeta_near_zero": [[s.real, s.imag, *_pair(_L(1, s))] for s in _near_zero_points()],
        "delta5": [[DELTA5_POINT.real, DELTA5_POINT.imag,
                    *_pair(_L(1, DELTA5_POINT) * _L(4, DELTA5_POINT) / _L(1, 2.0 * DELTA5_POINT - 0.5))]],
    }
    generator = json.dumps(f"tools/make_test_reference.py, mpmath {mp.__version__}, 40 digits")
    body = ",\n".join(f'"{key}": [\n' + ",\n".join(map(json.dumps, rows)) + "\n]" for key, rows in tables.items())
    OUT.write_text(f'{{"generator": {generator},\n{body}}}\n', encoding="ascii")


if __name__ == "__main__":
    main()
