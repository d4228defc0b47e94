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
* zeta_zeros: the ordinates of the 79 zeta zeros up to t = 200
  (mpmath.zetazero);
* beta_zeros: the ordinates of the 50 beta zeros up to t = 100, bracketed by
  the sign changes of the rotated beta function exp(i theta(t)) beta(1/2 + it)
  (real, theta the phase of its gamma factor) on a scan of step 0.02 and
  refined by mpmath.findroot.

Values are computed at 40 digits and written as 17-digit decimals.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parents[1] / "tests" / "mpmath_reference.json"
LOG_GAMMA_RE = (-2.5, -1e-9, 0.0, 0.5, 9.5, 10.0)
LOG_GAMMA_IM = (-250.0, -47.0, -10.001, -10.0, -9.999, 9.999, 10.0, 10.001, 47.0, 250.0)
CHARACTERS = {3: [0, 1, -1], 4: [0, 1, 0, -1], 7: [0, 1, 1, -1, 1, -1, -1]}  # chi(0), ..., chi(q - 1)
L_POINTS = ((3, 0.5, 140.0), (7, 0.5, 148.0))
ZETA_ZERO_COUNT = 79  # every zeta zero up to t = 200
BETA_T_MAX, BETA_SCAN_STEP = 100, 0.02


def _pair(z) -> list[float]:
    return [float(mp.re(z)), float(mp.im(z))]


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
        "zeta_zeros": [float(mp.im(mp.zetazero(n))) for n in range(1, ZETA_ZERO_COUNT + 1)],
        "beta_zeros": _beta_zeros(),
    }
    generator = json.dumps(f"tools/make_test_reference.py, mpmath {mp.__version__}, 40 digits")
    body = ",\n".join(f'"{key}": [\n' + ",\n".join(map(json.dumps, rows)) + "\n]" for key, rows in tables.items())
    OUT.write_text(f'{{"generator": {generator},\n{body}}}\n', encoding="ascii")


if __name__ == "__main__":
    main()
