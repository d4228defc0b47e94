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
  absolute rather than relative.

Values are computed at 40 digits and written as 17-digit decimals.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parents[1] / "tests" / "mpmath_reference.json"
LOG_GAMMA_RE = (-2.5, -1e-9, 0.0, 0.5, 9.5, 10.0)
LOG_GAMMA_IM = (-250.0, -47.0, -10.001, -10.0, -9.999, 9.999, 10.0, 10.001, 47.0, 250.0)
CHARACTERS = {3: [0, 1, -1], 7: [0, 1, 1, -1, 1, -1, -1]}  # chi(0), ..., chi(q - 1)
L_POINTS = ((3, 0.5, 140.0), (7, 0.5, 148.0))


def _pair(z) -> list[float]:
    return [float(mp.re(z)), float(mp.im(z))]


def main() -> None:
    mp.mp.dps = 40
    tables = {
        "log_gamma": [[x, y, *_pair(mp.loggamma(mp.mpc(x, y)))] for x in LOG_GAMMA_RE for y in LOG_GAMMA_IM],
        "dirichlet_L": [[q, x, y, *_pair(mp.dirichlet(mp.mpc(x, y), CHARACTERS[q]))] for q, x, y in L_POINTS],
    }
    generator = json.dumps(f"tools/make_test_reference.py, mpmath {mp.__version__}, 40 digits")
    body = ",\n".join(f'"{key}": [\n' + ",\n".join(map(json.dumps, rows)) + "\n]" for key, rows in tables.items())
    OUT.write_text(f'{{"generator": {generator},\n{body}}}\n', encoding="ascii")


if __name__ == "__main__":
    main()
