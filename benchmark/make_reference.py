"""Write the frozen references the benchmark checks against.

Usage (from the repository root; needs mpmath, which neither delta_lens nor
the benchmark runs depend on):

    python3 benchmark/make_reference.py

The fixture holds

* zeta zero ordinates up to t = 200 (mpmath.zetazero);
* Dirichlet beta zero ordinates up to t = 100, from sign changes of the
  completed beta function on the critical line, refined by bisection;
* a pool of 1,000 probe points over sigma in [-3, 4]: half with |t| <= 200 and
  half with |t| <= 100.  Every point carries zeta, beta, L(-3), L(-7) and
  L(-8); points with |t| <= 100 also carry delta5, delta_q for q = 3, 7, 8
  and the reflection factor f5 (the quotients' denominator zeta(2s - 1/2)
  sits at twice the height, so they stop at 100).

Values are computed at 30 digits; every tenth point is recomputed at 45
digits and must agree to 1e-20 relative, or the script fails.  The pool is
drawn from a fixed seed, so rerunning the script reproduces the file.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parent / "reference.json"
POINTS = 1000
POOL_SEED = 20130828
CHARACTERS = {  # chi(0), chi(1), ..., chi(q - 1) for the real odd characters
    3: [0, 1, -1],
    4: [0, 1, 0, -1],
    7: [0, 1, 1, -1, 1, -1, -1],
    8: [0, 1, 0, 1, 0, -1, 0, -1],
}
ZETA_T_MAX = 200.0
BETA_T_MAX = 100.0
QUOTIENT_T_MAX = 100.0


def zeta_zero_ordinates(t_max: float) -> list[float]:
    out = []
    n = 1
    while True:
        t = mp.im(mp.zetazero(n))
        if t > t_max:
            return out
        out.append(float(t))
        n += 1


def _completed_beta_on_line(t):
    s = mp.mpc(0.5, t)
    w = (s + 1) / 2
    return mp.re(mp.power(mp.pi / 4, -w) * mp.gamma(w) * mp.dirichlet(s, CHARACTERS[4]))


def beta_zero_ordinates(t_max: float, step: float = 0.02) -> list[float]:
    out = []
    n = int(round(t_max / step))
    lo, flo = mp.mpf(step), _completed_beta_on_line(step)
    for k in range(2, n + 1):
        hi = mp.mpf(k * step)
        fhi = _completed_beta_on_line(hi)
        if flo * fhi < 0:
            a, b, fa = lo, hi, flo
            while b - a > mp.mpf(10) ** -20:
                m = (a + b) / 2
                fm = _completed_beta_on_line(m)
                if fa * fm <= 0:
                    b = m
                else:
                    a, fa = m, fm
            out.append(float((a + b) / 2))
        lo, flo = hi, fhi
    return out


def _values(s) -> dict[str, object]:
    z = mp.zeta(s)
    L = {q: mp.dirichlet(s, chi) for q, chi in CHARACTERS.items()}
    vals = {"zeta": z, "beta": L[4], "L3": L[3], "L7": L[7], "L8": L[8]}
    if abs(mp.im(s)) <= QUOTIENT_T_MAX:
        den = mp.zeta(2 * s - mp.mpf(0.5))
        vals["delta5"] = z * L[4] / den
        vals["deltaq3"] = z * L[3] * (1 - mp.power(mp.mpf(3) / 4, s - mp.mpf(0.5))) / den
        for q in (7, 8):
            vals[f"deltaq{q}"] = z * L[q] / (den * (1 - mp.power(mp.mpf(4) / q, s - mp.mpf(0.5))))
        vals["f5"] = (mp.gamma(1 - s) * mp.gamma(s - mp.mpf(0.25))
                      / (mp.gamma(s) * mp.gamma(mp.mpf(0.75) - s)))
    return vals


def probe_pool(count: int) -> list[dict]:
    rng = random.Random(POOL_SEED)
    pool = []
    for i in range(count):
        bound = ZETA_T_MAX if i % 2 == 0 else QUOTIENT_T_MAX
        sigma = rng.uniform(-3.0, 4.0)
        t = rng.uniform(-bound, bound)
        s = mp.mpc(sigma, t)
        mp.mp.dps = 30
        vals = _values(s)
        if i % 10 == 0:
            mp.mp.dps = 45
            check = _values(s)
            for name, v in vals.items():
                if abs(v - check[name]) > mp.mpf(10) ** -20 * abs(check[name]):
                    raise RuntimeError(f"{name} at {sigma}+{t}i is unstable across precisions")
            mp.mp.dps = 30
        pool.append({"sigma": sigma, "t": t,
                     **{name: [float(mp.re(v)), float(mp.im(v))] for name, v in vals.items()}})
        if (i + 1) % 50 == 0:
            print(f"  {i + 1}/{count} probe points", file=sys.stderr, flush=True)
    return pool


def main() -> int:
    start = time.time()
    mp.mp.dps = 30
    zeta_zeros = zeta_zero_ordinates(ZETA_T_MAX)
    print(f"{len(zeta_zeros)} zeta zeros to t = {ZETA_T_MAX}", file=sys.stderr, flush=True)
    beta_zeros = beta_zero_ordinates(BETA_T_MAX)
    print(f"{len(beta_zeros)} beta zeros to t = {BETA_T_MAX}", file=sys.stderr, flush=True)
    pool = probe_pool(POINTS)
    fixture = {
        "generator": "benchmark/make_reference.py",
        "mpmath_version": mp.__version__,
        "dps": 30,
        "pool_seed": POOL_SEED,
        "zeta_zeros": zeta_zeros,
        "zeta_zeros_t_max": ZETA_T_MAX,
        "beta_zeros": beta_zeros,
        "beta_zeros_t_max": BETA_T_MAX,
        "probes": pool,
    }
    with open(OUT, "w", encoding="ascii") as fh:
        json.dump(fixture, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {OUT.name} in {time.time() - start:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
