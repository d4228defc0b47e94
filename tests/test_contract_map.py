"""Accuracy contract over the frozen mpmath probe pool (1,000 points over
sigma in [-3, 4], |t| <= 200; the quotients and f5 on the half with
|t| <= 100), checked once as one vector call and once as scalar calls.

A scalar call must return the bits of the same point evaluated as a
one-element vector by the raw vector evaluator: there is one evaluation
path per function.  (A longer vector can differ in the last bits, because
the series length follows the largest |Im s| of the batch.)

The contract is an error of 1e-13 absolute or relative, whichever is
larger; near zeros only the absolute part can hold.  Frozen critical-line
values of small modulus (tests/mpmath_reference.json: two of L(-3) and
L(-7), and the scan-grid points next to the zeros of L(-4) and L(-8) up to
t = 200) pin it, at 1e-13 up to t = 100 and at the 4e-13 cap above; the
pool holds the relative part to 1e-12.
"""

import random

import numpy as np
import pytest

from delta_lens.evalcore import _l_values, beta_L, dirichlet_L, zeta
from delta_lens.quotient import _delta_q_values, delta5, delta_q, f5

REL_TOL = 1e-12
SCALAR_SAMPLE = 30
SAMPLE_SEED = 7

# reference key -> (public function, raw vector evaluator)
FUNCTIONS = {
    "zeta": (zeta, lambda s: _l_values((1,), s)[0]),
    "beta": (beta_L, lambda s: _l_values((4,), s)[0]),
    **{f"L{q}": (lambda s, q=q: dirichlet_L(q, s), lambda s, q=q: _l_values((q,), s)[0])
       for q in (3, 7, 8)},
    "delta5": (delta5, lambda s: _delta_q_values(4, s)),
    **{f"deltaq{q}": (lambda s, q=q: delta_q(q, s), lambda s, q=q: _delta_q_values(q, s))
       for q in (3, 7, 8)},
    "f5": (f5, f5),
}


def _pool(reference, key):
    probes = [p for p in reference["probes"] if key in p]
    s = np.array([complex(p["sigma"], p["t"]) for p in probes])
    want = np.array([complex(*p[key]) for p in probes])
    return s, want


def _rel_err(got, want):
    return np.abs(np.asarray(got) - want) / np.abs(want)


@pytest.mark.parametrize("key", sorted(FUNCTIONS))
def test_vector_call_over_pool(reference, key):
    s, want = _pool(reference, key)
    assert len(s) == (1000 if key in ("zeta", "beta", "L3", "L7", "L8") else 756)
    err = _rel_err(FUNCTIONS[key][0](s), want)
    worst = int(np.argmax(err))
    assert err[worst] <= REL_TOL, f"{key} off by {err[worst]:.2e} at s = {s[worst]}"


@pytest.mark.parametrize("key", sorted(FUNCTIONS))
def test_scalar_calls_match_vector_path_bitwise(reference, key):
    s, want = _pool(reference, key)
    public, raw = FUNCTIONS[key]
    for i in random.Random(SAMPLE_SEED).sample(range(len(s)), SCALAR_SAMPLE):
        got = public(complex(s[i]))
        assert isinstance(got, complex)
        assert _rel_err(got, want[i]) <= REL_TOL, f"{key} at s = {s[i]}"
        one = raw(s[i:i + 1])[0]
        assert (got.real, got.imag) == (one.real, one.imag), f"{key} at s = {s[i]}"


def test_dirichlet_L_error_is_absolute_below_modulus_one(mpmath_reference):
    # on the critical line near zeros of L(-3) and L(-7) (|L| = 0.011 and
    # 0.003) the relative error reaches 6e-12 while the absolute error stays
    # below 6e-14: the contract is 1e-13 absolute or relative, whichever is larger
    for q, sigma, t, re, im in mpmath_reference["dirichlet_L"]:
        want = complex(re, im)
        got = dirichlet_L(q, complex(sigma, t))
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), f"L{q} at {sigma} + {t}i"
    # the same contract next to every critical-line zero of the CVZ series
    # L(-4) and L(-8) up to t = 200, on the scan-grid points where |L| < 0.02:
    # 1e-13 up to t = 100, and the 4e-13 cap of the phase rounding above it
    rows = np.array(mpmath_reference["line_minima"])
    for q in (4, 8):
        mine = rows[rows[:, 0] == q]
        s, want = mine[:, 1] + 1j * mine[:, 2], mine[:, 3] + 1j * mine[:, 4]
        bound = np.where(s.imag <= 100.0, 1e-13, 4e-13) * np.maximum(1.0, np.abs(want))
        for got in (dirichlet_L(q, s), np.array([dirichlet_L(q, complex(p)) for p in s])):
            excess = np.abs(got - want) / bound
            worst = int(np.argmax(excess))
            assert excess[worst] <= 1.0, f"L{q} off by {abs(got[worst] - want[worst]):.2e} at s = {s[worst]}"
