"""Print sha256 digests of the numbers delta-lens computes, one line each.

    python3 tools/value_digest.py

Run it on two checkouts and diff the output: an identical line means the
values are identical bit for bit.  It covers

* zeta, beta_L, dirichlet_L and the raw quotient _delta_q_values for
  q = 3, 4, 7, 8 on the probe pool of benchmark/reference.json, evaluated
  as one vector, in 3-point batches and in 1-point batches;
* the same functions on a 30 x 40 grid (the grid matrix-product path);
* the public quotient delta_q (delta5 for q = 4; pole checks and the exact
  zero at s = 3/4 included) for q = 3, 4, 7, 8, one point at a time and as
  one vector, 1e-9 right of each critical-line pole 1/2 + i gamma/2 of
  benchmark/reference.json (t up to 100) and on the probe-pool points with
  sigma >= 0.5;
* zeta, beta_L and dirichlet_L next to their trivial zeros, on the points
  of tests/mpmath_reference.json (zeta's for zeta, beta's for beta_L and
  L4, each character's for L3, L7 and L8), and zeta on its rings around
  s = 0 and next to the zeros of 1 - 2^(1-s) and 1 - 2^s there, and L3
  and L7 next to the zeros of their twist factors (twist_zeros), each as
  one vector;
* the twist factor evalcore._twist_factor of zeta, L3 and L7 at the
  argument of their rows in _l_values (s for Re s > 0, 1 - conj(s)
  below), on the probe pool as one vector and in 1-point batches, on the
  30 x 40 grid and on the 0..200 critical-line scan grid of find_zeros;
* log_gamma on the probe pool, as one vector and in 1-point batches, and
  on the boundary pool of its per-point Stirling shift in
  tests/mpmath_reference.json;
* the tracing kernel quotient._log_derivatives (delta_q and the first two
  derivatives of its log) on the probe-pool points with sigma >= 0.495: for
  q = 4 as one vector and in 3-point batches, for q = 3, 7, 8 in 3-point
  batches;
* the raw critical-line scan values critical._line_values of zeta on the
  0..200 and of beta on the 0..100 scan grid of find_zeros (the line
  matrix-product path);
* find_zeros for zeta and beta and the zeta, beta and delta5_merged
  catalogs, and the file bytes of each of those catalogs (built with a
  fixed timestamp), as save_catalog writes them after one load_catalog
  round trip;
* the residues at the six real-axis poles and the slopes at the five
  real-axis zeros of the quotient, and bracket_phase_zeros for q = 3 and
  q = 8 as verify-all checks them;
* phase-zero and amplitude-one traces for n = 1..21, each with its own
  window catalog;
* the winding reports (total argument change, winding number, largest
  edge increment) of argument_principle_box(n, n + 1) for n = 1..10 and of
  winding_count on the square (0.6..0.9) x (-0.15..0.15) around the zero
  of the quotient at s = 3/4;
* the pixel bytes of the verify-all criterion-12 portrait (600 x 1200 over
  sigma in [-1, 2], t in [0, 60]), of 150 x 300 delta5 phase portraits of
  sigma in [-1, 2], t in [t0, t0 + 30] for t0 = 0, 35, 70 and of 150 x 300
  amplitude portraits of delta_q at t0 = 35 for q = 3, 7, 8, and the
  locate_quadrant_meeting_points output of each phase portrait.

A call that raises is digested as its exception type and message.  Uses
only the standard library and numpy; imports the package from src/.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from delta_lens import census, contours, critical, evalcore, render  # noqa: E402
from delta_lens.quotient import (QuotientKind, _delta_q_values, _log_derivatives,  # noqa: E402
                                 bracket_phase_zeros, delta_q)

QS = (3, 4, 7, 8)
LINES = range(1, 22)
BOXES = range(1, 11)
SQUARE = [(0.6, -0.15), (0.9, -0.15), (0.9, 0.15), (0.6, 0.15), (0.6, -0.15)]
STAMP = "2000-01-01T00:00:00+00:00"  # catalog timestamp, so file bytes repeat
CONDUCTORS = {"zeta": 1, "beta_L": 4, **{f"L{q}": q for q in QS}}  # rows of trivial_zeros


def _functions():
    out = [("zeta", evalcore.zeta), ("beta_L", evalcore.beta_L)]
    out += [(f"L{q}", lambda s, q=q: evalcore.dirichlet_L(q, s)) for q in QS]
    out += [(f"delta_q_values{q}", lambda s, q=q: _delta_q_values(q, s)) for q in QS]
    return out


def _digest_call(fn, *args) -> str:
    try:
        data = fn(*args)
    except Exception as exc:  # the failure itself is the value to compare
        data = f"{type(exc).__name__}: {exc}".encode()
    return hashlib.sha256(data).hexdigest()


def _values(fn, s: np.ndarray, batch: int) -> bytes:
    parts = [np.asarray(fn(s[i:i + batch]), dtype=np.complex128) for i in range(0, s.size, batch)]
    return np.concatenate(parts).tobytes()


def _points_bytes(points) -> bytes:
    return b"".join(struct.pack("<dd", p.t, p.refined_to) + f"{p.kind}/{p.source}/{p.multiplicity};".encode()
                    for p in points)


def _trace_bytes(trace, n: int) -> bytes:
    path = trace(n)
    out = np.asarray(path.points, dtype=np.float64).tobytes() + struct.pack("<d", path.terminus_t)
    if path.terminus_point is not None:
        out += _points_bytes([path.terminus_point])
    return out


def _winding_bytes(report) -> bytes:
    return struct.pack("<dqd", report.total_arg_change, report.zeros_minus_poles, report.max_step_jump)


def _catalog_file_bytes(source: str, hi: float, directory: str) -> bytes:
    first, again = Path(directory) / "first.jsonl", Path(directory) / "again.jsonl"
    census.save_catalog(census.build_catalog(source, hi, timestamp=STAMP), first)
    census.save_catalog(census.load_catalog(first), again)
    return again.read_bytes()


def _portraits():
    yield "phase/600x1200/criterion12", render.PortraitSpec(-1.0, 2.0, 0.0, 60.0, 600, 1200, "phase_quadrant")
    for t0 in (0.0, 35.0, 70.0):
        yield f"phase/150x300/{t0:g}", render.PortraitSpec(-1.0, 2.0, t0, t0 + 30.0, 150, 300, "phase_quadrant")
    for q in (3, 7, 8):
        yield f"amplitude{q}/150x300/35", render.PortraitSpec(-1.0, 2.0, 35.0, 65.0, 150, 300, "amplitude",
                                                              QuotientKind(q))


def main() -> None:
    with open(ROOT / "benchmark" / "reference.json", encoding="ascii") as fh:
        reference = json.load(fh)
    probes = reference["probes"]
    pool = np.array([complex(p["sigma"], p["t"]) for p in probes])
    sig, t = np.meshgrid(np.linspace(-1.5, 2.5, 30), np.linspace(0.5, 80.0, 40))
    grid = sig + 1j * t

    for name, fn in _functions():
        for label, batch in (("vector", pool.size), ("batch3", 3), ("batch1", 1)):
            print(f"{name}/{label} {_digest_call(_values, fn, pool, batch)}")
        print(f"{name}/grid30x40 {_digest_call(lambda: np.asarray(fn(grid)).tobytes())}")
    poles = 0.5 + 0.5j * np.array(reference["zeta_zeros"])  # t up to 100
    public = np.concatenate([poles + 1e-9, pool[pool.real >= 0.5]])
    for q in QS:
        digest = _digest_call(lambda: np.array([delta_q(q, complex(s)) for s in public]).tobytes())
        print(f"delta_q/public/q{q}/scalar {digest}")
        print(f"delta_q/public/q{q}/batch {_digest_call(lambda: delta_q(q, public).tobytes())}")
    with open(ROOT / "tests" / "mpmath_reference.json", encoding="ascii") as fh:
        fixture = json.load(fh)
    trivial = np.array(fixture["trivial_zeros"])
    for name, fn in _functions():
        if name in CONDUCTORS:
            rows = trivial[trivial[:, 0] == CONDUCTORS[name]]
            points = rows[:, 1] + 1j * rows[:, 2]
            print(f"{name}/trivial_zeros {_digest_call(_values, fn, points, points.size)}")
    twist = np.array(fixture["twist_zeros"])
    for q in (3, 7):
        rows = twist[twist[:, 0] == q]
        points = rows[:, 1] + 1j * rows[:, 2]
        digest = _digest_call(_values, lambda s: evalcore.dirichlet_L(q, s), points, points.size)
        print(f"L{q}/twist_zeros {digest}")
    line = 0.5 + 1j * np.append(0.01 * np.arange(20000), 200.0)  # the scan grid of find_zeros
    for q in (1, 3, 7):
        def twist(s, q=q):
            return evalcore._twist_factor(q, np.where(s.real > 0.0, s, 1.0 - s.conj()))
        for label, points, batch in (("vector", pool, pool.size), ("batch1", pool, 1),
                                     ("grid30x40", grid.ravel(), grid.size), ("line/0-200", line, line.size)):
            print(f"twist/q{q}/{label} {_digest_call(_values, twist, points, batch)}")
    ring = np.array([complex(*row[:2]) for row in fixture["zeta_near_zero"]])
    print(f"zeta/near_zero {_digest_call(_values, evalcore.zeta, ring, ring.size)}")
    eta_zeros = np.array([complex(*row[:2]) for row in fixture["eta_zeros"]])
    print(f"zeta/eta_zeros {_digest_call(_values, evalcore.zeta, eta_zeros, eta_zeros.size)}")
    boundary = np.array([complex(*row[:2]) for row in fixture["log_gamma"]])
    for label, points, batch in (("vector", pool, pool.size), ("batch1", pool, 1),
                                 ("boundary", boundary, boundary.size)):
        print(f"log_gamma/{label} {_digest_call(_values, evalcore.log_gamma, points, batch)}")
    right = pool[pool.real >= 0.495]
    for label, q, batch in (("vector", 4, right.size), ("batch3", 4, 3), ("q3", 3, 3), ("q7", 7, 3), ("q8", 8, 3)):
        digest = _digest_call(_values, lambda s: np.concatenate(_log_derivatives(q, s)), right, batch)
        print(f"logderiv/{label} {digest}")
    for source, hi in (("zeta", 200.0), ("beta", 100.0)):
        ts = np.append(0.01 * np.arange(int(round(hi / 0.01))), hi)  # as find_zeros builds it
        digest = _digest_call(lambda: critical._line_values(source, ts).tobytes())
        print(f"line_values/{source}/0-{hi:g} {digest}")
        digest = _digest_call(lambda: _points_bytes(critical.find_zeros(source, 0.0, hi)))
        print(f"find_zeros/{source}/0-{hi:g} {digest}")
    for source, hi in (("zeta", 120.0), ("beta", 101.0), ("delta5_merged", 60.0)):
        digest = _digest_call(lambda: _points_bytes(census.build_catalog(source, hi).entries))
        print(f"catalog/{source}/{hi:g} {digest}")
        with tempfile.TemporaryDirectory() as directory:
            print(f"catalog_file/{source}/{hi:g} {_digest_call(_catalog_file_bytes, source, hi, directory)}")
    for name, feature, sigmas in (("residue", critical.residue_at_pole, critical.POLE_SIGMAS),
                                  ("slope", critical.slope_at_zero, critical.ZERO_SIGMAS)):
        for sigma in sigmas:
            digest = _digest_call(lambda: struct.pack("<d", feature(sigma).coefficient))
            print(f"{name}/{sigma:g} {digest}")
    for q, hi in ((3, 56.0), (8, 24.0)):
        digest = _digest_call(lambda: np.asarray(bracket_phase_zeros(q, 14.0, hi)).tobytes())
        print(f"bracket_phase_zeros/{q}/14/0-{hi:g} {digest}")
    for kind, trace in (("phase", contours.trace_phase_zero_line),
                        ("amplitude", contours.trace_amplitude_one_line)):
        for n in LINES:
            print(f"trace/{kind}/{n} {_digest_call(_trace_bytes, trace, n)}")
    for n in BOXES:
        print(f"box/{n} {_digest_call(lambda: _winding_bytes(contours.argument_principle_box(n, n + 1)))}")
    print(f"winding/square {_digest_call(lambda: _winding_bytes(contours.winding_count(SQUARE)))}")
    for name, spec in _portraits():
        phase = spec.mode == "phase_quadrant"
        grid = (render.render_phase_quadrants if phase else render.render_amplitude)(spec)
        print(f"portrait/{name} {_digest_call(lambda: grid.pixels)}")
        if phase:
            digest = _digest_call(lambda: np.asarray(render.locate_quadrant_meeting_points(grid, spec)).tobytes())
            print(f"meeting_points/{name} {digest}")


if __name__ == "__main__":
    main()
