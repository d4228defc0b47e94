"""Print sha256 digests of the numbers delta-lens computes, one line each.

    python3 tools/value_digest.py

Run it on two checkouts and diff the output: an identical line means the
values are identical bit for bit.  It covers

* zeta, beta_L, dirichlet_L and the raw quotient _delta_q_values for
  q = 3, 4, 7, 8 on the probe pool of benchmark/reference.json, evaluated
  as one vector, in 3-point batches and in 1-point batches;
* the same functions on a 30 x 40 grid (the grid matrix-product path);
* the tracing kernel quotient._delta5_log_derivatives (delta5 and the first
  two derivatives of its log) on the probe-pool points with sigma >= 0.495,
  as one vector and in 3-point batches;
* the raw critical-line scan values critical._line_values of zeta on the
  0..200 and of beta on the 0..100 scan grid of find_zeros (the line
  matrix-product path);
* find_zeros for zeta and beta and the zeta, beta and delta5_merged
  catalogs;
* the residues at the six real-axis poles and the slopes at the five
  real-axis zeros of the quotient, and bracket_phase_zeros for q = 3 and
  q = 8 as verify-all checks them;
* phase-zero and amplitude-one traces for n = 1..21, each with its own
  window catalog;
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
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from delta_lens import census, contours, critical, evalcore, render  # noqa: E402
from delta_lens.quotient import (QuotientKind, _delta5_log_derivatives, _delta_q_values,  # noqa: E402
                                 bracket_phase_zeros)

QS = (3, 4, 7, 8)
LINES = range(1, 22)


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


def _portraits():
    yield "phase/600x1200/criterion12", render.PortraitSpec(-1.0, 2.0, 0.0, 60.0, 600, 1200, "phase_quadrant")
    for t0 in (0.0, 35.0, 70.0):
        yield f"phase/150x300/{t0:g}", render.PortraitSpec(-1.0, 2.0, t0, t0 + 30.0, 150, 300, "phase_quadrant")
    for q in (3, 7, 8):
        yield f"amplitude{q}/150x300/35", render.PortraitSpec(-1.0, 2.0, 35.0, 65.0, 150, 300, "amplitude",
                                                              QuotientKind(q))


def main() -> None:
    with open(ROOT / "benchmark" / "reference.json", encoding="ascii") as fh:
        probes = json.load(fh)["probes"]
    pool = np.array([complex(p["sigma"], p["t"]) for p in probes])
    sig, t = np.meshgrid(np.linspace(-1.5, 2.5, 30), np.linspace(0.5, 80.0, 40))
    grid = sig + 1j * t

    for name, fn in _functions():
        for label, batch in (("vector", pool.size), ("batch3", 3), ("batch1", 1)):
            print(f"{name}/{label} {_digest_call(_values, fn, pool, batch)}")
        print(f"{name}/grid30x40 {_digest_call(lambda: np.asarray(fn(grid)).tobytes())}")
    right = pool[pool.real >= 0.495]
    for label, batch in (("vector", right.size), ("batch3", 3)):
        digest = _digest_call(_values, lambda s: np.concatenate(_delta5_log_derivatives(s)), right, batch)
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
    for name, spec in _portraits():
        phase = spec.mode == "phase_quadrant"
        grid = (render.render_phase_quadrants if phase else render.render_amplitude)(spec)
        print(f"portrait/{name} {_digest_call(lambda: grid.pixels)}")
        if phase:
            digest = _digest_call(lambda: np.asarray(render.locate_quadrant_meeting_points(grid, spec)).tobytes())
            print(f"meeting_points/{name} {digest}")


if __name__ == "__main__":
    main()
