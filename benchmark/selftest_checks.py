"""Corruption checks for the benchmark's per-op checks: one tiny op per
workload passes its check as produced, and fails it once its output is
corrupted (a flipped pixel, a perturbed catalog ordinate or probe value,
a wrong winding).  Started by `python3 benchmark/run.py --selftest`;
exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import dataclasses
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

from delta_lens.errors import PoleError
from workloads import (OUT, SPOT_CHECKS, Reference, Workload, _check_delta5, _phase_rgb,
                       render)


def _first_checked_pixel(out, op):
    # the spot pixel the check will compare first (same draws as the check)
    spec = out["spec"]
    dsig, dt = spec.pixel_size()
    rng = random.Random(op["spot_seed"])
    for _ in range(SPOT_CHECKS):
        i, j = rng.randrange(spec.width), rng.randrange(spec.height)
        s = complex(spec.sigma_min + (i + 0.5) * dsig, spec.t_max - (j + 0.5) * dt)
        try:
            if _phase_rgb(complex(_check_delta5(s))) is not None:
                return i, j
        except PoleError:
            pass
    raise RuntimeError("no checkable spot pixel")


def _flip_pixel(out, op):
    spec, path = out["spec"], out["path"]
    i, j = _first_checked_pixel(out, op)
    data = bytearray(path.read_bytes())
    at = len(data) - 3 * spec.width * spec.height + 3 * (j * spec.width + i)
    was = tuple(data[at:at + 3])
    data[at:at + 3] = bytes(render.Q1_RGB if was != render.Q1_RGB else render.Q3_RGB)
    path.write_bytes(bytes(data))


def _perturb_ordinate(out, op):
    cz, cb, merged = out["catalogs"]
    first = dataclasses.replace(cz.entries[0], t=cz.entries[0].t + 1e-6)
    out["catalogs"] = (dataclasses.replace(cz, entries=(first,) + cz.entries[1:]), cb, merged)


def _perturb_probe(out, op):
    out["probes"][0] *= 1.0 + 1e-10


def _wrong_winding(out, op):
    out["report"] = dataclasses.replace(out["report"], total_arg_change=2.0 * math.pi,
                                        zeros_minus_poles=1)


CASES = [
    ("portrait", {"kind": "phase", "q": 4, "t0": 5.0, "spot_seed": 7}, "flipped pixel", _flip_pixel),
    ("lines-census", None, "perturbed catalog ordinate", _perturb_ordinate),
    ("lines-census", None, "perturbed probe value", _perturb_probe),
    ("lines-census", {"kind": "box", "n": 1}, "wrong winding", _wrong_winding),
]


def main():
    ref = Reference()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=OUT)
    bad = 0
    try:
        for name, op, what, corrupt in CASES:
            work = Workload(name, 1, True, ref, Path(workdir))
            op = op or next(o for o in work.stream if o["kind"] == "census")
            out = work.execute(op)
            clean, _ = work.check(op, out)
            corrupt(out, op)
            dirty, _ = work.check(op, out)
            ok = not clean and bool(dirty)
            bad += not ok
            print(f"corruption check {name} / {what}: "
                  f"{'ok' if ok else 'NOT DETECTED'} (clean {clean}, corrupted {dirty[:1]})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
