"""One benchmark run of one workload, in this process: set up, warm up, then
a closed loop with a single client that issues the next op only after the
previous one returns, checking every op against the frozen references.

    python3 benchmark/workloads.py --workload portrait --seed 1 --seconds 55 \
        --trace 0 --spawned-at <time.monotonic() of the parent at spawn>

benchmark/run.py starts this script in a child process with a clean thread
environment; run it directly only to debug.  The last stdout line is one
JSON object with the run's raw results.

Workloads (inputs come only from --seed; each draw is stratified so that a
short run still covers the whole input range):

* portrait: 150x300 portraits of sigma in [-1, 2], t in [t0, t0 + 30],
  t0 in [0, 70].  Three ops in four are a phase portrait of delta5 plus
  meeting-point detection, one in four an amplitude portrait of delta_q,
  q in {3, 7, 8}.  Every op writes its PPM.
* lines-census: three line ops to one census session.  A line op is a
  phase-zero trace (n in [1, 21]) plus CSV export, an amplitude-one trace
  (n in [1, 21]) plus CSV export, or a winding count over the box between
  phase lines n and n + 1 (n in [1, 20]).  n stops at 21 because the window
  catalog ends at t = 100: line 22 ends at 100.63 and raises
  NoCatalogMatch.  A census session at T in [10, 100] builds the zeta
  catalog to 2T and the beta catalog to T, checks the census identity,
  saves, loads and re-saves both, builds the delta5_merged catalog to T,
  and makes 50 scalar probes and 10 `eval` CLI probes.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from delta_lens import census, cli, contours, evalcore, quotient, render
from delta_lens.errors import PoleError
from delta_lens.quotient import QuotientKind

# checks evaluate through these import-time bindings, so tracing never sees them
from delta_lens.quotient import delta5 as _check_delta5, delta_q as _check_delta_q

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".bench_out"

PROBE_TOL = 1e-12          # relative, scalar and CLI probes
CATALOG_TOL = 1e-8         # absolute in t, catalog ordinates
TERMINUS_TOL = 0.05        # absolute in t, phase-line termini (the library's match radius)
SPOT_CHECKS = 16           # pixel spot checks per portrait op
AXIS_SKIP = 1e-9           # spot pixels this close (relative) to a colour boundary are skipped
HOST_PROBE_S = 3.0e-3      # host_probe() on the reference host, a 2-core 2.1 GHz x86-64 VM
SETUP_HOST_PROBES = 9      # host probes after set-up, whose mean scales setup_s

SIZES = {  # full and smoke (self-test) sizes
    False: {"width": 150, "height": 300, "t0_max": 70.0, "n_max": 21,
            "T": (10.0, 100.0), "probes": 50, "cli_probes": 10},
    True: {"width": 30, "height": 60, "t0_max": 10.0, "n_max": 3,
           "T": (10.0, 15.0), "probes": 6, "cli_probes": 2},
}


# ----------------------------------------------------------------- references

class Reference:
    """The frozen fixture written by make_reference.py."""

    def __init__(self):
        with open(REFERENCE, encoding="ascii") as fh:
            raw = json.load(fh)
        self.zeta = raw["zeta_zeros"]
        self.beta = raw["beta_zeros"]
        merged = ([(t, "zero") for t in self.zeta if t <= 100.0]
                  + [(t, "zero") for t in self.beta]
                  + [(0.5 * t, "pole") for t in self.zeta])
        merged.sort()
        self.merged_t = [t for t, _ in merged]
        self.merged_kind = [k for _, k in merged]
        self.probes = raw["probes"]
        self.quotient_probes = [i for i, p in enumerate(self.probes) if "delta5" in p]

    def nearest_merged(self, t):
        i = bisect.bisect_left(self.merged_t, t)
        best = min((j for j in (i - 1, i) if 0 <= j < len(self.merged_t)),
                   key=lambda j: abs(self.merged_t[j] - t))
        return self.merged_t[best], self.merged_kind[best]


def _catalog_errors(got, want, t_max):
    """Failures and worst absolute error of catalogued ordinates `got`
    against frozen ordinates `want`, over (0, t_max]; frozen ordinates within
    1e-6 of the cut may fall on either side of it."""
    want = [t for t in want if t <= t_max + 1e-6]
    fails, worst = [], 0.0
    for t in got:
        j = bisect.bisect_left(want, t)
        err = min((abs(want[k] - t) for k in (j - 1, j) if 0 <= k < len(want)), default=math.inf)
        worst = max(worst, err)
        if err > CATALOG_TOL:
            fails.append(f"ordinate {t:.12g} is {err:.3g} from the nearest frozen ordinate")
    missing = len([t for t in want if t < t_max - 1e-6]) - len(got)
    if missing > 0:
        fails.append(f"{missing} frozen ordinates below {t_max:g} are missing")
    return fails, worst


# ------------------------------------------------------------------ op inputs

def _stratified(rng, lo, hi, strata):
    # each block of `strata` draws visits every stratum once, in seeded order
    width = (hi - lo) / strata
    while True:
        order = list(range(strata))
        rng.shuffle(order)
        for k in order:
            yield lo + width * (k + rng.random())


def _cycled(rng, items):
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def portrait_ops(seed, smoke):
    size = SIZES[smoke]
    rng = random.Random(f"portrait-{seed}")
    kinds = _cycled(rng, ["phase", "phase", "phase", "amplitude"])
    phase_t0 = _stratified(rng, 0.0, size["t0_max"], 7)
    amp = _cycled(rng, [(q, k) for q in (3, 7, 8) for k in range(3)])
    while True:
        kind = next(kinds)
        if kind == "phase":
            yield {"kind": kind, "q": 4, "t0": next(phase_t0), "spot_seed": rng.getrandbits(32)}
        else:
            q, k = next(amp)
            t0 = size["t0_max"] * (k + rng.random()) / 3.0
            yield {"kind": kind, "q": q, "t0": t0, "spot_seed": rng.getrandbits(32)}


def lines_ops(seed, smoke):
    n_max = SIZES[smoke]["n_max"]
    rng = random.Random(f"lines-{seed}")
    kinds = _cycled(rng, ["phase", "amplitude", "box"])
    phase_n = _cycled(rng, range(1, n_max + 1))
    amp_n = _cycled(rng, range(1, n_max + 1))
    traced, boxes = set(), 0
    while True:
        kind = next(kinds)
        if kind == "phase":
            n = next(phase_n)
            traced.add(n)
        elif kind == "amplitude":
            n = next(amp_n)
        else:
            # every other box is bounded by two lines traced earlier in the run
            seen = [n for n in range(1, n_max) if n in traced and n + 1 in traced]
            fresh = [n for n in range(1, n_max) if n not in seen]
            pool = (seen if boxes % 2 == 0 else fresh) or list(range(1, n_max))
            n = rng.choice(pool)
            boxes += 1
        yield {"kind": kind, "n": n}


_PROBE_FUNCS = ("zeta", "beta", "Lq", "delta5", "deltaq", "f5")
_QUOTIENT_FUNCS = ("delta5", "deltaq", "f5")


def census_ops(seed, smoke, ref):
    size = SIZES[smoke]
    rng = random.Random(f"census-{seed}")
    heights = _stratified(rng, *size["T"], 9)
    funcs = _cycled(rng, _PROBE_FUNCS)
    qs = _cycled(rng, (3, 7, 8))
    everywhere = range(len(ref.probes))

    def probe():
        fn = next(funcs)
        pool = ref.quotient_probes if fn in _QUOTIENT_FUNCS else everywhere
        return [fn, next(qs) if fn in ("Lq", "deltaq") else None, rng.choice(pool)]

    while True:
        yield {"kind": "census", "T": next(heights),
               "probes": [probe() for _ in range(size["probes"])],
               "cli": [probe() for _ in range(size["cli_probes"])]}


def lines_census_ops(seed, smoke, ref):
    # three line ops (phase, amplitude, box) to one census session
    rng = random.Random(f"lines-census-{seed}")
    streams = {"lines": lines_ops(seed, smoke), "census": census_ops(seed, smoke, ref)}
    for family in _cycled(rng, ["lines", "lines", "lines", "census"]):
        yield next(streams[family])


WARMUP = {  # seed-independent first op, untimed, so setup time does not depend on the seed
    "portrait": {"kind": "phase", "q": 4, "t0": 0.0, "spot_seed": 0},
    "lines-census": {"kind": "census", "T": 10.0, "cli": [],
                     "probes": [[fn, 3 if fn in ("Lq", "deltaq") else None, 1]
                                for fn in _PROBE_FUNCS]},
}


# ------------------------------------------------------------------------ ops

def _probe_value(fn, q, s):
    if fn == "zeta":
        return evalcore.zeta(s)
    if fn == "beta":
        return evalcore.beta_L(s)
    if fn == "Lq":
        return evalcore.dirichlet_L(q, s)
    if fn == "delta5":
        return quotient.delta5(s)
    if fn == "deltaq":
        return quotient.delta_q(QuotientKind(q), s)
    return quotient.f5(s)


def _cli_value(fn, q, s):
    im = repr(s.imag) if s.imag < 0 else "+" + repr(s.imag)
    argv = ["eval", "--function", fn, f"--s={s.real!r}{im}i", "--format", "json"]
    if q is not None:
        argv += ["--q", str(q)]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        raise RuntimeError(f"cli usage error for {' '.join(argv)}") from exc
    if code != 0:
        raise RuntimeError(f"cli exit code {code} for {' '.join(argv)}")
    out = json.loads(buf.getvalue())
    return complex(out["re"], out["im"])


def _ref_key(fn, q):
    return {"zeta": "zeta", "beta": "beta", "Lq": f"L{q}", "delta5": "delta5",
            "deltaq": f"deltaq{q}", "f5": "f5"}[fn]


class Workload:
    def __init__(self, name, seed, smoke, ref, workdir):
        self.name, self.ref, self.workdir = name, ref, workdir
        self.size = SIZES[smoke]
        self.recall = [0, 0]          # detected, isolated reference points (portrait)
        if name == "portrait":
            self.stream = portrait_ops(seed, smoke)
        else:
            self.stream = lines_census_ops(seed, smoke, ref)

    def _family(self, op):
        if self.name == "portrait":
            return "portrait"
        return "census" if op["kind"] == "census" else "lines"

    def execute(self, op):
        return getattr(self, "_run_" + self._family(op))(op)

    def check(self, op, out):
        """Failure messages and the op's accuracy errors (a list, maybe empty)."""
        return getattr(self, "_check_" + self._family(op))(op, out)

    # portrait
    def _spec(self, op):
        return render.PortraitSpec(
            sigma_min=-1.0, sigma_max=2.0, t_min=op["t0"], t_max=op["t0"] + 30.0,
            width=self.size["width"], height=self.size["height"],
            mode="phase_quadrant" if op["kind"] == "phase" else "amplitude",
            function=QuotientKind(op["q"]))

    def _run_portrait(self, op):
        spec = self._spec(op)
        points = None
        if op["kind"] == "phase":
            grid = render.render_phase_quadrants(spec)
            points = render.locate_quadrant_meeting_points(grid, spec)
        else:
            grid = render.render_amplitude(spec)
        path = self.workdir / "portrait.ppm"
        render.write_ppm(grid, path)
        return {"spec": spec, "points": points, "path": path}

    def _check_portrait(self, op, out):
        spec, path = out["spec"], out["path"]
        w, h = spec.width, spec.height
        header = f"P6\n{w} {h}\n255\n".encode("ascii")
        data = path.read_bytes()
        if len(data) != len(header) + 3 * w * h or not data.startswith(header):
            return [f"PPM is {len(data)} bytes, want header + 3*{w}*{h}"], []
        pix = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(h, w, 3)
        fails = []
        dsig, dt = spec.pixel_size()
        rng = random.Random(op["spot_seed"])
        for _ in range(SPOT_CHECKS):
            i, j = rng.randrange(w), rng.randrange(h)
            s = complex(spec.sigma_min + (i + 0.5) * dsig, spec.t_max - (j + 0.5) * dt)
            try:
                v = complex(_check_delta5(s) if op["q"] == 4 else _check_delta_q(op["q"], s))
            except PoleError:
                continue
            want = (_phase_rgb if op["kind"] == "phase" else _amplitude_rgb)(v)
            if want is not None and tuple(pix[j, i]) != want:
                fails.append(f"pixel ({i}, {j}) at s = {s} is {tuple(int(c) for c in pix[j, i])}, "
                             f"palette gives {want} for value {v}")
        if out["points"] is None:
            return fails, []
        pitch = max(dsig, dt)
        errors = []
        for sig, t in out["points"]:
            if abs(sig - 0.5) > 2.0 * pitch:
                continue
            t_ref, _ = self.ref.nearest_merged(t)
            errors.append(abs(t - t_ref))
            if abs(t - t_ref) > 2.0 * pitch:
                fails.append(f"detected point ({sig:.4f}, {t:.4f}) is {abs(t - t_ref):.3f} "
                             "from the nearest frozen ordinate")
        # recall over isolated reference points away from the window's t edges
        refs = self.ref.merged_t
        for k, t_ref in enumerate(refs):
            if not spec.t_min + 2 * pitch <= t_ref <= spec.t_max - 2 * pitch:
                continue
            if any(0 <= m < len(refs) and abs(refs[m] - t_ref) < 2 * pitch for m in (k - 1, k + 1)):
                continue
            self.recall[1] += 1
            if any(math.hypot(sig - 0.5, t - t_ref) <= 2 * pitch for sig, t in out["points"]):
                self.recall[0] += 1
        return fails, errors

    # lines
    def _run_lines(self, op):
        n = op["n"]
        if op["kind"] == "box":
            return {"report": contours.argument_principle_box(n, n + 1)}
        trace = (contours.trace_phase_zero_line if op["kind"] == "phase"
                 else contours.trace_amplitude_one_line)
        path = trace(n)
        csv = self.workdir / "line.csv"
        contours.export_trace_csv(path, csv)
        return {"path": path, "csv": csv}

    def _check_lines(self, op, out):
        if op["kind"] == "box":
            got = out["report"].zeros_minus_poles
            return ([] if got == 0 else [f"box {op['n']}..{op['n'] + 1} winds {got}, want 0"]), []
        path, fails = out["path"], []
        rows = out["csv"].read_text(encoding="ascii").splitlines()
        if rows[0] != "sigma,t,phase,modulus" or len(rows) != len(path.points) + 1:
            fails.append(f"CSV has {len(rows)} lines for {len(path.points)} points")
        t_star = path.terminus_t
        if op["kind"] == "phase":
            t_ref, kind = self.ref.nearest_merged(t_star)
            err = abs(t_star - t_ref)
            got = path.terminus_point
            if err > TERMINUS_TOL:
                fails.append(f"terminus {t_star:.6f} is {err:.4f} from frozen ordinate {t_ref:.6f}")
            elif got is None or got.kind != kind or abs(got.t - t_ref) > CATALOG_TOL:
                fails.append(f"terminus {t_star:.6f} matched {got}, frozen {kind} at {t_ref:.10f}")
            # accuracy of the catalogued terminus ordinate, which downstream
            # pairing uses; the traced crossing itself is held to 0.05 above
            return fails, [abs(got.t - t_ref) if got is not None else err]
        below = [t for t in self.ref.merged_t if t < t_star]
        above = [t for t in self.ref.merged_t if t > t_star]
        if not below or not above or min(t_star - below[-1], above[0] - t_star) <= 1e-9:
            fails.append(f"amplitude terminus {t_star:.6f} is not strictly between frozen ordinates")
        return fails, []

    # census
    def _run_census(self, op):
        T = op["T"]
        cz = census.build_catalog("zeta", 2.0 * T)
        cb = census.build_catalog("beta", T)
        doubled, split = census.census_identity_check(T, {"zeta": cz, "beta": cb})
        files = []
        for name, cat in (("zeta", cz), ("beta", cb)):
            first, again = self.workdir / f"{name}.jsonl", self.workdir / f"{name}-resaved.jsonl"
            census.save_catalog(cat, first)
            census.save_catalog(census.load_catalog(first), again)
            files.append((first, again))
        merged = census.build_catalog("delta5_merged", T)
        probes = []
        for fn, q, k in op["probes"]:
            p = self.ref.probes[k]
            probes.append(complex(_probe_value(fn, q, complex(p["sigma"], p["t"]))))
        cli_probes = []
        for fn, q, k in op["cli"]:
            p = self.ref.probes[k]
            cli_probes.append(_cli_value(fn, q, complex(p["sigma"], p["t"])))
        return {"catalogs": (cz, cb, merged), "identity": (doubled, split), "files": files,
                "probes": probes, "cli": cli_probes}

    def _check_census(self, op, out):
        T = op["T"]
        cz, cb, merged = out["catalogs"]
        fails, worst = [], 0.0
        for label, cat, want, t_max in (
                ("zeta", cz, self.ref.zeta, 2.0 * T), ("beta", cb, self.ref.beta, T),
                ("delta5_merged", merged, self.ref.merged_t, T)):
            f, err = _catalog_errors([e.t for e in cat.entries], want, t_max)
            fails += [f"{label} catalog to {t_max:g}: {m}" for m in f]
            worst = max(worst, err)
        for e in merged.entries:
            t_ref, kind = self.ref.nearest_merged(e.t)
            if abs(t_ref - e.t) <= CATALOG_TOL and kind != e.kind:
                fails.append(f"delta5_merged entry at {e.t:.10f} is a {e.kind}, frozen says {kind}")
        doubled, split = out["identity"]
        if abs(doubled.counted - split.counted) > 1:
            fails.append(f"census identity off by {doubled.counted - split.counted} at T = {T:g}")
        for first, again in out["files"]:
            if first.read_bytes() != again.read_bytes():
                fails.append(f"re-saved {first.name} differs from the first save")
        for label, specs, values in (("probe", op["probes"], out["probes"]),
                                     ("cli probe", op["cli"], out["cli"])):
            for (fn, q, k), v in zip(specs, values):
                p = self.ref.probes[k]
                want = complex(*p[_ref_key(fn, q)])
                err = abs(v - want) / abs(want)
                worst = max(worst, err)
                if not err <= PROBE_TOL:
                    fails.append(f"{label} {fn}{'' if q is None else q} at "
                                 f"{complex(p['sigma'], p['t'])!r}: relative error {err:.3g}")
        return fails, [worst]


def _phase_rgb(v):
    # render's quadrant palette; None within AXIS_SKIP of an axis
    if abs(v.real) <= AXIS_SKIP * abs(v) or abs(v.imag) <= AXIS_SKIP * abs(v):
        return None
    if v.real > 0:
        return render.Q1_RGB if v.imag > 0 else render.Q4_RGB
    return render.Q2_RGB if v.imag > 0 else render.Q3_RGB


def _amplitude_rgb(v):
    # render's amplitude palette; None where a band edge or rounding is too close
    mod = abs(v)
    for edge in (1.0 - 1e-3, 1.0 + 1e-3):
        if abs(mod - edge) <= AXIS_SKIP * edge:
            return None
    if abs(mod - 1.0) <= 1e-3:
        return render.WHITE
    level = 128.0 + 127.0 * min(1.0, abs(math.log10(mod)))
    if abs(level - math.floor(level) - 0.5) <= 1e-6:
        return None  # rounding half-way: either neighbour is right
    return (0, 0, int(round(level))) if mod > 1.0 else (0, int(round(level)), 0)


# ---------------------------------------------------------------------- loop

def run_op(work, op):
    """Run and check one op; a failing op is recorded, never aborts the run."""
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out, exc = work.execute(op), None
    except Exception as err:
        out, exc = None, err
    latency = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    rec = {"op": op, "latency": latency, "cpu": cpu, "failures": [], "errors": []}
    if exc is None:
        try:
            rec["failures"], rec["errors"] = work.check(op, out)
        except Exception as err:
            exc = err
    if exc is not None:
        rec["failures"].append(f"{type(exc).__name__}: {exc}")
        rec["exception"] = type(exc).__name__
        rec["traceback"] = "".join(traceback.format_exception(exc))
    return rec


def host_probe():
    """Seconds a fixed pure-Python loop that does not use delta_lens takes
    now.  The host's speed drifts by more than the bounds allow (see
    README.md), and of the probes tried this loop tracked the op latencies
    best, so timings are reported at the reference speed HOST_PROBE_S."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i
    return time.perf_counter() - t0


def closed_loop(work, seconds):
    """The workload's ops, one at a time, until `seconds` have passed."""
    deadline = time.monotonic() + seconds
    for index, op in enumerate(work.stream):
        if time.monotonic() >= deadline:
            return
        yield index, op


def tail(latencies):
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1  # too few ops: the maximum
    return xs[k], 100.0 * (k + 1) / len(xs)


def end_to_end(records, workload, scale):
    """The end-to-end metrics, with op latency and CPU time multiplied by
    `scale`."""
    lat = [r["latency"] * scale for r in records]
    # a non-finite error (a NaN value, nothing to compare with) counts as 1
    errs = [e if math.isfinite(e) else 1.0 for r in records for e in r["errors"]]
    failed = sum(1 for r in records if r["failures"])
    tail_s, pct = tail(lat)
    # worst error against the frozen references; on portrait, where the error
    # is a detected point's distance in t and is limited by the pixel pitch,
    # the median over all detections.  No error at all (every op failed)
    # reads as 0 digits.
    if not errs:
        error = 1.0
    else:
        error = max(statistics.median(errs) if workload == "portrait" else max(errs), 1e-17)
    return {
        "throughput_ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "cpu_s_per_op": scale * sum(r["cpu"] for r in records) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (len(records) - failed) / len(records),
        "accuracy_digits": -math.log10(error),
    }, {"tail_percentile": pct, "n": len(lat)}


def environment():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads_env": {k: os.environ.get(k) for k in
                            ("DELTA_LENS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def main(argv=None):
    ap = argparse.ArgumentParser(description="one benchmark run, in this process")
    ap.add_argument("--workload", required=True, choices=tuple(WARMUP))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    t_fixture = time.monotonic()
    ref = Reference()
    fixture_s = time.monotonic() - t_fixture
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        work = Workload(args.workload, args.seed, args.smoke, ref, workdir)
        warm = dict(WARMUP[args.workload])
        if args.smoke and warm["kind"] == "census":
            warm["T"] = SIZES[True]["T"][0]
        run_op(work, warm)
        raw_setup_s = time.monotonic() - args.spawned_at - fixture_s
        setup_probe = statistics.mean(host_probe() for _ in range(SETUP_HOST_PROBES))
        setup = {"setup_s": raw_setup_s * HOST_PROBE_S / setup_probe,
                 "raw_setup_s": raw_setup_s, "host_probe_s": setup_probe}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = {**setup, "env": environment()}
        if args.trace:
            from tracing import Tracer, layer_metrics
            # each op runs untraced and traced, in alternating order, so drift
            # during the run cancels out of the tracing overhead (the median of
            # the per-op ratios)
            tracer, plain, traced = Tracer(), [], []
            for index, op in closed_loop(work, args.seconds):
                for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                    if not with_trace:
                        plain.append(run_op(work, op))
                        continue
                    tracer.op = index
                    tracer.install()
                    try:
                        traced.append(run_op(work, op))
                    finally:
                        tracer.uninstall()
            records = plain + traced
            metrics = layer_metrics(tracer.spans, len(traced))
            plain_s = sum(r["latency"] for r in plain)
            traced_s = sum(r["latency"] for r in traced)
            metrics["render.detect.recall"] = (work.recall[0] / work.recall[1]
                                               if work.recall[1] else 0.0)
            metrics["trace.overhead_pct"] = 100.0 * statistics.median(
                b["latency"] / a["latency"] - 1.0 for a, b in zip(plain, traced))
            metrics["trace.untraced_ms_per_op"] = 1e3 * plain_s / len(plain)
            metrics["trace.traced_ms_per_op"] = 1e3 * traced_s / len(traced)
            spans = OUT / f"spans-{args.workload}-{args.seed}.json"
            tracer.dump(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
        else:
            records, probes = [], []
            for _, op in closed_loop(work, args.seconds):
                probes.append(host_probe())
                records.append(run_op(work, op))
            result["host_probe_s"] = statistics.mean(probes)
            metrics, result["tail"] = end_to_end(records, args.workload,
                                                 HOST_PROBE_S / result["host_probe_s"])
            result["raw_metrics"] = end_to_end(records, args.workload, 1.0)[0]
            result["op_samples"] = [[r["latency"], r["cpu"], p] for r, p in zip(records, probes)]
        result["metrics"] = metrics
        result["attempted"] = len(records)
        result["failed_ops"] = [
            {"index": i, "op": r["op"], "exception": r.get("exception"),
             "failures": r["failures"], "traceback": r.get("traceback")}
            for i, r in enumerate(records) if r["failures"]]
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
