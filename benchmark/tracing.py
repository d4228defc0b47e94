"""Outside-in tracing for the benchmark: spans around delta_lens's public
functions, recorded by wrapping the names where the package binds them, so
calls made inside the package are caught too and nothing under src/ changes.

A span is (name, start, end, parent span, op id) plus the counters its
wrapper reads from the call's arguments and result.  Spans stay in memory
and are written as JSON when the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are made from
one thread, so children never overlap.

Known limit: render and contours reach the kernels through the private
_delta_q_values, and critical through _zeta_values/_beta_values, so kernel
time on those paths stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import time

import numpy as np

from delta_lens import census, cli, contours, critical, evalcore, quotient, render


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _points(fn, args, kwargs, result):
    return {"points": int(np.size(_bound(fn, args, kwargs)["s"]))}


def _scan_points(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"scan_points": int(math.ceil((a["t_max"] - a["t_min"]) / a["scan_step"])) + 1}


def _trace_counts(kind):
    def count(fn, args, kwargs, result):
        return {"line": [kind, int(_bound(fn, args, kwargs)["n"])], "trace_points": len(result.points)}
    return count


def _file_bytes(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _vertices(fn, args, kwargs, result):
    return {"vertices": len(args[0])}


def _entries(fn, args, kwargs, result):
    return {"entries": len(result.entries)}


def _pixels(fn, args, kwargs, result):
    return {"pixels": args[0].width * args[0].height}


def _nothing(fn, args, kwargs, result):
    return {}


# (module, attribute, span name, counter(original function, args, kwargs, result))
_BINDINGS = [
    (evalcore, "zeta", "evalcore.zeta", _points),
    (evalcore, "beta_L", "evalcore.beta_L", _points),
    (evalcore, "dirichlet_L", "evalcore.dirichlet_L", _points),
    (cli, "zeta", "evalcore.zeta", _points),
    (cli, "beta_L", "evalcore.beta_L", _points),
    (cli, "dirichlet_L", "evalcore.dirichlet_L", _points),
    (quotient, "delta5", "quotient.delta5", _points),
    (quotient, "delta_q", "quotient.delta_q", _points),
    (quotient, "f5", "quotient.f5", _points),
    (cli, "delta5", "quotient.delta5", _points),
    (cli, "delta_q", "quotient.delta_q", _points),
    (cli, "f5", "quotient.f5", _points),
    (critical, "find_zeros", "critical.find_zeros", _scan_points),
    (census, "find_zeros", "critical.find_zeros", _scan_points),
    (census, "singular_points_delta5", "critical.singular_points_delta5", _nothing),
    (contours, "singular_points_delta5", "critical.window_scan", _nothing),
    (contours, "trace_phase_zero_line", "contours.trace", _trace_counts("phase_zero")),
    (contours, "trace_amplitude_one_line", "contours.trace", _trace_counts("amplitude_one")),
    (contours, "winding_count", "contours.winding", _vertices),
    (contours, "argument_principle_box", "contours.box", _nothing),
    (contours, "export_trace_csv", "contours.export", _file_bytes),
    (census, "build_catalog", "census.build_catalog", _entries),
    (census, "census_identity_check", "census.identity", _nothing),
    (census, "save_catalog", "census.persist", _file_bytes),
    (census, "load_catalog", "census.persist", _nothing),
    (render, "render_phase_quadrants", "render.render", _pixels),
    (render, "render_amplitude", "render.render", _pixels),
    (render, "locate_quadrant_meeting_points", "render.detect", _nothing),
    (render, "write_ppm", "render.write", _file_bytes),
    (cli, "main", "cli.main", _nothing),
]


class Tracer:
    """Span recorder; install() swaps the package's public names for
    recording wrappers and uninstall() puts the originals back."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": tracer.op,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            cpu0 = time.process_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.process_time() - cpu0
                tracer._stack.pop()
            span.update(counter(fn, args, kwargs, result))
            return result

        return traced

    def install(self):
        for module, attr, name, counter in _BINDINGS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.spans, fh)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-layer metrics from one traced run of `ops` ops.  A layer's point
    count takes only spans whose parent is in another layer, so delta_q(4)
    calling delta5 counts its points once."""
    dur = [s["end"] - s["start"] for s in spans]
    self_s = list(dur)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            self_s[s["parent"]] -= dur[i]

    def layer(i):
        return spans[i]["name"].split(".")[0]

    def named(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    def total(idx, key=None):
        return sum(self_s[i] if key is None else spans[i].get(key, 0) for i in idx)

    out = {}
    for lay in ("evalcore", "quotient"):
        idx = [i for i, s in enumerate(spans) if s["name"].startswith(lay + ".")]
        outer = [i for i in idx if spans[i]["parent"] is None or layer(spans[i]["parent"]) != lay]
        out[f"{lay}.points"] = total(outer, "points")
        out[f"{lay}.self_s"] = total(idx)
    fz = named("critical.find_zeros")
    out["critical.find_zeros.calls"] = len(fz)
    out["critical.find_zeros.self_s"] = total(fz)
    out["critical.scan_points"] = total(fz, "scan_points")
    ws = named("critical.window_scan")
    out["critical.window_scans"] = len(ws)
    out["critical.window_scan_s"] = sum(dur[i] for i in ws)
    tr = named("contours.trace")
    out["contours.trace.calls"] = len(tr)
    out["contours.trace.self_s"] = total(tr)
    out["contours.trace_points"] = total(tr, "trace_points")
    wn = named("contours.winding")
    out["contours.winding.self_s"] = total(wn)
    out["contours.winding.vertices"] = total(wn, "vertices")
    out["contours.box.self_s"] = total(named("contours.box"))
    ex = named("contours.export")
    out["contours.export.self_s"] = total(ex)
    out["contours.export.bytes"] = total(ex, "bytes")
    bc = named("census.build_catalog")
    out["census.build_catalog.self_s"] = total(bc)
    out["census.entries"] = total(bc, "entries")
    out["census.identity.self_s"] = total(named("census.identity"))
    ps = named("census.persist")
    out["census.persist.self_s"] = total(ps)
    out["census.bytes"] = total(ps, "bytes")
    rr = named("render.render")
    out["render.render.self_s"] = total(rr)
    out["render.pixels"] = total(rr, "pixels")
    rw = named("render.write")
    out["render.detect.self_s"] = total(named("render.detect"))
    out["render.write.self_s"] = total(rw)
    out["render.bytes"] = total(rw, "bytes")
    cm = named("cli.main")
    out["cli.main.calls"] = len(cm)
    out["cli.main.self_s"] = total(cm)
    per_op = {k: v / ops for k, v in out.items()}

    per_op["evalcore.us_per_point"] = _ratio(out["evalcore.self_s"], out["evalcore.points"], 1e6)
    per_op["quotient.us_per_point"] = _ratio(out["quotient.self_s"], out["quotient.points"], 1e6)
    per_op["critical.us_per_scan_point"] = _ratio(
        out["critical.find_zeros.self_s"], out["critical.scan_points"], 1e6)
    per_op["contours.us_per_trace_point"] = _ratio(
        out["contours.trace.self_s"], out["contours.trace_points"], 1e6)
    lines = {tuple(spans[i]["line"]) for i in tr if "line" in spans[i]}
    per_op["contours.traces_per_line"] = _ratio(len(tr), len(lines))
    per_op["render.us_per_pixel"] = _ratio(out["render.render.self_s"], out["render.pixels"], 1e6)
    per_op["render.cpu_per_wall"] = _ratio(sum(spans[i]["cpu"] for i in rr),
                                           sum(dur[i] for i in rr))
    return per_op
