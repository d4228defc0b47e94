"""Command-line front end.

One subcommand per workflow: point evaluation, zero catalogs, line traces,
argument-principle boxes, the census identity, portrait rendering, and the
full verification suite.  Every numeric flag is parsed and validated before
any computation starts; machine-readable outputs carry format_version 1.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error (the
error class name goes to standard error).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional

import numpy as np

from .errors import DeltaLensError, DomainError
from .evalcore import beta_L, dirichlet_L, zeta
from .quotient import QuotientKind, delta5, delta_q, f5, fold_phase, lattice_sum_C
from .contours import argument_principle_box, export_trace_csv, \
    trace_amplitude_one_line, trace_phase_zero_line
from .census import build_catalog, census_identity_check, save_catalog
from .critical import _CATALOGUED
from .render import PortraitSpec, render_amplitude, render_phase_quadrants, write_ppm
from .acceptance import run_all

_FORMAT_VERSION = 1

_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^({_NUM})(?:(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+)"
                         rf"(?:[eE][+-]?\d+)?)i)?$")


def parse_complex(text: str) -> complex:
    """Shell-safe complex literal: "a", "a+bi" or "a-bi"."""
    m = _COMPLEX_RE.match(text.strip())
    if m is None:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a complex literal of the form a, a+bi or a-bi")
    return complex(float(m.group(1)), float(m.group("im") or 0.0))


def parse_range(text: str) -> tuple[float, float]:
    """Closed interval "lo:hi"."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{text!r} is not a range of the form lo:hi")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} has a non-numeric bound") from exc
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"range {text!r} needs lo < hi")
    return lo, hi


def parse_size(text: str) -> tuple[int, int]:
    """Pixel dimensions "WxH"."""
    m = re.match(r"^(\d+)x(\d+)$", text.strip())
    if m is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not a size of the form WxH")
    return int(m.group(1)), int(m.group(2))


def _g(x: float) -> str:
    return f"{x:.15g}"


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "format", "text") == "json":
        payload = {"format_version": _FORMAT_VERSION, **payload}
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(args) -> int:
    fn = args.function
    takes_q = fn in ("Lq", "deltaq")
    if takes_q and args.q is None:
        raise DomainError(f"--q is required for function {fn}")
    if not takes_q and args.q is not None:
        raise DomainError(f"--q applies only to Lq and deltaq, not to {fn}")
    if fn == "zeta":
        value = complex(zeta(args.s))
    elif fn == "beta":
        value = complex(beta_L(args.s))
    elif fn == "Lq":
        value = complex(dirichlet_L(args.q, args.s))
    elif fn == "delta5":
        value = complex(delta5(args.s))
    elif fn == "deltaq":
        value = complex(delta_q(QuotientKind(args.q), args.s))
    elif fn == "f5":
        value = complex(f5(args.s))
    else:
        value = complex(lattice_sum_C(args.s))
    note: Optional[str] = None
    if value == 0:
        phase = folded = 0.0
        if fn in ("delta5", "deltaq"):
            note = f"zero of {fn}"
    else:
        phase = float(np.angle(value))
        folded = fold_phase(phase)
    payload = {"function": fn, "s": {"re": args.s.real, "im": args.s.imag},
               "re": value.real, "im": value.imag, "modulus": abs(value),
               "phase": phase, "phase_folded": folded}
    lines = [f"re {_g(value.real)}", f"im {_g(value.imag)}",
             f"modulus {_g(abs(value))}", f"phase {_g(phase)}",
             f"phase_folded {_g(folded)}"]
    if note is not None:
        payload["note"] = note
        lines.append(f"note {note}")
    _emit(args, payload, lines)
    return 0


_KIND_LETTER = {"zero": "Z", "pole": "P"}


def _cmd_zeros(args) -> int:
    source = "delta5_merged" if args.source == "delta5" else args.source
    catalog = build_catalog(source, args.t_max)
    if args.out is not None:
        save_catalog(catalog, args.out)
    payload = {"source": args.source, "t_max": args.t_max,
               "count": len(catalog.entries)}
    lines = [f"count {len(catalog.entries)}"]
    if catalog.entries:
        payload["first"] = catalog.entries[0].t
        payload["last"] = catalog.entries[-1].t
        lines += [f"first {_g(catalog.entries[0].t)}",
                  f"last {_g(catalog.entries[-1].t)}"]
    if args.source == "delta5":
        kinds = ",".join(_KIND_LETTER[e.kind] for e in catalog.entries)
        payload["kinds"] = kinds
        lines.append(f"kinds {kinds}")
    if args.out is not None:
        payload["out"] = str(args.out)
        lines.append(f"out {args.out}")
    _emit(args, payload, lines)
    return 0


def _cmd_trace(args) -> int:
    if args.kind == "phase-zero":
        path = trace_phase_zero_line(args.n)
    else:
        path = trace_amplitude_one_line(args.n)
    out = args.out if args.out is not None else f"trace_{args.kind}_{args.n}.csv"
    export_trace_csv(path, out)
    payload = {"kind": args.kind, "n": args.n, "points": len(path.points),
               "terminus_t": path.terminus_t, "out": str(out)}
    lines = [f"points {len(path.points)}", f"terminus_t {_g(path.terminus_t)}"]
    if path.terminus_point is not None:
        payload["terminus_kind"] = path.terminus_point.kind
        payload["terminus_catalog_t"] = path.terminus_point.t
        lines += [f"terminus_kind {path.terminus_point.kind}",
                  f"terminus_catalog_t {_g(path.terminus_point.t)}"]
    else:
        lines.append("terminus strictly between catalogued points")
    lines.append(f"out {out}")
    _emit(args, payload, lines)
    return 0


def _cmd_box_count(args) -> int:
    report = argument_principle_box(args.n_low, args.n_high)
    payload = {"n_low": args.n_low, "n_high": args.n_high,
               "total_arg_change": report.total_arg_change,
               "zeros_minus_poles": report.zeros_minus_poles,
               "max_step_jump": report.max_step_jump}
    lines = [f"zeros_minus_poles {report.zeros_minus_poles}",
             f"total_arg_change {_g(report.total_arg_change)}",
             f"max_step_jump {_g(report.max_step_jump)}"]
    _emit(args, payload, lines)
    return 0


def _cmd_census(args) -> int:
    catalogs = {"zeta": build_catalog("zeta", 2.0 * args.T),
                "beta": build_catalog("beta", args.T)}
    doubled, split = census_identity_check(args.T, catalogs)
    diff = doubled.counted - split.counted

    def rep(r):
        return {"t": r.t, "main_term": r.main_term, "counted": r.counted,
                "residual": r.residual}

    payload = {"T": args.T, "doubled": rep(doubled), "split": rep(split),
               "counted_difference": diff}
    lines = [f"N_zeta({_g(2 * args.T)}) = {doubled.counted}",
             f"N_zeta({_g(args.T)}) + N_beta({_g(args.T)}) = {split.counted}",
             f"counted_difference {diff}",
             f"main_term {_g(doubled.main_term)}"]
    _emit(args, payload, lines)
    return 0


def _cmd_portrait(args) -> int:
    mode = "phase_quadrant" if args.mode == "phase" else "amplitude"
    spec = PortraitSpec(sigma_min=args.sigma[0], sigma_max=args.sigma[1],
                        t_min=args.t[0], t_max=args.t[1],
                        width=args.size[0], height=args.size[1],
                        mode=mode, function=QuotientKind(args.q))
    if mode == "phase_quadrant":
        grid = render_phase_quadrants(spec)
    else:
        grid = render_amplitude(spec)
    write_ppm(grid, args.out)
    print(f"wrote {args.out} ({spec.width}x{spec.height}, mode {args.mode})")
    return 0


def _cmd_verify_all(args) -> int:
    results = run_all(only=args.only)
    return 0 if all(r.passed for r in results) else 1


@functools.cache  # built once: main parses into a fresh namespace on every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delta-lens",
        description="Evaluate, trace, census and render the zeta-quotient "
                    "delta5 and its siblings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one function at one point")
    p.add_argument("--function", required=True,
                   choices=("zeta", "beta", "Lq", "delta5", "deltaq", "f5", "C"))
    p.add_argument("--s", required=True, type=parse_complex,
                   help='complex point, e.g. "0.5+14.1i"')
    p.add_argument("--q", type=int, help="discriminant label (3, 4, 7 or 8) for Lq and deltaq")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("zeros", help="scan and refine a zero catalog")
    p.add_argument("--source", required=True, choices=(*_CATALOGUED, "delta5"))
    p.add_argument("--t-max", required=True, type=float, dest="t_max")
    p.add_argument("--out", help="write the catalog (JSON lines) here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_zeros)

    p = sub.add_parser("trace", help="trace one phase-zero or amplitude-one line")
    p.add_argument("--kind", choices=("phase-zero", "amplitude-one"),
                   default="phase-zero")
    p.add_argument("--n", required=True, type=int, help="anchor index (>= 1)")
    p.add_argument("--out", help="CSV destination (default trace_<kind>_<n>.csv)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("box-count",
                       help="argument-principle winding count over a box")
    p.add_argument("--n-low", required=True, type=int, dest="n_low")
    p.add_argument("--n-high", required=True, type=int, dest="n_high")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(handler=_cmd_box_count)

    p = sub.add_parser("census", help="zero-census identity at height T")
    p.add_argument("--T", required=True, type=float)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("portrait", help="render a phase or amplitude portrait")
    p.add_argument("--mode", required=True, choices=("phase", "amplitude"))
    p.add_argument("--sigma", required=True, type=parse_range,
                   help='real-part range "lo:hi"')
    p.add_argument("--t", required=True, type=parse_range,
                   help='imaginary-part range "lo:hi"')
    p.add_argument("--size", required=True, type=parse_size,
                   help='pixel dimensions "WxH"')
    p.add_argument("--q", type=int, default=4, help="discriminant label")
    p.add_argument("--out", default="portrait.ppm")
    p.set_defaults(handler=_cmd_portrait)

    p = sub.add_parser("verify-all", help="run the full verification suite")
    p.add_argument("--only", help="run a single criterion by slug")
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DeltaLensError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
