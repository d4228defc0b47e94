"""Level-line tracing and argument-principle machinery for the quotient.

Phase-zero lines (folded phase of the quotient = 0) and amplitude-one lines
(|quotient| = 1) are the zero sets of Im(rot l), l = log(delta^2) / 2, with
rot = 1 (Im l is the folded phase) and rot = 1j (Re l = log|delta|).  Both
are anchored at large sigma by the loud 2^-s term of the Dirichlet series,
phase lines near t = n pi / ln 2 and amplitude lines halfway between, and
marched toward the critical line by a tangent predictor and a Newton
corrector in t (_march), every traced t within 1e-9 of its level line.
delta, l' and l'' come from one fused kernel, quotient._log_derivatives, in
closed form from the CVZ sums, whose rows at s and at 2s - 1/2 read one
power table of m^-s per point; one loop traces any number of lines in
lockstep, one kernel call per Newton pass for a block of each line's next
_BLOCK sigma targets, all but the first speculative and recorded only where
Newton from the tangent would reach the same root.

Closed contours get a winding count by accumulating phase increments edge by
edge, bisecting edges until every increment is below pi/2, so the branch of
the argument is tracked without ambiguity; all edges that still jump are
split together, one batch per level.  The box contour built from two phase
lines keeps its left edge at sigma = 1/2 + 0.02: the quotient's zeros and
poles sit exactly on the critical line and the integral needs clearance.

Constant-amplitude loci of the reflected-regime factor 1 - 1/(16 conj(s))
are Apollonius circles; amplitude_circle returns center and radius derived
from |s - 1/16| = A |s|.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .critical import _CATALOG_T_MAX, CriticalPoint, singular_points_delta5
from .errors import (
    DegenerateCircle,
    DomainError,
    IoFailure,
    NoCatalogMatch,
    RefinementExhausted,
    SingularityTooClose,
    SingularOnContour,
    TerminusNotBetweenSingularities,
    TraceStalled,
)
from .evalcore import LN2
from .quotient import _delta_q_values, _log_derivatives

_EPS_BOX = 0.02          # clearance of the box's left edge from sigma = 1/2
_GUARD_LO, _GUARD_HI = 1e-8, 1e8
_NEWTON_TOL = 1e-10
_MIN_STEP = 1e-4
_MAX_NEWTON_STEP = 0.25 * math.pi / LN2  # a quarter of the anchor spacing; a longer step leaves the line
_MATCH_RADIUS = 0.05
_REFINE_LIMIT = 40       # nested edge splits winding_count may make
_SIGMA_START = 12.0      # seed sigma of every line, where the 2^-s term dominates
_SIGMA_STEP = 0.02       # spacing of a trace's sigma targets above sigma = 0.52
_WINDOW_END = 0.5 * _CATALOG_T_MAX  # end of a trace's own window catalog
_BLOCK = 16              # sigma targets a line puts in one kernel call: its next one and 15 speculative


@dataclass(frozen=True)
class PhasePath:
    """One traced level line, recorded as (sigma, t) pairs with sigma falling
    from _SIGMA_START past the critical line; terminus_t is the interpolated
    ordinate where the path crosses sigma = 1/2."""

    anchor_index: int
    line_kind: str
    points: tuple[tuple[float, float], ...]
    terminus_t: float
    terminus_point: Optional[CriticalPoint] = None

    def __post_init__(self):
        if self.line_kind not in _LINE_KINDS:
            raise DomainError(f"line_kind must be one of {tuple(_LINE_KINDS)}")
        if self.anchor_index < 1:
            raise DomainError("anchor_index must be a positive integer")
        if len(self.points) < 2:
            raise DomainError("a path needs at least two points")
        sig = [p[0] for p in self.points]
        if any(b >= a for a, b in zip(sig, sig[1:])):
            raise DomainError("points must strictly decrease in sigma")
        if sig[-1] > 0.5 + _EPS_BOX + 1e-9:
            raise DomainError("path must reach sigma <= 1/2 + 0.02")
        if not math.isfinite(self.terminus_t):
            raise DomainError("terminus_t must be finite")


@dataclass(frozen=True)
class WindingReport:
    """Argument-principle tally around a closed contour."""

    total_arg_change: float
    zeros_minus_poles: int
    max_step_jump: float

    def __post_init__(self):
        # each test is written so that a NaN field fails it
        if not abs(self.total_arg_change / (2.0 * math.pi) - self.zeros_minus_poles) <= 1e-3:
            raise DomainError("total_arg_change is not within 1e-3 of an integer winding")
        if not self.max_step_jump <= 0.5 * math.pi + 1e-12:
            raise DomainError("max_step_jump violates the pi/2 refinement contract")


@dataclass(frozen=True)
class AmplitudeCircle:
    """Apollonius circle |1 - 1/(16 conj(s))| = A: center on the real axis.

    The fields are redundant by construction and must satisfy the closed
    forms center = 1/(16(1-A^2)), radius = A/(16|1-A^2|)."""

    A: float
    center_sigma: float
    radius: float

    def __post_init__(self):
        if not 0.0 < self.A < math.inf:
            raise DomainError("A must be positive and finite")
        if abs(self.A - 1.0) <= 1e-12:
            raise DegenerateCircle("A = 1 gives a vertical line, not a circle")
        denom = 16.0 * (1.0 - self.A * self.A)
        if not (abs(self.center_sigma - 1.0 / denom) <= 1e-12
                and abs(self.radius - self.A / abs(denom)) <= 1e-12):  # NaN fails too
            raise DomainError("center_sigma/radius do not match the Apollonius "
                              "closed form for this A")


def _sigma_schedule() -> list[float]:
    steps = (_SIGMA_START - k * _SIGMA_STEP for k in range(1, int(_SIGMA_START / _SIGMA_STEP)))
    return [sig for sig in steps if sig > 0.52 + 1e-9] + [0.52, 0.505, 0.495]


def _window_catalog(t_lo: float, t_hi: float) -> list[CriticalPoint]:
    """Critical-line points within 4 of the termini t_lo <= t_hi, up to
    _WINDOW_END.  Widened to whole units, the window keeps find_zeros' scan
    grid, and with it every refined ordinate, when a terminus moves by rounding."""
    return singular_points_delta5(max(math.floor(t_lo - 4.0), 0.0), min(math.ceil(t_hi + 4.0), _WINDOW_END))


class _Target:
    """A sigma target of a line's block: its t iterate, Newton tries, and
    (w, |Im(rot l'')|) at its last iterate once converged."""

    __slots__ = ("sigma", "t", "tries", "done", "spec")

    def __init__(self, sigma: float, t: float, spec: bool):
        self.sigma, self.t, self.tries, self.done, self.spec = sigma, t, 0, None, spec


def _new_block(pending: list, points: list, last: tuple) -> list:
    """A line's next block: its next target at the tangent prediction from
    the last recorded point (sigma, t, w), then, once four points are
    recorded, up to _BLOCK - 1 speculative targets at the cubic through the
    last four (Newton form, newest first), stopping before a guess that is
    not finite or lies more than _MAX_NEWTON_STEP from the tangent."""
    sigma, t, w = last
    slope = w.imag / w.real
    block = [_Target(pending[-1], t - slope * (pending[-1] - sigma), False)]
    if len(points) >= 4:
        (s0, c0), (s1, c1), (s2, c2), (s3, c3) = points[-1:-5:-1]
        c1, c2, c3 = (c1 - c0) / (s1 - s0), (c2 - c1) / (s2 - s1), (c3 - c2) / (s3 - s2)
        c2, c3 = (c2 - c1) / (s2 - s0), (c3 - c2) / (s3 - s1)
        c3 = (c3 - c2) / (s3 - s0)
        for x in pending[-2:-_BLOCK - 1:-1]:
            guess = c0 + (x - s0) * (c1 + (x - s1) * (c2 + (x - s2) * c3))
            if not abs(guess - (t - slope * (x - sigma))) <= _MAX_NEWTON_STEP:  # nan fails too
                break
            block.append(_Target(x, guess, True))
    return block


def _march(kind: str, ns: list[int]) -> list[list]:
    """Predictor-corrector for the lines ns in lockstep.  Each line walks the
    sigma schedule, _SIGMA_START first, and at each target sigma drives the
    level L(t) = Im(rot l), l = log(delta^2) / 2, to zero by Newton in t (the
    folded phase for rot = 1, log|delta| for rot = 1j; L'(t) = Re w with
    w = rot l', L''(t) = -Im(rot l'')), one step dt = L / Re w per pass, and
    records the stepped t once |L| was within _NEWTON_TOL or the step
    predicts a residual 4 |L''| dt^2 / 2 within it (4 is a safety factor).
    A line works on a block of targets (_new_block); each pass makes one
    kernel call (quotient._log_derivatives) for the unconverged targets of
    every unfinished line, each block in schedule order.  Targets are
    recorded in schedule order, a speculative one only if its t lies within
    half its Newton basin radius |Re w| / |Im(rot l'')| of the tangent
    prediction dt/dsigma = -Im w / Re w from the point before it, so Newton
    from there, where a one-target march starts, reaches the same root (a
    nan l'' fails).  A speculative target that meets a guard, a non-finite
    value, a step beyond _MAX_NEWTON_STEP or 8 tries, or fails that check,
    ends its block; the next starts from the last recorded point.  The first
    target raises SingularityTooClose at a guard and otherwise halves its
    line's step (TraceStalled below _MIN_STEP); errors carry the line's
    recorded points.  _BLOCK = 1 is the one-target march.  Returns each
    line's (sigma, t) points."""
    rot, offset = _LINE_KINDS[kind][:2]
    schedule = list(reversed(_sigma_schedule())) + [_SIGMA_START]
    pending = [list(schedule) for _ in ns]  # each line's targets, next one last
    last = [(_SIGMA_START, (n + offset) * math.pi / LN2, 1.0) for n in ns]  # last recorded sigma, t, w
    points = [[] for _ in ns]
    blocks = [[] for _ in ns]
    live = list(range(len(ns)))
    while live:
        for k in live:
            if not blocks[k]:
                blocks[k] = _new_block(pending[k], points[k], last[k])
        batch = [(k, j, p) for k in live for j, p in enumerate(blocks[k]) if p.done is None]
        vals, l1s, l2s = (a.tolist() for a in _log_derivatives(
            4, np.array([complex(p.sigma, p.t) for _, _, p in batch])))
        # per-target Newton logic on Python numbers: cheaper than numpy calls on a few points
        for (k, j, p), v, l1, l2 in zip(batch, vals, l1s, l2s):
            block = blocks[k]
            if j >= len(block):  # its block ended earlier in this pass
                continue
            level = dt = math.nan
            if cmath.isfinite(v) and cmath.isfinite(l1):
                if not _GUARD_LO <= abs(v) <= _GUARD_HI:
                    if p.spec:
                        del block[j:]
                        continue
                    raise SingularityTooClose(f"{kind} line n={ns[k]}: |delta5| = {abs(v):.3g} outside "
                                              f"[1e-8, 1e8] at sigma={p.sigma:.6f}, t={p.t:.6f}",
                                              kind=kind, line=ns[k], last=(p.sigma, p.t), points=points[k])
                wk = rot * l1
                if wk.real != 0.0:
                    level = (0.5 * rot * cmath.log(v * v)).imag
                    dt = level / wk.real
                    if abs(dt) > _MAX_NEWTON_STEP:  # a failed step, like a non-finite one
                        level = dt = math.nan
                    else:
                        p.t -= dt
            p.tries += 1
            curvature = abs((rot * l2).imag)
            if abs(level) <= _NEWTON_TOL or 2.0 * curvature * dt * dt <= _NEWTON_TOL:
                p.done = (wk, curvature)
            elif math.isfinite(dt) and p.tries < 8:
                continue
            elif p.spec:
                del block[j:]
            else:
                sigma, t, _ = last[k]
                half = 0.5 * (sigma + pending[k][-1])
                if sigma - half < _MIN_STEP:
                    raise TraceStalled(f"{kind} line n={ns[k]} stalled at sigma={sigma:.6f} (step below 1e-4)",
                                       kind=kind, line=ns[k], last=(sigma, t), points=points[k])
                pending[k].append(half)
                block.clear()
        for k in live:  # record each block's converged head in schedule order
            block = blocks[k]
            while block and block[0].done:
                p = block.pop(0)
                sigma, t, w = last[k]
                wk, curvature = p.done
                miss = abs(p.t - (t - w.imag / w.real * (p.sigma - sigma)))  # from the tangent before it
                if p.spec and not 2.0 * curvature * miss <= abs(wk.real):
                    block.clear()
                    break
                last[k] = (pending[k].pop(), p.t, wk)
                points[k].append(last[k][:2])
        live = [k for k in live if pending[k]]
    return points


def _matched_point(t_star: float, catalog: Sequence[CriticalPoint]) -> CriticalPoint:
    """Phase-line terminus rule: the catalogued point within 0.05 of t_star."""
    if not catalog:
        raise NoCatalogMatch(f"no catalogued point near terminus t = {t_star:.6f}", t_star=t_star)
    nearest = min(catalog, key=lambda p: abs(p.t - t_star))
    if abs(nearest.t - t_star) > _MATCH_RADIUS:
        raise NoCatalogMatch(
            f"terminus t = {t_star:.6f} is {abs(nearest.t - t_star):.4f} from the "
            f"nearest catalogued point (limit {_MATCH_RADIUS})", t_star=t_star, nearest=nearest)
    return nearest


def _between_points(t_star: float, catalog: Sequence[CriticalPoint]) -> None:
    """Amplitude-line terminus rule: t_star lies strictly between two catalogued points."""
    below = [p.t for p in catalog if p.t < t_star - 1e-9]
    above = [p.t for p in catalog if p.t > t_star + 1e-9]
    if not below or not above or min(abs(p.t - t_star) for p in catalog) <= 1e-9:
        raise TerminusNotBetweenSingularities(
            f"amplitude-one terminus t = {t_star:.6f} does not fall strictly "
            "between two catalogued points", t_star=t_star)


# line kind -> (rot, seed offset, terminus rule, its error): the zero set of
# Im(rot log(delta^2) / 2), seeded at _SIGMA_START, t = (n + offset) pi / ln 2
_LINE_KINDS = {"phase_zero": (1.0, 0.0, _matched_point, NoCatalogMatch),
               "amplitude_one": (1j, 0.5, _between_points, TerminusNotBetweenSingularities)}


def _trace_lines(kind: str, ns: Sequence[int],
                 catalog: Optional[Sequence[CriticalPoint]] = None) -> list[PhasePath]:
    """Trace the lines ns of one kind together (see _march); a single line
    is the case K = 1.  Without a catalog, one window scan covers every
    terminus, and a terminus past _WINDOW_END raises the kind's error.  Lines
    traced together size their series for the whole batch, so they can differ
    from single traces in the last bits; where that moves a Newton stop, both
    stay within 1e-9 of the level line."""
    for n in ns:
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise DomainError(f"n must be a positive integer, not {n!r}")
    ns = [int(n) for n in ns]
    with np.errstate(all="ignore"):  # non-finite Newton iterates are failures, not warnings
        lines = _march(kind, ns)
    stars = []
    for points in lines:
        (sa, ta), (sb, tb) = points[-2], points[-1]
        stars.append(ta + (tb - ta) * (sa - 0.5) / (sa - sb))
    _, _, rule, error = _LINE_KINDS[kind]
    if catalog is None:
        if max(stars) > _WINDOW_END:
            raise error(f"terminus t = {max(stars):.6f} is past the catalog end t = {_WINDOW_END:g}",
                        t_star=max(stars))
        catalog = _window_catalog(min(stars), max(stars))
    return [PhasePath(anchor_index=n, line_kind=kind, points=tuple(points), terminus_t=float(t_star),
                      terminus_point=rule(t_star, catalog)) for n, points, t_star in zip(ns, lines, stars)]


def trace_phase_zero_line(n: int, *, catalog: Optional[Sequence[CriticalPoint]] = None) -> PhasePath:
    """Trace the n-th phase-zero line from (12, n pi/ln 2) down across the
    critical line; the terminus must match a catalogued zero or pole within
    0.05 in t (NoCatalogMatch otherwise, also past t = 100, where the local
    scan ends).  Pass a precomputed catalog to skip the local scan."""
    return _trace_lines("phase_zero", [n], catalog)[0]


def trace_amplitude_one_line(n: int, *, catalog: Optional[Sequence[CriticalPoint]] = None) -> PhasePath:
    """Trace the n-th amplitude-one line from (12, (n+1/2) pi/ln 2); its
    terminus must fall strictly between two consecutive catalogued
    critical-line points (TerminusNotBetweenSingularities otherwise, also
    past t = 100, where the local scan ends)."""
    return _trace_lines("amplitude_one", [n], catalog)[0]


def _polyline_complex(polyline) -> np.ndarray:
    pts = np.asarray([complex(p[0], p[1]) for p in polyline], dtype=np.complex128)
    if pts.size < 3:
        raise DomainError("a closed contour needs at least three vertices")
    if not np.isfinite(pts).all():
        raise DomainError("contour vertices must be finite")
    if abs(pts[0] - pts[-1]) > 1e-12:
        raise DomainError("polyline is not closed (first and last differ by more than 1e-12)")
    return pts


def _contour_values(s: np.ndarray) -> np.ndarray:
    """delta5 at the contour points s, refusing a point where it is
    non-finite or |delta5| lies outside [1e-8, 1e8] (SingularOnContour)."""
    vals = _delta_q_values(4, s)
    bad = ~np.isfinite(vals) | (np.abs(vals) < _GUARD_LO) | (np.abs(vals) > _GUARD_HI)
    if np.any(bad):
        p = s[np.argmax(bad)]
        raise SingularOnContour(
            f"contour point sigma={p.real:.6f}, t={p.imag:.6f} is singular or "
            "has |delta5| outside [1e-8, 1e8]")
    return vals


def winding_count(polyline) -> WindingReport:
    """Total argument change of the quotient around a closed polyline.

    Edge increments are principal arguments of ratios of consecutive values;
    any edge whose increment exceeds pi/2 is bisected, up to 40 nested
    splits (_REFINE_LIMIT), so no edge can silently swallow a full branch
    turn.  The refinement runs level by level: one evaluation per level
    covers the midpoints of every edge that still jumps.  zeros_minus_poles
    is the winding number (counterclockwise positive); WindingReport
    refuses a total more than 1e-3 turns from it.
    """
    pts = _polyline_complex(polyline)
    vals = _contour_values(pts)
    # edges in polyline order; a split edge is replaced by its two halves in place
    sa, sb, va, vb = pts[:-1], pts[1:], vals[:-1], vals[1:]
    accepted = []
    for depth in range(_REFINE_LIMIT + 1):
        inc = np.angle(vb / va)
        jump = np.abs(inc) > 0.5 * math.pi
        accepted.append(inc[~jump])
        if not jump.any():
            break
        if depth == _REFINE_LIMIT:
            k = np.argmax(jump)
            raise RefinementExhausted(
                f"edge near sigma={sa[k].real:.6f}, t={sa[k].imag:.6f} still jumps "
                f"{abs(inc[k]):.3f} rad after {_REFINE_LIMIT} splits",
                edge=(complex(sa[k]), complex(sb[k])), increment=float(inc[k]))
        sa, sb, va, vb = sa[jump], sb[jump], va[jump], vb[jump]
        sm = 0.5 * (sa + sb)
        vm = _contour_values(sm)
        sa, sb = np.stack([sa, sm], axis=1).ravel(), np.stack([sm, sb], axis=1).ravel()
        va, vb = np.stack([va, vm], axis=1).ravel(), np.stack([vm, vb], axis=1).ravel()
    incs = np.concatenate(accepted)
    total = math.fsum(incs)
    return WindingReport(total_arg_change=float(total),
                         zeros_minus_poles=round(total / (2.0 * math.pi)),
                         max_step_jump=float(np.abs(incs).max(initial=0.0)))


def _box_polygon(low: PhasePath, high: PhasePath) -> list[tuple[float, float]]:
    """Closed polyline around the box between phase lines low and high:
    low traced backwards, the right edge at their seed sigma _SIGMA_START
    in steps of 0.5, high forwards, then the left edge at sigma = 1/2 + 0.02
    in steps of 0.02 (clearance from the critical-line poles and zeros)."""

    lo_pts, hi_pts = ([p for p in path.points if p[0] >= 0.5 + _EPS_BOX - 1e-9] for path in (low, high))
    poly = [(s, t) for s, t in reversed(lo_pts)]
    t_a, t_b = lo_pts[0][1], hi_pts[0][1]
    for t in np.arange(t_a + 0.5, t_b - 1e-9, 0.5):
        poly.append((_SIGMA_START, float(t)))
    poly.append((_SIGMA_START, t_b))
    poly += hi_pts[1:]
    t_top, t_bot = hi_pts[-1][1], lo_pts[-1][1]
    for t in np.arange(t_top - _EPS_BOX, t_bot + 1e-9, -_EPS_BOX):
        poly.append((0.5 + _EPS_BOX, float(t)))
    poly.append(poly[0])
    return poly


def argument_principle_box(n_low: int, n_high: int) -> WindingReport:
    """Winding count around the box bounded below and above by phase-zero
    lines n_low < n_high, on the right by their seed sigma 12, and on the
    left by sigma = 1/2 + 0.02 (clearance from the critical-line poles and
    zeros).  Zero-pole balance in the strip makes the expected count 0.
    The two lines are traced together, with one window scan for both
    termini."""
    if n_low >= n_high:
        raise DomainError("need n_low < n_high: equal indices bound no region")
    low, high = _trace_lines("phase_zero", [n_low, n_high])
    return winding_count(_box_polygon(low, high))


def amplitude_circle(A: float) -> AmplitudeCircle:
    """Locus of |1 - 1/(16 conj(s))| = A: by the Apollonius construction of
    |s - 1/16| = A |s| this is the circle centered at 1/(16(1-A^2)) with
    radius A/(16 |1-A^2|).  AmplitudeCircle refuses an A that is not
    positive and finite, or within 1e-12 of 1."""
    denom = 16.0 * (1.0 - A * A)
    # |A| = 1 has no center to divide by, and the dataclass refuses it
    center, radius = (1.0 / denom, A / abs(denom)) if denom else (math.inf, math.inf)
    return AmplitudeCircle(A=float(A), center_sigma=center, radius=radius)


def sample_circle_moduli(circle: AmplitudeCircle, count: int = 32) -> np.ndarray:
    """Moduli of 1 - 1/(16 conj(s)) at count equally spaced points of the
    circle; all should equal circle.A to rounding.  count must be a
    positive integer."""
    if not isinstance(count, numbers.Integral) or isinstance(count, bool) or count < 1:
        raise DomainError(f"count must be a positive integer, not {count!r}")
    theta = 2.0 * math.pi * np.arange(count) / count
    s = circle.center_sigma + circle.radius * np.exp(1j * theta)
    return np.abs(1.0 - 1.0 / (16.0 * np.conj(s)))


def export_trace_csv(path: PhasePath, destination) -> None:
    """Write the path as CSV (header sigma,t,phase,modulus) with the phase
    and modulus of the quotient recomputed at every recorded point; phase is
    the principal argument in (-pi, pi].  destination is a filename or a
    writable file object."""
    vals = _delta_q_values(4, np.array([complex(s, t) for s, t in path.points])).tolist()
    rows = ["%.12g,%.12g,%.12g,%.12g" % (s, t, cmath.phase(v), abs(v)) for (s, t), v in zip(path.points, vals)]
    text = "\n".join(["sigma,t,phase,modulus"] + rows) + "\n"
    try:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="ascii") as fh:
                fh.write(text)
    except OSError as exc:
        raise IoFailure(f"could not write trace CSV: {exc}") from exc
