"""Level-line tracing and argument-principle machinery for the quotient.

Phase-zero lines (folded phase of the quotient = 0) and amplitude-one lines
(|quotient| = 1) are the zero sets of Im(rot l), l = log(delta^2) / 2, with
rot = 1 (Im l is the folded phase) and rot = 1j (Re l = log|delta|).  Both are
marched from large sigma toward the critical line by the tangent predictor
dt/dsigma = -Im w / Re w and the Newton corrector t -= Im(rot l) / Re w at
fixed sigma, w = rot l'.  delta, l' and l'' come from one fused kernel,
quotient._delta5_log_derivatives, in closed form from the CVZ sums.  Every
Newton step is taken; a line stops iterating once its level was within the
tolerance or l'' predicts a residual within it after the step, so most
traced points cost one kernel call and every traced t lies within 1e-9 of
its level line.  Both families are anchored at large sigma by the loud 2^-s
term of the Dirichlet series: phase lines near t = n pi / ln 2, amplitude
lines halfway between.  One loop traces any number of lines in lockstep:
each pass takes one Newton step for every unfinished line in one kernel
call, a converged line moves on to its next sigma in the next pass, and
each line keeps its own step halving.  A single trace is the case of one
line, and the seed at sigma_start is the first target of every line.

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

from .critical import CriticalPoint, singular_points_delta5
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
from .quotient import _delta5_log_derivatives, _delta_q_values

_EPS_BOX = 0.02          # clearance of the box's left edge from sigma = 1/2
_GUARD_LO, _GUARD_HI = 1e-8, 1e8
_NEWTON_TOL = 1e-10
_MIN_STEP = 1e-4
_MAX_NEWTON_STEP = 0.25 * math.pi / LN2  # a quarter of the anchor spacing; a longer step leaves the line
_MATCH_RADIUS = 0.05
_MAX_SCHEDULE = 100_000  # sigma targets per trace; _sigma_schedule builds them all up front
_REFINE_LIMIT = 40       # nested edge splits winding_count may make
_SIGMA_STEP = 0.02       # spacing of a trace's sigma targets above sigma = 0.52


@dataclass(frozen=True)
class PhasePath:
    """One traced level line, recorded as (sigma, t) pairs with sigma falling
    from sigma_start past the critical line; terminus_t is the interpolated
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


def _sigma_schedule(sigma_start: float) -> list[float]:
    targets = []
    k = 1
    while True:
        sig = sigma_start - k * _SIGMA_STEP
        if sig <= 0.52 + 1e-9:
            break
        targets.append(sig)
        k += 1
    targets += [0.52, 0.505, 0.495]
    return targets


def _window_catalog(t_lo: float, t_hi: float) -> list[CriticalPoint]:
    """Critical-line points within 4 of the termini t_lo <= t_hi.  The window
    is widened to whole units, so find_zeros' scan grid, and with it every
    refined ordinate, stays put when a terminus moves by rounding."""
    return singular_points_delta5(max(math.floor(t_lo - 4.0), 0.0), min(math.ceil(t_hi + 4.0), 100.0), 0.01)


def _march(kind: str, ns: list[int], sigma_start: float) -> list[list]:
    """Predictor-corrector for the lines ns in lockstep.  Each line walks the
    sigma schedule, sigma_start first, and at each target sigma drives the
    level L(t) = Im(rot l), l = log(delta^2) / 2, to zero by Newton in t: the
    folded phase for rot = 1, log|delta| for rot = 1j.  L'(t) = Re w with
    w = rot l', and L''(t) = -Im(rot l'').

    Each pass makes one call of the fused kernel
    quotient._delta5_log_derivatives with the current iterate of every
    unfinished line and takes one Newton step dt = L / Re w per line.  A line
    converges when, after that step, |L| was within _NEWTON_TOL or the step
    predicts a residual 4 |L''| dt^2 / 2 within it (4 is a safety factor):
    it records the stepped t and predicts its next target along the tangent,
    dt/dsigma = -Im w / Re w, for the next pass.  A line that meets a
    non-finite value, would take a Newton step longer than _MAX_NEWTON_STEP
    or does not converge in 8 steps halves its own step while the others go
    on.  The slope starts at w = 1, so the prediction
    for the seed is the seed itself.  Returns each line's (sigma, t) points."""
    rot, offset, _ = _LINE_KINDS[kind]
    schedule = list(reversed(_sigma_schedule(sigma_start))) + [sigma_start]
    pending = [list(schedule) for _ in ns]  # each line's targets, next one last
    sigma = [sigma_start] * len(ns)  # last recorded sigma, t and slope w
    t = [(n + offset) * math.pi / LN2 for n in ns]
    w = [1.0] * len(ns)
    guess, tries = list(t), [0] * len(ns)
    points = [[] for _ in ns]
    live = list(range(len(ns)))
    while live:
        vals, l1s, l2s = (a.tolist() for a in _delta5_log_derivatives(
            np.array([complex(pending[k][-1], guess[k]) for k in live])))
        # the per-line Newton logic runs on Python scalars, which for a few
        # lines costs less than a dozen numpy calls on tiny arrays
        for k, v, l1, l2 in zip(live, vals, l1s, l2s):
            level = dt = math.nan
            if cmath.isfinite(v) and cmath.isfinite(l1):
                if not _GUARD_LO <= abs(v) <= _GUARD_HI:
                    raise SingularityTooClose(f"|delta5| = {abs(v):.3g} outside [1e-8, 1e8] at "
                                              f"sigma={pending[k][-1]:.6f}, t={guess[k]:.6f}")
                wk = rot * l1
                if wk.real != 0.0:
                    level = (0.5 * rot * cmath.log(v * v)).imag
                    dt = level / wk.real
                    if abs(dt) > _MAX_NEWTON_STEP:  # a failed step, like a non-finite one
                        level = dt = math.nan
                    else:
                        guess[k] -= dt
            tries[k] += 1
            if abs(level) <= _NEWTON_TOL or 2.0 * abs((rot * l2).imag) * dt * dt <= _NEWTON_TOL:
                sigma[k], t[k], w[k] = pending[k].pop(), guess[k], wk
                points[k].append((sigma[k], t[k]))
            elif math.isfinite(dt) and tries[k] < 8:
                continue
            else:
                half = 0.5 * (sigma[k] + pending[k][-1])
                if sigma[k] - half < _MIN_STEP:
                    raise TraceStalled(
                        f"{kind} line n={ns[k]} stalled at sigma={sigma[k]:.6f} (step below 1e-4)")
                pending[k].append(half)
            tries[k] = 0
            if pending[k]:
                guess[k] = t[k] - w[k].imag / w[k].real * (pending[k][-1] - sigma[k])
        live = [k for k in live if pending[k]]
    return points


def _matched_point(t_star: float, catalog: Sequence[CriticalPoint]) -> CriticalPoint:
    """Phase-line terminus rule: the catalogued point within 0.05 of t_star."""
    if not catalog:
        raise NoCatalogMatch(f"no catalogued point near terminus t = {t_star:.6f}")
    nearest = min(catalog, key=lambda p: abs(p.t - t_star))
    if abs(nearest.t - t_star) > _MATCH_RADIUS:
        raise NoCatalogMatch(
            f"terminus t = {t_star:.6f} is {abs(nearest.t - t_star):.4f} from the "
            f"nearest catalogued point (limit {_MATCH_RADIUS})")
    return nearest


def _between_points(t_star: float, catalog: Sequence[CriticalPoint]) -> None:
    """Amplitude-line terminus rule: t_star lies strictly between two catalogued points."""
    below = [p.t for p in catalog if p.t < t_star - 1e-9]
    above = [p.t for p in catalog if p.t > t_star + 1e-9]
    if not below or not above or min(abs(p.t - t_star) for p in catalog) <= 1e-9:
        raise TerminusNotBetweenSingularities(
            f"amplitude-one terminus t = {t_star:.6f} does not fall strictly "
            "between two catalogued points")


# line kind -> (rot, seed offset, terminus rule): the line is the zero set of
# Im(rot log(delta^2) / 2), seeded at sigma_start, t = (n + offset) pi / ln 2
_LINE_KINDS = {"phase_zero": (1.0, 0.0, _matched_point),
               "amplitude_one": (1j, 0.5, _between_points)}


def _trace_lines(kind: str, ns: Sequence[int], sigma_start: float = 12.0,
                 catalog: Optional[Sequence[CriticalPoint]] = None) -> list[PhasePath]:
    """Trace the lines ns of one kind together (see _march); a single line
    is the case K = 1.  Without a catalog, one window scan covers every
    terminus.  Lines traced together size their series for the whole batch,
    so they can differ from single traces in the last bits; where that moves
    a Newton stop, both stay within 1e-9 of the level line."""
    for n in ns:
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise DomainError(f"n must be a positive integer, not {n!r}")
    ns = [int(n) for n in ns]
    if not 8.0 <= sigma_start < math.inf:
        raise DomainError("sigma_start must be a finite number of at least 8")
    if (sigma_start - 0.52) / _SIGMA_STEP > _MAX_SCHEDULE:
        raise DomainError(f"sigma_start={sigma_start:g} at step={_SIGMA_STEP:g} needs more than "
                          f"{_MAX_SCHEDULE} predictor steps")
    with np.errstate(all="ignore"):  # non-finite Newton iterates are failures, not warnings
        lines = _march(kind, ns, float(sigma_start))
    stars = []
    for points in lines:
        (sa, ta), (sb, tb) = points[-2], points[-1]
        stars.append(ta + (tb - ta) * (sa - 0.5) / (sa - sb))
    if catalog is None:
        catalog = _window_catalog(min(stars), max(stars))
    rule = _LINE_KINDS[kind][2]
    return [PhasePath(anchor_index=n, line_kind=kind, points=tuple(points), terminus_t=float(t_star),
                      terminus_point=rule(t_star, catalog)) for n, points, t_star in zip(ns, lines, stars)]


def trace_phase_zero_line(n: int, sigma_start: float = 12.0,
                          catalog: Optional[Sequence[CriticalPoint]] = None) -> PhasePath:
    """Trace the n-th phase-zero line from (sigma_start, n pi/ln 2) down
    across the critical line; the terminus must match a catalogued zero or
    pole within 0.05 in t (NoCatalogMatch otherwise).  Pass a precomputed
    catalog to skip the local critical-line scan."""
    return _trace_lines("phase_zero", [n], sigma_start, catalog)[0]


def trace_amplitude_one_line(n: int, sigma_start: float = 12.0,
                             catalog: Optional[Sequence[CriticalPoint]] = None) -> PhasePath:
    """Trace the n-th amplitude-one line from (sigma_start, (n+1/2) pi/ln 2);
    its terminus must fall strictly between two consecutive catalogued
    critical-line points (TerminusNotBetweenSingularities otherwise)."""
    return _trace_lines("amplitude_one", [n], sigma_start, catalog)[0]


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
                f"{abs(inc[k]):.3f} rad after {_REFINE_LIMIT} splits")
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
    low traced backwards, the right edge at their common start sigma in
    steps of 0.5, high forwards, then the left edge at sigma = 1/2 + 0.02 in
    steps of 0.02 (clearance from the critical-line poles and zeros)."""
    sigma_right = low.points[0][0]

    def trimmed(path):
        return [p for p in path.points if p[0] >= 0.5 + _EPS_BOX - 1e-9]

    lo_pts = trimmed(low)
    hi_pts = trimmed(high)
    poly = [(s, t) for s, t in reversed(lo_pts)]
    t_a, t_b = lo_pts[0][1], hi_pts[0][1]
    for t in np.arange(t_a + 0.5, t_b - 1e-9, 0.5):
        poly.append((sigma_right, float(t)))
    poly.append((sigma_right, t_b))
    poly += hi_pts[1:]
    t_top, t_bot = hi_pts[-1][1], lo_pts[-1][1]
    for t in np.arange(t_top - _EPS_BOX, t_bot + 1e-9, -_EPS_BOX):
        poly.append((0.5 + _EPS_BOX, float(t)))
    poly.append(poly[0])
    return poly


def argument_principle_box(n_low: int, n_high: int, sigma_right: float = 12.0) -> WindingReport:
    """Winding count around the box bounded below and above by phase-zero
    lines n_low < n_high, on the right by sigma = sigma_right, and on the
    left by sigma = 1/2 + 0.02 (clearance from the critical-line poles and
    zeros).  Zero-pole balance in the strip makes the expected count 0.
    The two lines are traced together, with one window scan for both
    termini."""
    if n_low >= n_high:
        raise DomainError("need n_low < n_high: equal indices bound no region")
    low, high = _trace_lines("phase_zero", [n_low, n_high], sigma_right)
    return winding_count(_box_polygon(low, high))


def amplitude_circle(A: float) -> AmplitudeCircle:
    """Locus of |1 - 1/(16 conj(s))| = A: by the Apollonius construction of
    |s - 1/16| = A |s| this is the circle centered at 1/(16(1-A^2)) with
    radius A/(16 |1-A^2|)."""
    if not 0.0 < A < math.inf:
        raise DomainError("A must be positive and finite")
    if abs(A - 1.0) <= 1e-12:
        raise DegenerateCircle("A = 1 gives a vertical line, not a circle")
    return AmplitudeCircle(A=float(A),
                           center_sigma=1.0 / (16.0 * (1.0 - A * A)),
                           radius=A / (16.0 * abs(1.0 - A * A)))


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
    pts = np.array([complex(s, t) for s, t in path.points])
    vals = _delta_q_values(4, pts)
    lines = ["sigma,t,phase,modulus"]
    for (sig, t), v in zip(path.points, vals):
        lines.append("%.12g,%.12g,%.12g,%.12g"
                     % (sig, t, float(np.angle(v)), float(np.abs(v))))
    text = "\n".join(lines) + "\n"
    try:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="ascii") as fh:
                fh.write(text)
    except OSError as exc:
        raise IoFailure(f"could not write trace CSV: {exc}") from exc
