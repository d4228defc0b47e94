"""Level-line tracing and argument-principle machinery for the quotient.

Phase-zero lines (folded phase of the quotient = 0) and amplitude-one lines
(|quotient| = 1) are marched from large sigma toward the critical line with a
tangent predictor and a 1-D Newton corrector in t at fixed sigma.  Both
families are anchored at large sigma by the loud 2^-s term of the Dirichlet
series: phase lines near t = n pi / ln 2, amplitude lines halfway between.

Closed contours get a winding count by accumulating phase increments edge by
edge, bisecting edges until every increment is below pi/2, so the branch of
the argument is tracked without ambiguity.  The box contour built from two
phase lines keeps its left edge at sigma = 1/2 + 0.02: the quotient's zeros
and poles sit exactly on the critical line and the integral needs clearance.

Constant-amplitude loci of the reflected-regime factor 1 - 1/(16 conj(s))
are Apollonius circles; amplitude_circle returns center and radius derived
from |s - 1/16| = A |s|.
"""

from __future__ import annotations

import math
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
from .quotient import _delta_q_values

_LINE_KINDS = ("phase_zero", "amplitude_one")
_EPS_BOX = 0.02          # clearance of the box's left edge from sigma = 1/2
_GUARD_LO, _GUARD_HI = 1e-8, 1e8
_DERIV_H = 1e-5
_NEWTON_TOL = 1e-10
_MIN_STEP = 1e-4
_MATCH_RADIUS = 0.05


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
            raise DomainError(f"line_kind must be one of {_LINE_KINDS}")
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
        if abs(self.total_arg_change / (2.0 * math.pi) - self.zeros_minus_poles) > 1e-3:
            raise DomainError("total_arg_change is not within 1e-3 of an integer winding")
        if self.max_step_jump > 0.5 * math.pi + 1e-12:
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
        if not self.A > 0.0:
            raise DomainError("A must be positive")
        if abs(self.A - 1.0) <= 1e-12:
            raise DegenerateCircle("A = 1 gives a vertical line, not a circle")
        denom = 16.0 * (1.0 - self.A * self.A)
        if (abs(self.center_sigma - 1.0 / denom) > 1e-12
                or abs(self.radius - self.A / abs(denom)) > 1e-12):
            raise DomainError("center_sigma/radius do not match the Apollonius "
                              "closed form for this A")


def _corrector(kind: str, sigma: float, t: float):
    """Newton in t at fixed sigma, driving Im(delta) (phase lines) or
    log|delta| (amplitude lines) to zero.  Returns (t, delta, delta') on
    convergence, None if 8 iterations do not converge."""
    for _ in range(8):
        s = sigma + 1j * t
        batch = _delta_q_values(4, np.array([s, s + _DERIV_H, s - _DERIV_H]))
        if not np.all(np.isfinite(batch)):
            return None
        v = complex(batch[0])
        mod = abs(v)
        if not _GUARD_LO <= mod <= _GUARD_HI:
            raise SingularityTooClose(
                f"|delta5| = {mod:.3g} outside [1e-8, 1e8] at sigma={sigma:.6f}, t={t:.6f}")
        d = (batch[1] - batch[2]) / (2.0 * _DERIV_H)
        if kind == "phase_zero":
            err = abs(v.imag) / mod
            slope = d.real      # d/dt Im delta(sigma + it)
            move = v.imag
        else:
            err = abs(math.log(mod))
            slope = -(d / v).imag   # d/dt log|delta(sigma + it)|
            move = math.log(mod)
        if err <= _NEWTON_TOL:
            return t, v, d
        if slope == 0.0 or not math.isfinite(slope):
            return None
        t = t - move / slope
    return None


def _predictor_slope(kind: str, v: complex, d: complex) -> float:
    # dt/dsigma along the level set, from the Cauchy-Riemann split of delta'
    if kind == "phase_zero":
        if d.real == 0.0:
            return 0.0
        return -d.imag / d.real
    w = d / v
    if w.imag == 0.0:
        return 0.0
    return w.real / w.imag


def _sigma_schedule(sigma_start: float, step: float) -> list[float]:
    targets = []
    k = 1
    while True:
        sig = sigma_start - k * step
        if sig <= 0.52 + 1e-9:
            break
        targets.append(sig)
        k += 1
    targets += [0.52, 0.505, 0.495]
    return targets


def _window_catalog(t_star: float) -> list[CriticalPoint]:
    lo = max(t_star - 4.0, 0.0)
    hi = min(t_star + 4.0, 100.0)
    return singular_points_delta5(lo, hi, 0.01)


def _trace(kind: str, n: int, sigma_start: float, step: float,
           catalog: Optional[Sequence[CriticalPoint]]) -> PhasePath:
    if int(n) != n or n < 1:
        raise DomainError("n must be a positive integer")
    if sigma_start < 8.0:
        raise DomainError("sigma_start must be at least 8")
    if not 0.0 < step <= 0.5:
        raise DomainError("step must lie in (0, 0.5]")
    n = int(n)
    t0 = (n + (0.5 if kind == "amplitude_one" else 0.0)) * math.pi / LN2
    got = _corrector(kind, sigma_start, t0)
    if got is None:
        raise TraceStalled(f"{kind} corrector failed at the seed (n={n})")
    t_cur, v_cur, d_cur = got
    sigma_cur = sigma_start
    points = [(sigma_cur, t_cur)]
    pending = list(reversed(_sigma_schedule(sigma_start, step)))
    while pending:
        target = pending[-1]
        slope = _predictor_slope(kind, v_cur, d_cur)
        got = _corrector(kind, target, t_cur + slope * (target - sigma_cur))
        if got is None:
            half = 0.5 * (sigma_cur + target)
            if sigma_cur - half < _MIN_STEP:
                raise TraceStalled(
                    f"{kind} line n={n} stalled at sigma={sigma_cur:.6f} (step below 1e-4)")
            pending.append(half)
            continue
        pending.pop()
        t_cur, v_cur, d_cur = got
        sigma_cur = target
        points.append((sigma_cur, t_cur))

    (sa, ta), (sb, tb) = points[-2], points[-1]
    t_star = ta + (tb - ta) * (sa - 0.5) / (sa - sb)
    if catalog is None:
        catalog = _window_catalog(t_star)
    terminus_point = None
    if kind == "phase_zero":
        if not catalog:
            raise NoCatalogMatch(f"no catalogued point near terminus t = {t_star:.6f}")
        nearest = min(catalog, key=lambda p: abs(p.t - t_star))
        if abs(nearest.t - t_star) > _MATCH_RADIUS:
            raise NoCatalogMatch(
                f"terminus t = {t_star:.6f} is {abs(nearest.t - t_star):.4f} from the "
                f"nearest catalogued point (limit {_MATCH_RADIUS})")
        terminus_point = nearest
    else:
        below = [p.t for p in catalog if p.t < t_star - 1e-9]
        above = [p.t for p in catalog if p.t > t_star + 1e-9]
        if not below or not above or min(abs(p.t - t_star) for p in catalog) <= 1e-9:
            raise TerminusNotBetweenSingularities(
                f"amplitude-one terminus t = {t_star:.6f} does not fall strictly "
                "between two catalogued points")
    return PhasePath(anchor_index=n, line_kind=kind,
                     points=tuple(points), terminus_t=float(t_star),
                     terminus_point=terminus_point)


def trace_phase_zero_line(n: int, sigma_start: float = 12.0, step: float = 0.02,
                          catalog: Optional[Sequence[CriticalPoint]] = None) -> PhasePath:
    """Trace the n-th phase-zero line from (sigma_start, n pi/ln 2) down
    across the critical line; the terminus must match a catalogued zero or
    pole within 0.05 in t (NoCatalogMatch otherwise).  Pass a precomputed
    catalog to skip the local critical-line scan."""
    return _trace("phase_zero", n, sigma_start, step, catalog)


def trace_amplitude_one_line(n: int, sigma_start: float = 12.0, step: float = 0.02,
                             catalog: Optional[Sequence[CriticalPoint]] = None) -> PhasePath:
    """Trace the n-th amplitude-one line from (sigma_start, (n+1/2) pi/ln 2);
    its terminus must fall strictly between two consecutive catalogued
    critical-line points (TerminusNotBetweenSingularities otherwise)."""
    return _trace("amplitude_one", n, sigma_start, step, catalog)


def _polyline_complex(polyline) -> np.ndarray:
    pts = np.asarray([complex(p[0], p[1]) for p in polyline], dtype=np.complex128)
    if pts.size < 3:
        raise DomainError("a closed contour needs at least three vertices")
    if abs(pts[0] - pts[-1]) > 1e-12:
        raise DomainError("polyline is not closed (first and last differ by more than 1e-12)")
    return pts


def _check_contour_values(vals: np.ndarray, where: np.ndarray) -> None:
    bad = ~np.isfinite(vals) | (np.abs(vals) < _GUARD_LO) | (np.abs(vals) > _GUARD_HI)
    if np.any(bad):
        s = where[np.argmax(bad)]
        raise SingularOnContour(
            f"contour point sigma={s.real:.6f}, t={s.imag:.6f} is singular or "
            "has |delta5| outside [1e-8, 1e8]")


def winding_count(polyline, refine_limit: int = 40) -> WindingReport:
    """Total argument change of the quotient around a closed polyline.

    Edge increments are principal arguments of ratios of consecutive values;
    any edge whose increment exceeds pi/2 is bisected, up to refine_limit
    nested splits, so no edge can silently swallow a full branch turn.
    zeros_minus_poles is the winding number (counterclockwise positive).
    """
    if refine_limit < 1:
        raise DomainError("refine_limit must be a positive integer")
    pts = _polyline_complex(polyline)
    vals = _delta_q_values(4, pts)
    _check_contour_values(vals, pts)

    total = 0.0
    max_jump = 0.0

    def edge(sa, va, sb, vb, depth):
        nonlocal total, max_jump
        inc = np.angle(vb / va)
        if abs(inc) <= 0.5 * math.pi:
            total += inc
            if abs(inc) > max_jump:
                max_jump = abs(inc)
            return
        if depth >= refine_limit:
            raise RefinementExhausted(
                f"edge near sigma={sa.real:.6f}, t={sa.imag:.6f} still jumps "
                f"{abs(inc):.3f} rad after {refine_limit} splits")
        sm = 0.5 * (sa + sb)
        vm = _delta_q_values(4, np.array([sm]))
        _check_contour_values(vm, np.array([sm]))
        edge(sa, va, sm, complex(vm[0]), depth + 1)
        edge(sm, complex(vm[0]), sb, vb, depth + 1)

    for k in range(pts.size - 1):
        edge(pts[k], complex(vals[k]), pts[k + 1], complex(vals[k + 1]), 0)

    winding = total / (2.0 * math.pi)
    nearest = round(winding)
    if abs(winding - nearest) > 1e-3:
        raise RefinementExhausted(
            f"total argument change {total:.6f} rad is not an integer winding "
            f"(off by {abs(winding - nearest):.2e} turns)")
    return WindingReport(total_arg_change=float(total),
                         zeros_minus_poles=int(nearest),
                         max_step_jump=float(max_jump))


def argument_principle_box(n_low: int, n_high: int, sigma_right: float = 12.0,
                           refine_limit: int = 40) -> WindingReport:
    """Winding count around the box bounded below and above by phase-zero
    lines n_low < n_high, on the right by sigma = sigma_right, and on the
    left by sigma = 1/2 + 0.02 (clearance from the critical-line poles and
    zeros).  Zero-pole balance in the strip makes the expected count 0."""
    if n_low >= n_high:
        raise DomainError("need n_low < n_high: equal indices bound no region")
    low = trace_phase_zero_line(n_low, sigma_right)
    high = trace_phase_zero_line(n_high, sigma_right)

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
    return winding_count(poly, refine_limit)


def amplitude_circle(A: float) -> AmplitudeCircle:
    """Locus of |1 - 1/(16 conj(s))| = A: by the Apollonius construction of
    |s - 1/16| = A |s| this is the circle centered at 1/(16(1-A^2)) with
    radius A/(16 |1-A^2|)."""
    if not A > 0.0:
        raise DomainError("A must be positive")
    if abs(A - 1.0) <= 1e-12:
        raise DegenerateCircle("A = 1 gives a vertical line, not a circle")
    return AmplitudeCircle(A=float(A),
                           center_sigma=1.0 / (16.0 * (1.0 - A * A)),
                           radius=A / (16.0 * abs(1.0 - A * A)))


def sample_circle_moduli(circle: AmplitudeCircle, count: int = 32) -> np.ndarray:
    """Moduli of 1 - 1/(16 conj(s)) at count equally spaced points of the
    circle; all should equal circle.A to rounding."""
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
