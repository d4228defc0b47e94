"""End-to-end verification suite.

Thirteen numbered checks cover every quantitative claim the package makes:
residue and slope tables on the real axis, the functional equation, the
critical-line phase asymptote, the singular-point sequence, phase-line
termini, argument-principle boxes, the zero-census identity, count-versus-
main-term envelopes, amplitude circles, bracket-factor anchors, render
byte-stability and the special-value table.  ``run_all`` executes them in
order, prints one pass/fail line each, and returns the results; the CLI
``verify-all`` subcommand is a thin wrapper around it.

Expensive inputs (zero catalogs, traced lines) are built once per
``VerificationContext`` and shared between checks.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DeltaLensError, DomainError
from .evalcore import _central_difference, beta_L, dirichlet_L, hurwitz_zeta, zeta
from .quotient import (QuotientKind, bracket_phase_zeros, critical_phase_approx,
                       delta5, fold_phase, functional_equation_residual)
from .critical import (POLE_SIGMAS, ZERO_SIGMAS, completed_beta,
                       completed_zeta, residue_at_pole, slope_at_zero)
from .contours import (_box_polygon, _trace_lines, amplitude_circle,
                       sample_circle_moduli, winding_count)
from .census import (build_catalog, census_identity_check, count_entries,
                     n_beta_main, n_zeta_main, pairs_between_phase_lines)
from .render import (PortraitSpec, _render_rows, locate_quadrant_meeting_points,
                     render_phase_quadrants)

_GRID_SEED = 20260814          # fixed so the exclusion grid is reproducible
_TRACE_COUNT = 12

# residue table: (sigma, reference value, tolerance); the sigma = 1 entry is
# cross-checked against (pi/4) / zeta(3/2) at 1e-9 separately
REFERENCE_RESIDUES = (
    (1.0, 0.300645, 1e-5),
    (-0.75, 0.312673, 1e-4),
    (-1.75, 0.25505, 1e-4),
    (-2.75, 0.237821, 1e-4),
    (-3.75, 0.230136, 1e-4),
    (-4.75, 0.22657, 1e-4),
)

# slope table at the real first-order zeros, all at 1e-3
REFERENCE_SLOPES = (
    (0.75, -5.0378),
    (-1.0, -5.7055),
    (-2.0, -4.9245),
    (-3.0, -4.645),
    (-4.0, -4.51975),
)

# first six critical-line singular points: kind sequence and display
# ordinates; the independent scan oracle below is authoritative for the
# ordinates (the fifth display value, 12.5352, is a known misprint of the
# oracle-confirmed 12.505429)
REFERENCE_KINDS = ("zero", "pole", "zero", "pole", "pole", "zero")
REFERENCE_ORDINATES = (6.0209, 7.0674, 10.2437, 10.5111, 12.5352, 12.9880)

CATALAN = 0.915965594177219015


@dataclass(frozen=True)
class CriterionResult:
    number: int
    slug: str
    passed: bool
    elapsed: float
    detail: str


class VerificationContext:
    """Shared lazily-built inputs for the checks."""

    @cached_property
    def merged_catalog(self):
        return build_catalog("delta5_merged", 60.0)

    @cached_property
    def zeta_catalog(self):
        return build_catalog("zeta", 120.0)

    @cached_property
    def beta_catalog(self):
        return build_catalog("beta", 101.0)

    def _traces(self, kind):
        ns = range(1, _TRACE_COUNT + 1)
        return dict(zip(ns, _trace_lines(kind, ns, catalog=self.merged_catalog.entries)))

    @cached_property
    def phase_traces(self):
        """Phase-zero lines 1..12, traced in one lockstep."""
        return self._traces("phase_zero")

    @cached_property
    def amplitude_traces(self):
        """Amplitude-one lines 1..12, traced in one lockstep."""
        return self._traces("amplitude_one")


def _check_residues(ctx: VerificationContext) -> tuple[bool, str]:
    failures = []
    worst = 0.0
    for sigma, ref, tol in REFERENCE_RESIDUES:
        got = residue_at_pole(sigma).coefficient
        diff = abs(got - ref)
        worst = max(worst, diff)
        if diff > tol:
            failures.append(f"sigma={sigma:g}: computed {got:.8f} vs "
                            f"reference {ref} (diff {diff:.1e} > tol {tol:.0e})")
    cross = abs(residue_at_pole(1.0).coefficient - (math.pi / 4.0) / zeta(1.5).real)
    if cross > 1e-9:
        failures.append(f"sigma=1 cross-check off by {cross:.1e} (tol 1e-09)")
    if failures:
        return False, "; ".join(failures)
    return True, f"six residues within tolerance (worst diff {worst:.1e}), " \
                 f"sigma=1 cross-check {cross:.1e}"


def _check_slopes(ctx: VerificationContext) -> tuple[bool, str]:
    failures = []
    worst = 0.0
    for sigma, ref in REFERENCE_SLOPES:
        got = slope_at_zero(sigma).coefficient
        diff = abs(got - ref)
        worst = max(worst, diff)
        if diff > 1e-3:
            failures.append(f"sigma={sigma:g}: computed {got:.8f} vs "
                            f"reference {ref} (diff {diff:.1e} > tol 1e-03)")
    # independent route: measure the slope from the quotient itself and
    # compare against the closed form 2 zeta(3/4) beta(3/4)
    measured = _central_difference(delta5, 0.75).real
    cross = abs(measured - 2.0 * zeta(0.75).real * beta_L(0.75).real)
    if cross > 1e-8:
        failures.append(f"sigma=3/4 cross-check off by {cross:.1e} (tol 1e-08)")
    if failures:
        return False, "; ".join(failures)
    return True, f"five slopes within 1e-03 (worst diff {worst:.1e}), " \
                 f"sigma=3/4 cross-check {cross:.1e}"


def _exclusion_points(ctx: VerificationContext) -> list[complex]:
    # singular points of the quotient (critical-line catalog plus real-axis
    # features) and gamma-factor poles at s = 1 + k and s = 1/4 - k; the
    # real-axis members can never be within 0.05 of the t >= 2 grid but are
    # kept so the exclusion list states the full rule
    pts = [complex(0.5, e.t) for e in ctx.merged_catalog.entries]
    pts += [complex(a, 0.0) for a in POLE_SIGMAS + ZERO_SIGMAS]
    pts += [complex(1.0 + k, 0.0) for k in range(3)]
    pts += [complex(0.25 - k, 0.0) for k in range(3)]
    return pts


def _check_functional_equation(ctx: VerificationContext) -> tuple[bool, str]:
    rng = np.random.default_rng(_GRID_SEED)
    excl = _exclusion_points(ctx)
    samples = []
    while len(samples) < 200:
        sigma = rng.uniform(-2.0, 3.0)
        t = rng.uniform(2.0, 60.0)
        s = complex(sigma, t)
        if all(abs(s - p) > 0.05 for p in excl):
            samples.append(s)
    worst = 0.0
    worst_s = samples[0]
    for s in samples:
        r = functional_equation_residual(s)
        if r > worst:
            worst, worst_s = r, s
    ok = worst <= 1e-8
    return ok, (f"worst residual {worst:.2e} at s = {worst_s.real:.4f}"
                f"{worst_s.imag:+.4f}i over 200 points (tol 1e-08)")


def _check_critical_phase(ctx: VerificationContext) -> tuple[bool, str]:
    worst = 0.0
    for t in (5.0, 10.0, 20.0, 40.0, 80.0):
        phase = fold_phase(float(np.angle(delta5(complex(0.5, t)))))
        approx = critical_phase_approx(t)
        worst = max(worst, abs(phase - approx.phase_mod_pi))
    ok = worst <= 2e-2
    return ok, f"worst |folded phase - asymptote| {worst:.2e} " \
               f"at t in {{5,10,20,40,80}} (tol 2e-02)"


def _bisect(fn: Callable[[float], float], a: float, b: float, fa: float) -> float:
    for _ in range(60):
        m = 0.5 * (a + b)
        fm = fn(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m
        if b - a < 1e-12:
            break
    return 0.5 * (a + b)


def _oracle_singular_points(t_hi=15.5, step=1e-3):
    """Independent scan oracle: plain sign scan at the stated step over the
    real-valued completed functions, bisected to refinement.  Its bracketing
    and bisection are deliberately simpler than (and separate from) the
    production scanner's; its bulk scan, an equally spaced critical line,
    shares the line product of evalcore._power_sum with find_zeros."""
    grid = np.arange(0.5, t_hi, step)
    found = []

    def scan(vals, fn, kind):
        sign_flip = np.sign(vals[:-1]) * np.sign(vals[1:]) < 0
        for k in np.nonzero(sign_flip)[0]:
            t = _bisect(fn, grid[k], grid[k + 1], vals[k])
            found.append((t, kind))

    line = 0.5 + 1j * grid
    scan(completed_zeta(line).real, lambda t: completed_zeta(complex(0.5, t)).real, "zero")
    scan(completed_beta(line).real, lambda t: completed_beta(complex(0.5, t)).real, "zero")
    scan(completed_zeta(0.5 + 2j * grid).real,
         lambda t: completed_zeta(complex(0.5, 2.0 * t)).real, "pole")
    found.sort()
    return found


def _check_singular_sequence(ctx: VerificationContext) -> tuple[bool, str]:
    oracle = _oracle_singular_points()
    catalog = ctx.merged_catalog.entries[:6]
    if len(catalog) < 6 or len(oracle) < 6:
        return False, "fewer than six singular points found below t = 15.5"
    kinds = tuple(e.kind for e in catalog)
    if kinds != REFERENCE_KINDS:
        return False, f"kind sequence {kinds} != {REFERENCE_KINDS}"
    if tuple(k for _, k in oracle[:6]) != REFERENCE_KINDS:
        return False, "oracle kind sequence disagrees with the catalog"
    worst = max(abs(e.t - t) for e, (t, _) in zip(catalog, oracle[:6]))
    if worst > 1e-6:
        return False, f"catalog and scan oracle disagree by {worst:.1e} (tol 1e-06)"
    display = max(abs(e.t - r) for e, r in
                  zip((catalog[i] for i in (0, 1, 2, 3, 5)),
                      (REFERENCE_ORDINATES[i] for i in (0, 1, 2, 3, 5))))
    return True, (f"Z,P,Z,P,P,Z confirmed; worst oracle distance {worst:.1e}; "
                  f"display ordinates match to {display:.1e} (fifth entry "
                  f"12.5352 is a misprint of oracle value "
                  f"{oracle[4][0]:.6f}, oracle governs)")


def _check_termini(ctx: VerificationContext) -> tuple[bool, str]:
    failures = []
    worst = 0.0
    for n in range(1, _TRACE_COUNT + 1):
        path = ctx.phase_traces[n]
        if path.terminus_point is None:
            failures.append(f"phase line {n} matched no catalogued point")
            continue
        worst = max(worst, abs(path.terminus_t - path.terminus_point.t))
    ts = [e.t for e in ctx.merged_catalog.entries]
    for n in range(1, _TRACE_COUNT + 1):
        t = ctx.amplitude_traces[n].terminus_t
        k = int(np.searchsorted(ts, t))
        if k == 0 or k >= len(ts) or not ts[k - 1] < t < ts[k]:
            failures.append(f"amplitude line {n} terminus {t:.6f} is not "
                            f"strictly between catalogued points")
    if failures:
        return False, "; ".join(failures)
    return True, (f"12 phase termini within 0.05 of catalogued points "
                  f"(worst {worst:.1e}); 12 amplitude termini strictly "
                  f"between neighbours")


def _check_box_balance(ctx: VerificationContext) -> tuple[bool, str]:
    failures = []
    for n in range(1, 11):
        # the box of argument_principle_box(n, n + 1), on the shared traces
        report = winding_count(_box_polygon(ctx.phase_traces[n], ctx.phase_traces[n + 1]))
        if report.zeros_minus_poles != 0:
            failures.append(f"box ({n},{n + 1}) winding "
                            f"{report.zeros_minus_poles} != 0")
        z, p = pairs_between_phase_lines(n, ctx.merged_catalog, ctx.phase_traces)
        if z != p:
            failures.append(f"pairing between lines {n},{n + 1}: "
                            f"{z} zeros vs {p} poles")
    if failures:
        return False, "; ".join(failures)
    return True, "ten boxes all wind 0; zero/pole counts between " \
                 "consecutive lines all equal"


def _check_census_identity(ctx: VerificationContext) -> tuple[bool, str]:
    rng = np.random.default_rng(_GRID_SEED + 1)
    worst_alg = 0.0
    for t in rng.uniform(2.0, 100.0, size=100):
        diff = abs(n_zeta_main(2.0 * t) - n_zeta_main(t) - n_beta_main(t))
        worst_alg = max(worst_alg, diff)
    if worst_alg > 1e-10:
        return False, f"main-term identity off by {worst_alg:.1e} (tol 1e-10)"
    cats = {"zeta": ctx.zeta_catalog, "beta": ctx.beta_catalog}
    diffs = {}
    for T in (20.0, 30.0, 40.0, 50.0):
        doubled, split = census_identity_check(T, cats)
        diffs[T] = doubled.counted - split.counted
    if any(abs(d) > 1 for d in diffs.values()):
        return False, f"counted identity exceeded 1: {diffs}"
    exact = {}
    for n in (2, 4):
        point = ctx.phase_traces[n].terminus_point
        if point is None or point.kind != "pole":
            return False, f"phase line {n} did not terminate at a pole"
        doubled, split = census_identity_check(point.t, cats)
        exact[n] = doubled.counted - split.counted
    if any(d != 0 for d in exact.values()):
        return False, f"identity not exact at traced pole termini: {exact}"
    return True, (f"main terms agree to {worst_alg:.1e}; counted diffs "
                  f"{[diffs[T] for T in sorted(diffs)]} at T in {{20,30,40,50}}; "
                  f"exactly 0 at both traced pole termini")


def _check_zero_counts(ctx: VerificationContext) -> tuple[bool, str]:
    worst = 0.0
    failures = []
    for t in (20.0, 40.0, 60.0, 80.0, 100.0):
        for catalog, main in ((ctx.zeta_catalog, n_zeta_main),
                              (ctx.beta_catalog, n_beta_main)):
            resid = abs(count_entries(catalog, t) - main(t))
            worst = max(worst, resid)
            if resid > 2.0:
                failures.append(f"{catalog.source} at t={t:g}: "
                                f"|counted - main| = {resid:.3f}")
    if failures:
        return False, "; ".join(failures)
    return True, f"both families within 2 of the main term at " \
                 f"t in {{20,40,60,80,100}} (worst {worst:.3f})"


def _check_amplitude_circles(ctx: VerificationContext) -> tuple[bool, str]:
    worst = 0.0
    for A in (0.8, 0.9, 0.95, 1.05, 1.25):
        circle = amplitude_circle(A)
        moduli = sample_circle_moduli(circle, 32)
        worst = max(worst, float(np.max(np.abs(moduli - A))))
    ok = worst <= 1e-9
    return ok, f"sampled factor modulus constant to {worst:.1e} " \
               f"for A in {{0.8,0.9,0.95,1.05,1.25}} (tol 1e-09)"


def _check_bracket_anchors(ctx: VerificationContext) -> tuple[bool, str]:
    worst = 0.0
    failures = []
    for q, period_log, t_hi in ((3, math.log(4.0 / 3.0), 56.0),
                                (8, math.log(2.0), 24.0)):
        zeros = bracket_phase_zeros(q, 14.0, t_hi)
        if len(zeros) < 5:
            failures.append(f"q={q}: only {len(zeros)} anchor ordinates found")
            continue
        for m in range(1, 6):
            diff = abs(zeros[m - 1] - m * math.pi / period_log)
            worst = max(worst, diff)
            if diff > 1e-3:
                failures.append(f"q={q}, m={m}: off anchor by {diff:.1e}")
    if failures:
        return False, "; ".join(failures)
    return True, f"ten anchor ordinates at sigma=14 within 1e-03 " \
                 f"(worst {worst:.1e})"


def _render_invariant_portrait():
    spec = PortraitSpec(sigma_min=-1.0, sigma_max=2.0, t_min=0.0, t_max=60.0,
                        width=600, height=1200, mode="phase_quadrant",
                        function=QuotientKind(4))
    return spec, render_phase_quadrants(spec)


def _check_render_regression(ctx: VerificationContext) -> tuple[bool, str]:
    spec, first = _render_invariant_portrait()
    _, again = _render_invariant_portrait()
    # a row partition other than the 64-row blocks must give the same bytes
    partitioned = b"".join(_render_rows(spec, j0, min(j0 + 37, spec.height))
                           for j0 in range(0, spec.height, 37))
    if again.pixels != first.pixels:
        return False, "pixel bytes differ across repeat runs"
    if partitioned != first.pixels:
        return False, "pixel bytes differ between 64-row and 37-row partitions"
    points = locate_quadrant_meeting_points(first, spec)
    dsig, dt = spec.pixel_size()
    misses = []
    worst = 0.0
    for e in ctx.merged_catalog.entries[:6]:
        hit = [p for p in points
               if abs(p[0] - 0.5) <= 2.0 * dsig and abs(p[1] - e.t) <= 2.0 * dt]
        if not hit:
            misses.append(f"t={e.t:.4f} not detected")
        else:
            worst = max(worst, min(abs(p[1] - e.t) for p in hit))
    if misses:
        return False, "; ".join(misses)
    return True, (f"600x1200 portrait byte-stable across 2 runs and row "
                  f"partitions 64/37; all six reference meeting points detected "
                  f"(worst ordinate offset {worst:.4f}, tol {2 * dt:g})")


def _check_special_values(ctx: VerificationContext) -> tuple[bool, str]:
    table = (
        ("zeta(2)", zeta(2.0).real, math.pi ** 2 / 6.0, 1e-10),
        ("zeta(0)", zeta(0.0).real, -0.5, 1e-10),
        ("zeta(-2)", zeta(-2.0).real, 0.0, 1e-10),
        ("beta(1)", beta_L(1.0).real, math.pi / 4.0, 1e-10),
        ("beta(0)", beta_L(0.0).real, 0.5, 1e-10),
        ("beta(2)", beta_L(2.0).real, CATALAN, 1e-9),
        ("L(-3)(1)", dirichlet_L(3, 1.0).real, math.pi / (3.0 * math.sqrt(3.0)), 1e-10),
        ("hurwitz(2,1/2)", hurwitz_zeta(2.0, 0.5).real, math.pi ** 2 / 2.0, 1e-10),
    )
    failures = []
    worst = 0.0
    for name, got, want, tol in table:
        diff = abs(got - want)
        worst = max(worst, diff)
        if diff > tol:
            failures.append(f"{name} = {got:.14f}, expected {want:.14f} "
                            f"(diff {diff:.1e} > tol {tol:.0e})")
    if failures:
        return False, "; ".join(failures)
    return True, f"eight special values reproduced (worst diff {worst:.1e})"


REGISTRY: tuple[tuple[int, str, Callable], ...] = (
    (1, "residues", _check_residues),
    (2, "slopes", _check_slopes),
    (3, "functional-equation", _check_functional_equation),
    (4, "critical-phase", _check_critical_phase),
    (5, "singular-sequence", _check_singular_sequence),
    (6, "termini", _check_termini),
    (7, "box-balance", _check_box_balance),
    (8, "census-identity", _check_census_identity),
    (9, "zero-counts", _check_zero_counts),
    (10, "amplitude-circles", _check_amplitude_circles),
    (11, "bracket-anchors", _check_bracket_anchors),
    (12, "render-regression", _check_render_regression),
    (13, "special-values", _check_special_values),
)


def run_criterion(number_or_slug, ctx: Optional[VerificationContext] = None
                  ) -> CriterionResult:
    """Run a single check by number or slug.  A check that raises a
    DeltaLensError fails, with the error's class and message as its detail;
    other exceptions propagate."""
    if ctx is None:
        ctx = VerificationContext()
    for number, slug, fn in REGISTRY:
        if number_or_slug in (number, slug):
            start = time.perf_counter()
            try:
                passed, detail = fn(ctx)
            except DeltaLensError as exc:
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            return CriterionResult(number=number, slug=slug, passed=passed,
                                   elapsed=time.perf_counter() - start,
                                   detail=detail)
    known = ", ".join(slug for _, slug, _ in REGISTRY)
    raise DomainError(f"unknown criterion {number_or_slug!r}; known: {known}")


def run_all(only: Optional[str] = None, stream=None,
            ctx: Optional[VerificationContext] = None) -> list[CriterionResult]:
    """Run the suite (or one named check) and print one line per result."""
    if stream is None:
        stream = sys.stdout
    if ctx is None:
        ctx = VerificationContext()
    results = []
    for key in ([number for number, _, _ in REGISTRY] if only is None else [only]):
        res = run_criterion(key, ctx)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{res.number:2d}/13] {res.slug:<20} {status} "
              f"{res.elapsed:7.1f}s  {res.detail}", file=stream)
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed", file=stream)
    return results
