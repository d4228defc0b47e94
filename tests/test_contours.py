"""Level-line tracing, argument-principle winding counts and the
constant-amplitude circles of the reflection factor."""

import io
import math

import numpy as np
import pytest

from delta_lens import contours
from delta_lens.contours import (AmplitudeCircle, PhasePath, WindingReport,
                                 _box_polygon, _trace_lines, amplitude_circle,
                                 argument_principle_box, export_trace_csv,
                                 sample_circle_moduli, trace_amplitude_one_line,
                                 trace_phase_zero_line, winding_count)
from delta_lens.critical import singular_points_delta5
from delta_lens.errors import (DegenerateCircle, DomainError, IoFailure,
                               NoCatalogMatch, RefinementExhausted,
                               SingularityTooClose, SingularOnContour,
                               TerminusNotBetweenSingularities, TraceStalled)
from delta_lens.quotient import _log_derivatives, delta5, fold_phase

FIRST_BETA_ZERO = 6.020948904697586


def test_phase_trace_reaches_first_zero(phase_traces):
    path = phase_traces[1]
    assert path.line_kind == "phase_zero"
    assert path.terminus_point is not None
    assert path.terminus_point.kind == "zero"
    assert abs(path.terminus_point.t - FIRST_BETA_ZERO) < 1e-6
    assert abs(path.terminus_t - path.terminus_point.t) < 0.05


def _trace_values(traces) -> np.ndarray:
    # delta5 re-evaluated at every point of the twelve shared traces, sigma = 12 included
    return delta5(np.array([complex(s, t) for path in traces.values() for s, t in path.points]))


def test_phase_trace_interior_really_has_zero_phase(phase_traces):
    # the tracer stops at |folded phase| <= 1e-10 before its last Newton
    # step; re-evaluation in another batch moves that by rounding only
    # (worst seen 2.5e-11)
    worst = max(abs(fold_phase(float(a))) for a in np.angle(_trace_values(phase_traces)))
    assert worst <= 1.5e-10


def test_amplitude_trace_between_singular_points(amplitude_traces, merged_catalog):
    path = amplitude_traces[1]
    ts = [e.t for e in merged_catalog.entries]
    k = int(np.searchsorted(ts, path.terminus_t))
    assert 0 < k < len(ts)
    assert ts[k - 1] < path.terminus_t < ts[k]
    worst = float(np.max(np.abs(np.log(np.abs(_trace_values(amplitude_traces))))))
    assert worst <= 1.5e-10  # 2.5e-11 seen


@pytest.mark.parametrize("kind, rot", [("phase", 1.0), ("amplitude", 1j)])
def test_traced_points_lie_on_their_level_line(kind, rot, request):
    # three Newton steps at fixed sigma from every traced point, all points
    # in one kernel batch, converge to the level line Im(rot l) = 0 there;
    # every accepted Newton step is taken, so no traced t is more than 1e-9 from it
    # (6.4e-10 seen for lines 1..21; an iterate accepted without its step
    # was 5.6e-7 off near sigma = 12)
    traces = request.getfixturevalue(f"{kind}_traces")
    s = np.array([complex(sigma, t) for path in traces.values() for sigma, t in path.points])
    t = s.imag
    for _ in range(3):
        v, l1, _ = _log_derivatives(4, s.real + 1j * t)
        t = t - (0.5 * rot * np.log(v * v)).imag / (rot * l1).real
    assert float(np.max(np.abs(t - s.imag))) <= 1e-9


def test_trace_validation():
    with pytest.raises(DomainError):
        trace_phase_zero_line(0)
    with pytest.raises(DomainError):
        trace_phase_zero_line(2.5)


@pytest.mark.parametrize("n", [float("nan"), float("inf"), float("-inf"), 3.0, np.float64(2.0), True],
                         ids=["nan", "inf", "-inf", "3.0", "float64", "True"])
def test_trace_rejects_non_integer_index(n):
    for trace in (trace_phase_zero_line, trace_amplitude_one_line):
        with pytest.raises(DomainError):
            trace(n)
    with pytest.raises(DomainError):
        argument_principle_box(n, 5)


def _patched_kernel(monkeypatch, change):
    kernel = contours._log_derivatives
    monkeypatch.setattr(contours, "_log_derivatives", lambda q, s: change(s, *kernel(q, s)))


def test_trace_stalls_at_the_seed(monkeypatch):
    # the seed is the first target of the schedule: a failed seed has no
    # step left to halve
    nan = complex(math.nan, math.nan)
    _patched_kernel(monkeypatch, lambda s, v, l1, l2: (np.full_like(v, nan),) * 3)
    with pytest.raises(TraceStalled, match=r"line n=5 stalled at sigma=12\.000000 \(step below 1e-4\)") as info:
        trace_phase_zero_line(5, catalog=[])
    assert (info.value.kind, info.value.line, info.value.points) == ("phase_zero", 5, ())
    assert info.value.last == (12.0, 5.0 * math.pi / math.log(2.0))


def test_trace_stalls_at_the_minimum_step(monkeypatch):
    def nan_left_of_6(s, v, l1, l2):
        v[s.real < 6.0] = math.nan
        return v, l1, l2

    _patched_kernel(monkeypatch, nan_left_of_6)
    with pytest.raises(TraceStalled, match=r"line n=2 stalled at sigma=6\.000000 \(step below 1e-4\)"):
        trace_amplitude_one_line(2, catalog=[])


def test_trace_stalls_instead_of_leaving_the_line():
    # line 51 ends next to a singular point near t = 232, where Re w ~ 0: an
    # unbounded Newton step there sent t to 666,285, above the height ceiling
    with pytest.raises(TraceStalled, match=r"line n=51 stalled at sigma=0\.50\d+ \(step below 1e-4\)") as info:
        trace_phase_zero_line(51, catalog=())
    # the error carries the path traced so far: it ends next to the zeta zero
    # at t = 231.98724 that the line converges on
    err = info.value
    assert (err.kind, err.line) == ("phase_zero", 51) and err.last == err.points[-1]
    assert err.points[0][0] == 12.0 and 0.5 < err.points[-1][0] < 0.501
    assert abs(err.points[-1][1] - 231.9869) <= 1e-3


def test_trace_refuses_a_singular_value(monkeypatch):
    _patched_kernel(monkeypatch, lambda s, v, l1, l2: (1e9 * v, l1, l2))
    with pytest.raises(SingularityTooClose, match=r"outside \[1e-8, 1e8\] at sigma=12\.000000, t="):
        trace_phase_zero_line(5, catalog=[])


def test_singular_value_names_its_line(monkeypatch):
    # a box marches lines 5 (seed t = 22.7) and 6 (seed t = 27.2) in lockstep;
    # only line 6 meets the guard, and the message says so
    def singular_above_25(s, v, l1, l2):
        return np.where(s.imag > 25.0, 1e9 * v, v), l1, l2

    _patched_kernel(monkeypatch, singular_above_25)
    with pytest.raises(SingularityTooClose, match=r"^phase_zero line n=6: \|delta5\| = .* outside "
                       r"\[1e-8, 1e8\] at sigma=12\.000000, t=27\.") as info:
        argument_principle_box(5, 6)
    assert (info.value.kind, info.value.line, info.value.points) == ("phase_zero", 6, ())
    assert info.value.last == (12.0, 6.0 * math.pi / math.log(2.0))


def test_phase_trace_without_catalog_match(phase_traces, merged_catalog):
    # each failure carries its terminus t_star, with the digits of its
    # message, and the nearest catalogued point, None where there is none
    with pytest.raises(NoCatalogMatch, match=r"no catalogued point near terminus t = ") as info:
        trace_phase_zero_line(5, catalog=[])
    assert f"t = {info.value.t_star:.6f}" in str(info.value) and info.value.nearest is None
    t_star = info.value.t_star
    assert abs(t_star - phase_traces[5].terminus_t) <= 1e-9  # the lockstep trace differs in its last bits
    far = [e for e in merged_catalog.entries if abs(e.t - t_star) > 0.5]
    with pytest.raises(NoCatalogMatch, match=r"from the nearest catalogued point \(limit 0\.05\)") as info:
        trace_phase_zero_line(5, catalog=far)
    assert info.value.t_star == t_star
    assert info.value.nearest == min(far, key=lambda p: abs(p.t - t_star))
    assert f"is {abs(info.value.nearest.t - t_star):.4f} from" in str(info.value)
    # line 22 ends at t = 100.63, past the end of its own window scan at t = 100
    with pytest.raises(NoCatalogMatch, match=r"terminus t = 100\.6\d+ is ") as info:
        trace_phase_zero_line(22)
    assert 100.6 < info.value.t_star < 100.7 and info.value.nearest is None


@pytest.mark.parametrize("trace, n, error", [
    (trace_phase_zero_line, 23, NoCatalogMatch),
    (trace_phase_zero_line, 24, NoCatalogMatch),
    (trace_amplitude_one_line, 22, TerminusNotBetweenSingularities),
    (trace_amplitude_one_line, 23, TerminusNotBetweenSingularities)],
    ids=["phase-23", "phase-24", "amplitude-22", "amplitude-23"])
def test_trace_past_the_catalog_end_raises_its_terminus_error(trace, n, error, monkeypatch):
    # termini above t = 100 (phase 103.73 and 109.53, amplitude 102.91 and
    # 105.63; phase line 22 is above) lie past the window catalog: each
    # kind's terminus error names its end, and no window is scanned
    def no_scan(*args):
        raise AssertionError("a window was scanned")

    monkeypatch.setattr(contours, "singular_points_delta5", no_scan)
    with pytest.raises(error, match=r"^terminus t = 1\d\d\.\d{6} is past the catalog end t = 100$") as info:
        trace(n)
    assert str(info.value).startswith(f"terminus t = {info.value.t_star:.6f} ") and info.value.nearest is None


def test_amplitude_trace_needs_points_on_both_sides(amplitude_traces, merged_catalog):
    t_star = amplitude_traces[3].terminus_t
    below = [e for e in merged_catalog.entries if e.t < t_star]
    with pytest.raises(TerminusNotBetweenSingularities, match=r"terminus t = \d+\.\d{6} does not") as info:
        trace_amplitude_one_line(3, catalog=below)
    assert f"t = {info.value.t_star:.6f} " in str(info.value) and info.value.nearest is None
    assert abs(info.value.t_star - t_star) <= 1e-9


def test_trace_accepts_numpy_integer_index(merged_catalog, phase_traces):
    path = trace_phase_zero_line(np.int64(1), catalog=merged_catalog.entries)
    assert path.anchor_index == 1 and type(path.anchor_index) is int
    assert path.terminus_point == phase_traces[1].terminus_point


@pytest.mark.parametrize("ns, step", [([3, 4], 0.02), ([5, 12], 0.5)], ids=["3-4", "5-12-step0.5"])
def test_lockstep_matches_single_traces(ns, step, merged_catalog, monkeypatch):
    monkeypatch.setattr(contours, "_SIGMA_STEP", step)
    entries = merged_catalog.entries
    together = _trace_lines("phase_zero", ns, catalog=entries)
    alone = [trace_phase_zero_line(n, catalog=entries) for n in ns]
    # lines traced together size their series for the whole batch, so they
    # differ from single traces in the last bits; with the analytic slope
    # that moves no t by 1e-13 (3.6e-15 seen at step 0.02, 2.1e-14 at 0.5)
    for a, b in zip(together, alone):
        assert a.anchor_index == b.anchor_index
        assert len(a.points) == len(b.points)
        assert [p[0] for p in a.points] == [p[0] for p in b.points]
        assert max(abs(p[1] - q[1]) for p, q in zip(a.points, b.points)) <= 1e-13
        assert a.terminus_point == b.terminus_point
    if step == 0.5:  # line 5 follows the plain schedule and line 12 halves its step
        plain = len(contours._sigma_schedule()) + 1
        assert len(together[0].points) == plain < len(together[1].points)


def test_own_window_terminus_matches_shared_catalog():
    # a single trace scans its own window around its terminus; anchored on
    # whole units, the window's scan grid does not move with the terminus,
    # so it matches the same ordinate as one shared catalog
    shared = _trace_lines("phase_zero", range(1, 22), catalog=singular_points_delta5(0.0, 100.0))
    for path in shared:
        window = contours._window_catalog(path.terminus_t, path.terminus_t)
        own = contours._matched_point(path.terminus_t, window)
        assert abs(own.t - path.terminus_point.t) <= 1e-12  # 3.6e-15 seen, 20 of 21 identical


def _counted_kernel(monkeypatch):
    calls = []
    kernel = contours._log_derivatives

    def counting(q, s):
        calls.append(np.size(s))
        return kernel(q, s)

    monkeypatch.setattr(contours, "_log_derivatives", counting)
    return calls


def test_corrector_takes_one_kernel_call_per_point(monkeypatch, merged_catalog):
    # a Newton step whose predicted residual is within the tolerance is
    # accepted without a confirming evaluation
    calls = _counted_kernel(monkeypatch)
    path = trace_phase_zero_line(5, catalog=merged_catalog.entries)
    assert len(calls) <= 1.2 * len(path.points)  # 661 calls for 577 points seen one target at a time


def test_block_march_takes_a_kernel_call_per_eight_points(monkeypatch, merged_catalog):
    # a line puts its next _BLOCK targets in one call per Newton pass; a
    # one-target march makes 661 calls for these 577 points
    calls = _counted_kernel(monkeypatch)
    path = trace_phase_zero_line(5, catalog=merged_catalog.entries)
    assert len(calls) <= len(path.points) / 8  # 58 calls seen
    assert max(calls) == contours._BLOCK


PHASE_LINES, AMPLITUDE_LINES = (11, 23, 24, 30, 35, 42, 45), (5, 53, 54)


@pytest.mark.parametrize("trace, n", [(trace_phase_zero_line, n) for n in PHASE_LINES]
                         + [(trace_amplitude_one_line, n) for n in AMPLITUDE_LINES],
                         ids=[f"phase-{n}" for n in PHASE_LINES] + [f"amplitude-{n}" for n in AMPLITUDE_LINES])
def test_block_march_keeps_the_one_target_march(trace, n, monkeypatch):
    # a speculative point is kept only within half its Newton basin of the
    # tangent from the point before it; bounding that distance by
    # _MAX_NEWTON_STEP instead moves lines among these to other branches
    # (phase 11, 42, 45 and amplitude 5, 53 by 0.04 to 2.4)
    marched, ends = [], []
    march = contours._march

    def recording(kind, ns):
        marched.append(march(kind, ns)[0])
        return marched[-1:]

    monkeypatch.setattr(contours, "_march", recording)
    for block in (contours._BLOCK, 1):
        monkeypatch.setattr(contours, "_BLOCK", block)
        try:
            ends.append(trace(n).terminus_point)
        except (NoCatalogMatch, TerminusNotBetweenSingularities) as exc:  # termini past t = 100
            ends.append(type(exc))
    assert ends[0] == ends[1]
    a, b = marched
    assert [p[0] for p in a] == [p[0] for p in b]
    assert max(abs(p[1] - q[1]) for p, q in zip(a, b)) <= 1e-9  # 6.8e-10 seen over lines 1..54 of both kinds


@pytest.mark.parametrize("trace", [trace_phase_zero_line, trace_amplitude_one_line], ids=["phase", "amplitude"])
def test_poisoned_speculation_is_the_one_target_march(trace, merged_catalog, monkeypatch):
    # a single line's block enters the kernel first target first; with every
    # speculative point poisoned, each block ends at its first target, and
    # the first target, evaluated alone, takes today's path bit for bit
    kernel = contours._log_derivatives
    entries = merged_catalog.entries
    monkeypatch.setattr(contours, "_BLOCK", 1)
    single = trace(5, catalog=entries)

    def poisoned(q, s):
        out = [np.full(s.shape, complex(math.nan, math.nan)) for _ in range(3)]
        for full, first in zip(out, kernel(q, s[:1])):
            full[:1] = first
        return tuple(out)

    monkeypatch.undo()
    monkeypatch.setattr(contours, "_log_derivatives", poisoned)
    assert trace(5, catalog=entries) == single


@pytest.mark.parametrize("n", [1, 2, 3])
def test_box_polygon_on_shared_traces_matches_box(n, phase_traces):
    shared = winding_count(_box_polygon(phase_traces[n], phase_traces[n + 1]))
    box = argument_principle_box(n, n + 1)
    assert shared.zeros_minus_poles == box.zeros_minus_poles == 0
    assert abs(shared.total_arg_change - box.total_arg_change) <= 1e-9


@pytest.mark.parametrize("kind", ["phase", "amplitude"])
def test_every_exported_row_lies_on_its_level_line(kind, request):
    # phase lines: folded phase 0, i.e. phase 0 or pi; amplitude lines:
    # modulus 1 (2.5e-11 at worst over lines 1..21 of both kinds)
    for path in request.getfixturevalue(f"{kind}_traces").values():
        buf = io.StringIO()
        export_trace_csv(path, buf)
        rows = [[float(x) for x in line.split(",")] for line in buf.getvalue().splitlines()[1:]]
        np.testing.assert_allclose(np.array(rows)[:, :2], np.array(path.points), rtol=1e-11, atol=0.0)
        for _, _, phase, modulus in rows:
            if kind == "phase":
                assert min(abs(phase), math.pi - abs(phase)) <= 1e-9
            else:
                assert abs(math.log(modulus)) <= 1e-9


def test_phase_path_validation(phase_traces):
    good = phase_traces[1]
    with pytest.raises(DomainError):
        PhasePath(anchor_index=0, line_kind="phase_zero",
                  points=good.points, terminus_t=good.terminus_t)
    with pytest.raises(DomainError):
        PhasePath(anchor_index=1, line_kind="sideways",
                  points=good.points, terminus_t=good.terminus_t)
    with pytest.raises(DomainError):  # sigma must strictly decrease
        PhasePath(anchor_index=1, line_kind="phase_zero",
                  points=((1.0, 5.0), (1.0, 5.1), (0.5, 5.2)), terminus_t=5.2)
    with pytest.raises(DomainError, match="at least two points"):
        PhasePath(anchor_index=1, line_kind="phase_zero",
                  points=good.points[:1], terminus_t=good.terminus_t)
    with pytest.raises(DomainError, match="must reach sigma"):
        PhasePath(anchor_index=1, line_kind="phase_zero",
                  points=((1.0, 5.0), (0.6, 5.1)), terminus_t=5.2)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="terminus_t must be finite"):
            PhasePath(anchor_index=1, line_kind="phase_zero",
                      points=good.points, terminus_t=bad)


def test_winding_zero_box():
    square = [(0.6, -0.15), (0.9, -0.15), (0.9, 0.15), (0.6, 0.15), (0.6, -0.15)]
    report = winding_count(square)
    assert report.zeros_minus_poles == 1
    assert report.max_step_jump <= 0.5 * math.pi + 1e-12


def test_winding_pole_circle():
    theta = np.linspace(0.0, 2.0 * math.pi, 33)
    circle = [(1.0 + 0.1 * math.cos(a), 0.1 * math.sin(a)) for a in theta]
    circle[-1] = circle[0]
    assert winding_count(circle).zeros_minus_poles == -1


def test_winding_empty_box():
    box = [(2.0, -0.2), (2.4, -0.2), (2.4, 0.2), (2.0, 0.2), (2.0, -0.2)]
    assert winding_count(box).zeros_minus_poles == 0


def test_winding_error_channels(monkeypatch):
    square = [(0.6, -0.15), (0.9, -0.15), (0.9, 0.15), (0.6, 0.15), (0.6, -0.15)]
    with monkeypatch.context() as m:
        m.setattr(contours, "_REFINE_LIMIT", 1)
        with pytest.raises(RefinementExhausted, match=r"edge near sigma=0\.900000, t=-0\.150000 "
                                                      r"still jumps 1\.741 rad after 1 splits") as info:
            winding_count(square)
    # the edge's endpoints: half of the square's right side after the one split
    assert info.value.edge == (0.9 - 0.15j, 0.9 + 0.0j)
    assert abs(info.value.increment) == pytest.approx(1.741, abs=5e-4)
    with pytest.raises(DomainError):  # not closed
        winding_count([(0.6, -0.1), (0.75, 0.0), (0.9, 0.1)])
    with pytest.raises(DomainError, match="at least three vertices"):
        winding_count([(0.6, -0.1), (0.6, -0.1)])
    through = [(0.6, -0.25), (0.75, 0.0), (0.9, 0.25), (0.9, -0.35), (0.6, -0.25)]
    with pytest.raises(SingularOnContour):
        winding_count(through)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("vertex", [0, 3])
@pytest.mark.parametrize("axis", [0, 1])
def test_winding_rejects_non_finite_vertices(bad, vertex, axis):
    square = [[0.6, -0.15], [0.9, -0.15], [0.9, 0.15], [0.6, 0.15], [0.6, -0.15]]
    square[vertex][axis] = bad
    if vertex == 0:
        square[-1] = square[0]  # still closed, as far as a NaN compares
    with pytest.raises(DomainError, match="vertices must be finite"):
        winding_count(square)


def test_winding_refines_level_by_level(monkeypatch):
    # the square's edge (0.9, -0.15)-(0.9, 0.15) needs two levels of splits:
    # one midpoint, then both halves again, which take one call together
    sizes = []
    values = contours._delta_q_values

    def counting(q, s):
        sizes.append(np.size(s))
        return values(q, s)

    monkeypatch.setattr(contours, "_delta_q_values", counting)
    square = [(0.6, -0.15), (0.9, -0.15), (0.9, 0.15), (0.6, 0.15), (0.6, -0.15)]
    assert winding_count(square).zeros_minus_poles == 1
    assert sizes == [5, 1, 2]


def test_winding_report_validation():
    with pytest.raises(DomainError):
        WindingReport(total_arg_change=1.0, zeros_minus_poles=0, max_step_jump=0.1)
    with pytest.raises(DomainError):
        WindingReport(total_arg_change=0.0, zeros_minus_poles=0, max_step_jump=2.0)


@pytest.mark.parametrize("total, jump", [(math.nan, 0.1), (2.0 * math.pi, math.nan)])
def test_winding_report_refuses_nan(total, jump):
    with pytest.raises(DomainError):
        WindingReport(total_arg_change=total, zeros_minus_poles=1, max_step_jump=jump)


def test_argument_principle_box_balance():
    report = argument_principle_box(1, 2)
    assert report.zeros_minus_poles == 0
    with pytest.raises(DomainError):
        argument_principle_box(2, 2)


def test_amplitude_circle_geometry():
    c = amplitude_circle(0.9)
    assert c.center_sigma == pytest.approx(0.3289473684210527)
    assert c.radius == pytest.approx(0.29605263157894746)
    for A in (0.8, 0.9, 0.95, 1.05, 1.25):
        moduli = sample_circle_moduli(amplitude_circle(A), 32)
        assert float(np.max(np.abs(moduli - A))) < 1e-12


@pytest.mark.parametrize("count", [0, -3, 2.5, True, "3"], ids=["0", "-3", "2.5", "True", "str"])
def test_sample_circle_moduli_refuses_a_non_positive_integer_count(count):
    # 0 and -3 used to return no points, 2.5 three and True one
    with pytest.raises(DomainError, match="count must be a positive integer"):
        sample_circle_moduli(amplitude_circle(0.9), count)
    assert sample_circle_moduli(amplitude_circle(0.9), np.int64(3)).shape == (3,)


def test_amplitude_circle_validation():
    with pytest.raises(DegenerateCircle):
        amplitude_circle(1.0)
    with pytest.raises(DegenerateCircle):
        AmplitudeCircle(A=1.0, center_sigma=0.0, radius=0.0)
    with pytest.raises(DomainError):
        amplitude_circle(-0.5)
    with pytest.raises(DomainError):
        amplitude_circle(math.inf)
    with pytest.raises(DomainError):
        AmplitudeCircle(A=math.inf, center_sigma=0.0, radius=0.0)
    with pytest.raises(DomainError):
        AmplitudeCircle(A=0.9, center_sigma=0.33, radius=-0.1)
    with pytest.raises(DomainError):
        AmplitudeCircle(A=2.0, center_sigma=math.nan, radius=math.nan)


@pytest.mark.parametrize("A, error, message", [
    (1.0, DegenerateCircle, "A = 1 gives a vertical line, not a circle"),
    (1.0 + 5e-13, DegenerateCircle, "A = 1 gives a vertical line, not a circle"),
    (1.0 - 5e-13, DegenerateCircle, "A = 1 gives a vertical line, not a circle"),
    (0.0, DomainError, "A must be positive and finite"),
    (-1.0, DomainError, "A must be positive and finite"),
    (math.nan, DomainError, "A must be positive and finite"),
    (math.inf, DomainError, "A must be positive and finite"),
], ids=["1", "1+5e-13", "1-5e-13", "0", "-1", "nan", "inf"])
def test_amplitude_circle_refuses_through_the_dataclass(A, error, message):
    # the exact A = 1 and A = -1 make 1 - A^2 zero before AmplitudeCircle sees them
    with pytest.raises(error) as info:
        amplitude_circle(A)
    assert type(info.value) is error and str(info.value) == message


def test_export_trace_csv(phase_traces, tmp_path):
    path = phase_traces[1]
    out = tmp_path / "trace.csv"
    export_trace_csv(path, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "sigma,t,phase,modulus"
    assert len(lines) == len(path.points) + 1
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(path.points[0][0])
    assert abs(float(first[2])) < 1e-8  # phase-zero line

    buf = io.StringIO()
    export_trace_csv(path, buf)
    assert buf.getvalue() == out.read_text()
    assert buf.getvalue().splitlines()[0] == "sigma,t,phase,modulus"

    with pytest.raises(IoFailure):
        export_trace_csv(path, tmp_path / "missing" / "trace.csv")
