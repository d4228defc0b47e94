"""Quadrant phase portraits, amplitude portraits, meeting-point detection
and the binary pixmap writer."""

import math

import numpy as np
import pytest

from delta_lens.errors import IoFailure, SpecInvalid
from delta_lens.quotient import QuotientKind, delta5
from delta_lens.render import (PixelGrid, PortraitSpec, Q1_RGB, Q2_RGB, Q3_RGB,
                               Q4_RGB, _render_rows, _window_shape,
                               locate_quadrant_meeting_points,
                               render_amplitude, render_phase_quadrants,
                               write_ppm)


def _pixel(grid, i, j):
    k = 3 * (j * grid.width + i)
    return tuple(grid.pixels[k:k + 3])


def _one_pixel_spec(sigma, t, mode="phase_quadrant"):
    return PortraitSpec(sigma_min=sigma - 0.005, sigma_max=sigma + 0.005,
                        t_min=t - 0.005, t_max=t + 0.005,
                        width=1, height=1, mode=mode)


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        _one_pixel_spec(2.0, 0.0, mode="sepia")
    with pytest.raises(SpecInvalid):
        PortraitSpec(sigma_min=1.0, sigma_max=0.0, t_min=0.0, t_max=1.0,
                     width=4, height=4, mode="phase_quadrant")
    for width, height in ((0, 4), (2.5, 4), (2.0, 4), (4, 3.0), (True, 4), ("4", 4)):
        with pytest.raises(SpecInvalid):
            PortraitSpec(sigma_min=0.0, sigma_max=1.0, t_min=0.0, t_max=1.0,
                         width=width, height=height, mode="phase_quadrant")
    PortraitSpec(sigma_min=0.0, sigma_max=1.0, t_min=0.0, t_max=1.0,
                 width=np.int64(4), height=4, mode="phase_quadrant")
    with pytest.raises(SpecInvalid):
        PortraitSpec(sigma_min=0.0, sigma_max=1.0, t_min=0.0, t_max=1.0,
                     width=100000, height=100000, mode="phase_quadrant")
    with pytest.raises(SpecInvalid):
        PortraitSpec(sigma_min=0.0, sigma_max=1.0, t_min=0.0, t_max=1.0,
                     width=4, height=4, mode="phase_quadrant", function=4)


def test_mode_function_mismatch():
    spec = _one_pixel_spec(2.0, 0.0, mode="amplitude")
    with pytest.raises(SpecInvalid):
        render_phase_quadrants(spec)
    with pytest.raises(SpecInvalid):
        render_amplitude(_one_pixel_spec(2.0, 0.0))


def test_quadrant_palette_matches_values():
    # one-pixel portraits centered at points of known phase quadrant
    probes = ((0.75, 6.05), (0.45, 6.5), (0.3, 6.1), (2.0, 0.3))
    palette = {1: Q1_RGB, 2: Q2_RGB, 3: Q3_RGB, 4: Q4_RGB}
    seen = set()
    for sigma, t in probes:
        v = delta5(complex(sigma, t))
        if v.real > 0 and v.imag >= 0:
            code = 1
        elif v.real <= 0 and v.imag > 0:
            code = 2
        elif v.real < 0 and v.imag <= 0:
            code = 3
        else:
            code = 4
        seen.add(code)
        grid = render_phase_quadrants(_one_pixel_spec(sigma, t))
        assert _pixel(grid, 0, 0) == palette[code]
    assert seen == {1, 2, 3, 4}  # probes cover all four quadrants


def test_exact_zero_and_pole_pixels_black():
    # power-of-two bounds so the single pixel center lands exactly on the
    # zero s = 3/4 (value exactly 0) and the pole s = 1 (value not finite)
    for center in (0.75, 1.0):
        spec = PortraitSpec(sigma_min=center - 0.125, sigma_max=center + 0.125,
                            t_min=-0.125, t_max=0.125,
                            width=1, height=1, mode="phase_quadrant")
        assert _pixel(render_phase_quadrants(spec), 0, 0) == (0, 0, 0)


def test_pixel_centers_and_orientation():
    # top row carries t_max; centers sit half a pixel inside the bounds.
    # Column 0 flips quadrant between its two rows, so a vertically
    # mirrored image would fail here.
    spec = PortraitSpec(sigma_min=0.0, sigma_max=1.0, t_min=5.9, t_max=6.1,
                        width=2, height=2, mode="phase_quadrant")
    grid = render_phase_quadrants(spec)
    assert _pixel(grid, 0, 0) == Q3_RGB   # (0.25, 6.05)
    assert _pixel(grid, 0, 1) == Q4_RGB   # (0.25, 5.95)
    assert _pixel(grid, 1, 0) == Q1_RGB   # (0.75, 6.05)
    assert _pixel(grid, 1, 1) == Q1_RGB   # (0.75, 5.95)


def test_amplitude_portrait_bands():
    # far right the quotient hugs modulus 1: white band
    grid = render_amplitude(_one_pixel_spec(14.0, 3.0, mode="amplitude"))
    assert _pixel(grid, 0, 0) == (255, 255, 255)
    # near the real pole the modulus blows up: saturated blue, black center
    spec = PortraitSpec(sigma_min=0.97, sigma_max=1.03, t_min=-0.03, t_max=0.03,
                        width=3, height=3, mode="amplitude")
    grid = render_amplitude(spec)
    assert _pixel(grid, 1, 1) == (0, 0, 0)
    for i, j in ((0, 0), (2, 2), (1, 0), (0, 1)):
        r, g, b = _pixel(grid, i, j)
        assert r == 0 and b > 128
        v = abs(delta5(complex(0.97 + (i + 0.5) * 0.02, 0.03 - (j + 0.5) * 0.02)))
        want_b = int(np.rint(128.0 + 127.0 * min(1.0, math.log10(v))))
        assert b == want_b
    # below modulus one the green channel mirrors the blue rule
    spec = _one_pixel_spec(0.5, 6.0209489, mode="amplitude")
    r, g, b = _pixel(render_amplitude(spec), 0, 0)
    assert b == 0 and g > 128


def test_meeting_point_at_real_zero():
    spec = PortraitSpec(sigma_min=0.5, sigma_max=1.0, t_min=-0.25, t_max=0.25,
                        width=64, height=64, mode="phase_quadrant")
    grid = render_phase_quadrants(spec)
    points = locate_quadrant_meeting_points(grid, spec)
    assert len(points) == 1
    assert abs(points[0][0] - 0.75) < 0.01
    assert abs(points[0][1] - 0.0) < 0.01
    with pytest.raises(SpecInvalid):
        locate_quadrant_meeting_points(grid, _one_pixel_spec(2.0, 0.0))


def test_meeting_points_on_critical_strip(merged_catalog):
    # pixel aspect 8.3:1; every singular point in view must be found
    spec = PortraitSpec(sigma_min=0.0, sigma_max=1.0, t_min=5.0, t_max=16.0,
                        width=800, height=800, mode="phase_quadrant")
    grid = render_phase_quadrants(spec)
    points = locate_quadrant_meeting_points(grid, spec)
    dsig, dt = spec.pixel_size()
    targets = [e.t for e in merged_catalog.entries if 5.2 < e.t < 15.8]
    assert len(targets) == 8
    for t in targets:
        assert any(abs(p[1] - t) <= 2.0 * dt and abs(p[0] - 0.5) <= 2.0 * dsig
                   for p in points)
    for sigma, t in points:
        assert min(abs(t - u) for u in targets) <= 2.0 * dt


def test_meeting_points_invariant_with_subpixel_exemption(merged_catalog):
    # 800x800 over sigma [-1,2], t [0,60]: pixel height dt = 0.075.  A
    # zero and a pole closer together than one pixel form a dipole whose
    # four-color signature can cancel between sample points, so whether the
    # detector sees such a pair depends on sub-pixel alignment.  Those
    # entries (8 pairs in this catalog) are exempt from the must-detect
    # clause; every other catalogued point must be found.  Tolerance is two
    # coarse pitches per axis, the footprint of the detection window.
    spec = PortraitSpec(sigma_min=-1.0, sigma_max=2.0, t_min=0.0, t_max=60.0,
                        width=800, height=800, mode="phase_quadrant")
    grid = render_phase_quadrants(spec)
    points = locate_quadrant_meeting_points(grid, spec)
    dsig, dt = spec.pixel_size()
    pitch = max(dsig, dt)
    entries = merged_catalog.entries
    exempt = {e.t for k, e in enumerate(entries)
              if any(j != k and f.kind != e.kind and abs(f.t - e.t) < dt
                     for j, f in enumerate(entries))}
    assert len(exempt) == 16
    for e in entries:
        if e.t in exempt:
            continue
        assert any(abs(p[1] - e.t) <= 2.0 * pitch
                   and abs(p[0] - 0.5) <= 2.0 * pitch
                   for p in points), f"catalogued point t={e.t} not detected"
    anchors = [e.t for e in entries] + [0.0]  # t = 0: real-axis features
    for sigma, t in points:
        assert min(abs(t - u) for u in anchors) <= 2.0 * pitch


def test_row_partition_does_not_change_pixels():
    spec = PortraitSpec(sigma_min=0.0, sigma_max=1.0, t_min=5.0, t_max=8.0,
                        width=64, height=100, mode="phase_quadrant")
    whole = render_phase_quadrants(spec).pixels
    for rows in (1, 37, 100):
        parts = b"".join(_render_rows(spec, j0, min(j0 + rows, 100))
                         for j0 in range(0, 100, rows))
        assert parts == whole


def test_other_discriminant_renders():
    spec = PortraitSpec(sigma_min=0.0, sigma_max=1.0, t_min=5.0, t_max=8.0,
                        width=16, height=16, mode="phase_quadrant",
                        function=QuotientKind(3))
    grid = render_phase_quadrants(spec)
    assert len(grid.pixels) == 16 * 16 * 3


def test_write_ppm(tmp_path):
    grid = render_phase_quadrants(_one_pixel_spec(2.0, 0.0))
    out = tmp_path / "one.ppm"
    write_ppm(grid, out)
    data = out.read_bytes()
    assert data == b"P6\n1 1\n255\n" + bytes(Q1_RGB)
    assert len(data) == 14
    with pytest.raises(IoFailure):
        write_ppm(grid, tmp_path / "missing" / "one.ppm")


def test_pixel_grid_validation():
    with pytest.raises(SpecInvalid):
        PixelGrid(width=2, height=2, pixels=bytes(5))


def _reference_meeting_points(grid, spec):
    """Single linkage written out plainly: the windows that show all four
    quadrant colors, counted from summed-area tables; every pair of them
    with its distance in coarse pitches; components from the linked pairs,
    labelled by their first window and grown until no label changes."""
    rows, cols = _window_shape(spec)
    rgb = np.frombuffer(grid.pixels, dtype=np.uint8).reshape(grid.height, grid.width, 3)
    all4 = True
    for col in (Q1_RGB, Q2_RGB, Q3_RGB, Q4_RGB):
        c = np.pad(np.all(rgb == col, axis=2).cumsum(0).cumsum(1), ((1, 0), (1, 0)))
        all4 = all4 & (c[rows:, cols:] - c[:-rows, cols:] - c[rows:, :-cols] + c[:-rows, :-cols] > 0)
    jj, ii = np.nonzero(all4)
    dsig, dt = spec.pixel_size()
    pitch = max(dsig, dt)
    dist = np.hypot((ii[:, None] - ii[None, :]) * dsig, (jj[:, None] - jj[None, :]) * dt) / pitch
    linked = dist <= 1.9
    label = np.arange(ii.size)
    while True:
        grown = np.where(linked, label[None, :], ii.size).min(axis=1)
        if np.array_equal(grown, label):
            break
        label = grown
    points = [(spec.sigma_min + float(np.mean(ii[label == k] + 0.5 * cols)) * dsig,
               spec.t_max - float(np.mean(jj[label == k] + 0.5 * rows)) * dt)
              for k in np.unique(label)]
    return sorted(points, key=lambda p: p[1])


def test_meeting_points_match_plain_single_linkage():
    # benchmark-size portrait: 150x300 over sigma [-1, 2], t [35, 65], pixel aspect 5:1
    spec = PortraitSpec(sigma_min=-1.0, sigma_max=2.0, t_min=35.0, t_max=65.0,
                        width=150, height=300, mode="phase_quadrant")
    grid = render_phase_quadrants(spec)
    points = locate_quadrant_meeting_points(grid, spec)
    assert len(points) > 20
    assert points == _reference_meeting_points(grid, spec)


def test_meeting_points_link_just_under_the_linkage_radius():
    # pixels 1/64 by 5/64 (aspect 5:1): the window is 10 columns by 2 rows and
    # a column is 0.2 coarse pitches.  Each planted corner is a 2x2 block of
    # the four colors on black, seen by the 9 windows that hold it whole; the
    # closest windows of corners 17 columns apart are 9 columns, 1.8 pitches,
    # apart and link, those of corners 18 columns apart are 2.0 pitches
    # apart and do not.
    width, height = 80, 8
    spec = PortraitSpec(sigma_min=0.0, sigma_max=width / 64, t_min=0.0, t_max=height * 5 / 64,
                        width=width, height=height, mode="phase_quadrant")
    assert _window_shape(spec) == (2, 10)
    rgb = np.zeros((height, width, 3), dtype=np.uint8)
    for i in (20, 37, 55):
        rgb[3, i], rgb[3, i + 1], rgb[4, i], rgb[4, i + 1] = Q2_RGB, Q1_RGB, Q3_RGB, Q4_RGB
    grid = PixelGrid(width=width, height=height, pixels=rgb.tobytes())
    points = locate_quadrant_meeting_points(grid, spec)
    assert points == _reference_meeting_points(grid, spec)
    # a corner planted at column i meets at the pixel boundary x = i + 1, on
    # the row boundary y = 4; the linked pair averages its two corners
    t = spec.t_max - 4 * 5 / 64
    assert points == [((21 + 38) / 2 / 64, t), (56 / 64, t)]
