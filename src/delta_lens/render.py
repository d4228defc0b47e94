"""Quadrant phase portraits and amplitude portraits of the quotient family,
emitted as binary P6 pixmaps.

A phase portrait colors each pixel by the quadrant of the function value
(yellow, red, purple, light blue for quadrants 1-4); zeros and poles show up
as points where all four colors meet, which locate_quadrant_meeting_points
detects from the finished image.  An amplitude portrait ramps blue above
modulus 1 and green below, with a white band where the modulus is 1 to
within 1e-3.

Rendering is deterministic for a fixed spec: pixel centers map linearly into
the rectangle (top pixel row carries t_max), and rows are evaluated on one
thread in blocks of 64.  Each block is a sigma x t grid, so evalcore sums its
Dirichlet series as one matrix product per block.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import IoFailure, SpecInvalid
from .quotient import QuotientKind, _delta_q_values

_MODES = ("phase_quadrant", "amplitude")
_ROW_BLOCK = 64

# quadrant palette; boundary convention: Im = 0 joins Q1 (Re > 0) or Q3
# (Re < 0), the axes Re = 0 join Q2 (Im > 0) or Q4 (Im < 0), and an exact
# zero or failed evaluation is black
Q1_RGB = (255, 220, 0)
Q2_RGB = (220, 30, 30)
Q3_RGB = (130, 0, 160)
Q4_RGB = (120, 200, 255)
BLACK = (0, 0, 0)
WHITE = (255, 255, 255)


@dataclass(frozen=True)
class PortraitSpec:
    """Rectangle, resolution, mode and function choice for one portrait."""

    sigma_min: float
    sigma_max: float
    t_min: float
    t_max: float
    width: int
    height: int
    mode: str
    function: QuotientKind = QuotientKind(4)

    def __post_init__(self):
        if not (math.isfinite(self.sigma_min) and math.isfinite(self.sigma_max)
                and self.sigma_min < self.sigma_max):
            raise SpecInvalid("need sigma_min < sigma_max, both finite")
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max)
                and self.t_min < self.t_max):
            raise SpecInvalid("need t_min < t_max, both finite")
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1
                   for n in (self.width, self.height)):
            raise SpecInvalid("width and height must be positive integers")
        if self.width * self.height > 4e7:
            raise SpecInvalid("width * height must not exceed 4e7 pixels")
        if self.mode not in _MODES:
            raise SpecInvalid(f"mode must be one of {_MODES}")
        if not isinstance(self.function, QuotientKind):
            raise SpecInvalid("function must be a QuotientKind")

    def pixel_size(self) -> tuple[float, float]:
        return ((self.sigma_max - self.sigma_min) / self.width,
                (self.t_max - self.t_min) / self.height)


@dataclass(frozen=True)
class PixelGrid:
    width: int
    height: int
    pixels: bytes

    def __post_init__(self):
        if len(self.pixels) != 3 * self.width * self.height:
            raise SpecInvalid("pixel buffer length must be 3 * width * height")


def _phase_colors(vals: np.ndarray) -> np.ndarray:
    re, im = vals.real, vals.imag
    ok = np.isfinite(vals)
    out = np.zeros((vals.size, 3), dtype=np.uint8)
    out[ok & (re > 0) & (im >= 0)] = Q1_RGB
    out[ok & (re <= 0) & (im > 0)] = Q2_RGB
    out[ok & (re < 0) & (im <= 0)] = Q3_RGB
    out[ok & (re >= 0) & (im < 0)] = Q4_RGB
    # the exact zero (0, 0) satisfies no quadrant and stays black
    return out

def _amplitude_colors(vals: np.ndarray) -> np.ndarray:
    out = np.zeros((vals.size, 3), dtype=np.uint8)
    mod = np.abs(vals)
    ok = np.isfinite(mod)
    with np.errstate(divide="ignore", invalid="ignore"):
        dec = np.log10(np.where(ok & (mod > 0), mod, 1.0))
    white = ok & (np.abs(mod - 1.0) <= 1e-3)
    blue = ok & ~white & (mod > 1.0)
    green = ok & ~white & (mod < 1.0) & (mod > 0)
    dark_zero = ok & ~white & (mod == 0.0)   # exact zero: full green
    out[white] = WHITE
    out[blue, 2] = np.rint(128.0 + 127.0 * np.minimum(1.0, dec[blue])).astype(np.uint8)
    out[green, 1] = np.rint(128.0 + 127.0 * np.minimum(1.0, -dec[green])).astype(np.uint8)
    out[dark_zero, 1] = 255
    return out


def _render_rows(spec: PortraitSpec, j0: int, j1: int) -> bytes:
    """RGB bytes of the pixel rows j0 <= j < j1 (row 0 carries t_max)."""
    dsig, dt = spec.pixel_size()
    sig = spec.sigma_min + (np.arange(spec.width) + 0.5) * dsig
    ts = spec.t_max - (np.arange(j0, j1) + 0.5) * dt
    s = (sig[None, :] + 1j * ts[:, None]).ravel()
    color = _phase_colors if spec.mode == "phase_quadrant" else _amplitude_colors
    return color(_delta_q_values(spec.function.discriminant_label, s)).tobytes()


def _render(spec: PortraitSpec) -> PixelGrid:
    h = spec.height
    pixels = b"".join(_render_rows(spec, j0, min(j0 + _ROW_BLOCK, h))
                      for j0 in range(0, h, _ROW_BLOCK))
    return PixelGrid(width=spec.width, height=h, pixels=pixels)


def render_phase_quadrants(spec: PortraitSpec) -> PixelGrid:
    """Quadrant-colored phase portrait; spec.mode must be phase_quadrant."""
    if spec.mode != "phase_quadrant":
        raise SpecInvalid("render_phase_quadrants needs mode=phase_quadrant")
    return _render(spec)


def render_amplitude(spec: PortraitSpec) -> PixelGrid:
    """Blue-above-1 / green-below-1 amplitude portrait with a white band at
    modulus 1; spec.mode must be amplitude."""
    if spec.mode != "amplitude":
        raise SpecInvalid("render_amplitude needs mode=amplitude")
    return _render(spec)


def _quadrant_labels(grid: PixelGrid) -> np.ndarray:
    rgb = np.frombuffer(grid.pixels, dtype=np.uint8).reshape(grid.height, grid.width, 3)
    labels = np.zeros((grid.height, grid.width), dtype=np.uint8)
    for code, col in enumerate((Q1_RGB, Q2_RGB, Q3_RGB, Q4_RGB), start=1):
        labels[np.all(rgb == np.array(col, dtype=np.uint8), axis=2)] = code
    return labels


def _window_shape(spec: PortraitSpec) -> tuple[int, int]:
    # Detection window: 2 samples along each s-axis at the pitch of the
    # COARSER axis.  On square pixels this is the plain 2x2 block; on
    # anisotropic grids the window keeps a square footprint in s.  A literal
    # 2x2 cannot work there: the quadrant-boundary rays leave every
    # critical-line zero/pole about 22.5 degrees off vertical (the line's
    # phase is pinned near -pi/8 mod pi/2), while a 2x2 block at pixel
    # aspect ratio r only sees rays within atan(1/r) of vertical.
    dsig, dt = spec.pixel_size()
    pitch = max(dsig, dt)
    cols = max(2, int(math.ceil(2.0 * pitch / dsig)))
    rows = max(2, int(math.ceil(2.0 * pitch / dt)))
    return rows, cols


def locate_quadrant_meeting_points(grid: PixelGrid, spec: PortraitSpec
                                   ) -> list[tuple[float, float]]:
    """Points where all four quadrant colors meet, i.e. the zeros and poles
    visible in a phase portrait.

    A window two coarse-pixel-pitches square (exactly a 2x2 pixel block when
    pixels are square) slides over the image; windows showing all four
    colors become candidates, and contiguous candidate clouds (single-link
    radius 1.9 coarse pitches, just under the 2-pitch separation at which
    two distinct singular points stay distinguishable) merge into one
    averaged point.  Returns (sigma, t) pairs sorted by t; may be empty.
    """
    if grid.width != spec.width or grid.height != spec.height:
        raise SpecInvalid("grid dimensions do not match the spec")
    rows, cols = _window_shape(spec)
    if grid.height < rows or grid.width < cols:
        return []
    lab = _quadrant_labels(grid)
    all4 = True
    for code in (1, 2, 3, 4):
        present = np.lib.stride_tricks.sliding_window_view(lab == code, cols, axis=1).any(axis=2)
        all4 = all4 & np.lib.stride_tricks.sliding_window_view(present, rows, axis=0).any(axis=2)
    dsig, dt = spec.pixel_size()
    pitch = max(dsig, dt)
    # single linkage in s-space measured in coarse pitches, as the lattice
    # offsets (dj, di) between linked windows; the candidate map is padded
    # by the reach so that every offset of a candidate stays inside it
    rj, ri = int(1.9 * pitch / dt) + 1, int(1.9 * pitch / dsig) + 1
    dj, di = np.mgrid[-rj:rj + 1, -ri:ri + 1].reshape(2, -1)
    linked = (di * (dsig / pitch)) ** 2 + (dj * (dt / pitch)) ** 2 <= 1.9 * 1.9
    unseen = np.pad(all4, ((rj, rj), (ri, ri))).reshape(-1)
    width = all4.shape[1] + 2 * ri
    offsets = dj[linked] * width + di[linked]
    out = []
    # flood fill from each component's first window in row-major order
    for first in np.flatnonzero(unseen):
        if not unseen[first]:
            continue
        unseen[first] = False
        members = [first]
        for m in members:  # the loop also visits the members it appends
            near = m + offsets
            near = near[unseen[near]]
            unseen[near] = False
            members.extend(near)
        jj, ii = np.divmod(np.sort(members), width)
        # window center, in fractional pixel coordinates
        cx = float(np.mean(ii - ri + 0.5 * cols))
        cy = float(np.mean(jj - rj + 0.5 * rows))
        out.append((spec.sigma_min + cx * dsig, spec.t_max - cy * dt))
    out.sort(key=lambda p: p[1])
    return out


def write_ppm(grid: PixelGrid, path) -> None:
    """Binary P6 pixmap: ASCII header, then raw row-major RGB, top row
    first."""
    header = f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(grid.pixels)
    except OSError as exc:
        raise IoFailure(f"could not write pixmap: {exc}") from exc
