"""Region plots: exact CSV tables and SVG 1.1 pictures of an overlap region.

The CSV side stays exact (rationals as p/q, flags as 0/1).  The SVG side
necessarily converts to pixel floats; those are display approximations and
the file says so in its <desc>.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, _quoted
from .histories import is_choice_point
from .minkowski import Point, _Value, format_rational
from .model import BranchingModel, ScenarioId
from .oracle import GridSpec

CSV_HEADER = "t,x,in_region,choice_point"


class PlotCell(_Value):
    __slots__ = _fields = ("t", "x", "location", "in_region", "choice_point")

    def __init__(self, t: Fraction, x: Fraction, location: Point, in_region: bool,
                 choice_point: bool):
        self._store(t=t, x=x, location=location, in_region=in_region,
                    choice_point=choice_point)


def _embed(t: Fraction, x: Fraction, dimension: int, axis: int,
           fixed: dict[int, Fraction]) -> Point:
    coords = [None] * dimension
    coords[0] = t
    coords[axis] = x
    for i, value in fixed.items():
        coords[i] = value
    if any(c is None for c in coords):
        missing = [i for i, c in enumerate(coords) if c is None]
        raise DimensionMismatch(
            f"2-D slice underdetermined: fix spatial coordinate(s) {missing} or pick another axis")
    return Point(tuple(coords))


def region_cells(model: BranchingModel, a: ScenarioId, b: ScenarioId, grid: GridSpec,
                 axis: int = 1, fixed: dict[int, Fraction] | None = None) -> list[PlotCell]:
    """Evaluate overlap and choice-point status on a 2-D slice lattice.

    `grid` must be two-dimensional (time, chosen spatial axis); for models
    of higher dimension every other spatial coordinate needs a value in
    `fixed`.
    """
    if grid.dimension != 2:
        raise DimensionMismatch("plots take a 2-D grid (time and one spatial axis)")
    if not 1 <= axis < model.dimension:
        raise DimensionMismatch(f"axis {_quoted(axis)} is not a spatial axis of the model")
    fixed = dict(fixed or {})
    for i in fixed:
        if not 1 <= i < model.dimension:
            raise DimensionMismatch(f"fixed axis {_quoted(i)} is not a spatial axis of the model")
    if axis in fixed:
        raise DimensionMismatch("fixed coordinates cannot include the plotted axes")

    cells = []
    for t in grid.axis_values(0):
        for x in grid.axis_values(1):
            location = _embed(t, x, model.dimension, axis, fixed)
            region = model.in_overlap(a, b, location)
            choice = is_choice_point(model, a, b, location)
            cells.append(PlotCell(t, x, location, region, choice))
    return cells


def render_csv(cells: list[PlotCell]) -> str:
    lines = [CSV_HEADER]
    for cell in cells:
        lines.append(",".join((
            format_rational(cell.t),
            format_rational(cell.x),
            "1" if cell.in_region else "0",
            "1" if cell.choice_point else "0",
        )))
    return "\n".join(lines) + "\n"


def render_svg(model: BranchingModel, a: ScenarioId, b: ScenarioId, grid: GridSpec,
               cells: list[PlotCell], axis: int = 1,
               fixed: dict[int, Fraction] | None = None) -> str:
    # Pixel geometry: time increases upward, cell size fixed.
    cell_px = 24.0
    margin = 40.0
    ts = grid.axis_values(0)
    xs = grid.axis_values(1)
    width = margin * 2 + cell_px * len(xs)
    height = margin * 2 + cell_px * len(ts)

    left, top, step = float(xs[0]), float(ts[-1]), float(grid.step)

    # px and py also take a member's coordinate n / D as a float: an integer
    # true division is correctly rounded, so it equals float(Fraction(n, D))
    def px(x: Fraction | float) -> float:
        return margin + (float(x) - left) / step * cell_px

    def py(t: Fraction | float) -> float:
        return margin + (top - float(t)) / step * cell_px

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">')
    out.append(f"  <title>overlap region {a} | {b}</title>")
    out.append("  <desc>pixel coordinates are approximations of the exact rationals "
               "in the companion CSV</desc>")
    out.append(f'  <rect width="{width:.0f}" height="{height:.0f}" fill="white"/>')

    half = cell_px / 2
    for cell in cells:
        if not cell.in_region:
            continue
        out.append(
            f'  <rect x="{px(cell.x) - half:.2f}" y="{py(cell.t) - half:.2f}" '
            f'width="{cell_px:.2f}" height="{cell_px:.2f}" fill="#cfe3f7"/>')

    family = model.family(a, b)
    # A member's form (D, nums) is compared with the box and the fixed values
    # in integers: n / D against p / q as n * q against p * D.
    (t0, q0), (t1, q1), (x0, r0), (x1, r1) = (
        (v.numerator, v.denominator) for v in (ts[0], ts[-1], xs[0], xs[-1]))
    pinned = [(i, v.numerator, v.denominator) for i, v in (fixed or {}).items()]
    # Members that round to one pixel position share one marker line.
    markers = set()
    for m in family.members(limit=grid.truncate):
        d, nums = m.form
        t, x = nums[0], nums[axis]
        if not (t0 * d <= t * q0 and t * q1 <= t1 * d and x0 * d <= x * r0 and x * r1 <= x1 * d):
            continue
        if any(nums[i] * q != p * d for i, p, q in pinned):
            continue
        marker = f'  <circle cx="{px(x / d):.2f}" cy="{py(t / d):.2f}" r="3.00" fill="#1f4e79"/>'
        if marker not in markers:
            markers.add(marker)
            out.append(marker)

    for cell in cells:
        if not cell.choice_point:
            continue
        generated = family.contains(cell.location)
        color = "#1f4e79" if generated else "#c0392b"
        out.append(
            f'  <circle cx="{px(cell.x):.2f}" cy="{py(cell.t):.2f}" r="6.00" '
            f'fill="none" stroke="{color}" stroke-width="1.60"/>')

    axis_y = py(ts[0]) + half
    axis_x = px(xs[0]) - half
    out.append(
        f'  <line x1="{axis_x:.2f}" y1="{axis_y:.2f}" x2="{px(xs[-1]) + half:.2f}" '
        f'y2="{axis_y:.2f}" stroke="#444444" stroke-width="1.00"/>')
    out.append(
        f'  <line x1="{axis_x:.2f}" y1="{axis_y:.2f}" x2="{axis_x:.2f}" '
        f'y2="{py(ts[-1]) - half:.2f}" stroke="#444444" stroke-width="1.00"/>')
    out.append(
        f'  <text x="{margin:.0f}" y="{height - 12:.0f}" font-size="12" '
        f'fill="#444444">space axis {axis}; time upward; shaded = still glued; '
        f'ring = choice point (red = emergent)</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
