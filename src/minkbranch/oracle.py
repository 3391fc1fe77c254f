"""Brute-force grid oracle.

Everything here is enumeration: member lists are truncated and scanned,
overlap membership is decided by checking every member against every grid
point, and choice-point candidates are grid points with no grid point
above them still in the overlap.  No closed-form family query is consulted,
which is the point: the oracle is the independent side of the agreement
obligation on the analytic decision procedures.

The enumeration runs on integer forms of the points
(`minkowski.integer_form`), each built once per scan, and compares them
with `minkowski.integer_lt`, the exact integer statement of `lt`.  Only
the arithmetic is cheaper: the same members are tested against the same
points, each test answers as `lt` would, and the forms are taken from the
enumerated points, never from a family's closed form.

Two honesty devices keep the enumeration meaningful:

* truncation adequacy: per family kind, `members_needed` bounds the member
  index past which no member can lie strictly below a given point; a scan
  whose cap covers that bound at every grid point is exact, and one that
  does not carries a warning;
* escape witnesses: a grid point with no scanned grid point above it may
  still have overlap points above it, in a wedge thinner than the step.
  Each such candidate x is tested at y = x + (eps, 0), with eps an exact
  rational below x's gap to every enumerated member; y is a witness, and x
  no choice point, when the cap also covers `members_needed` at y.  A true
  choice point has no such y, so the test only removes false candidates.

Grid points within one light-cone step of the box top or of a spatial face
are flagged: their maximality cannot be decided inside the box, and they
are excluded from agreement obligations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import isqrt

from . import events, minkowski
from .errors import DimensionMismatch, GridBudgetExceeded
from .events import LabeledPoint
from .families import HarmonicPair, IntegerRow, SplittingFamily
from .histories import is_choice_point
from .minkowski import IntegerForm, Point, integer_form, integer_lt, rational
from .model import BranchingModel, ScenarioId
from .reporting import Report

#: Hard cap on enumerated grid points.
GRID_BUDGET = 10_000_000


@dataclass(frozen=True)
class GridSpec:
    """A rational box lattice: per-axis (lo, hi) bounds, a step, a member cap."""

    box: tuple[tuple[Fraction, Fraction], ...]
    step: Fraction
    truncate: int = 1000

    def __post_init__(self):
        box = tuple((rational(lo), rational(hi)) for lo, hi in self.box)
        step = rational(self.step)
        if len(box) < 2:
            raise ValueError("grid needs a time axis and at least one spatial axis")
        if step <= 0:
            raise ValueError("grid step must be positive")
        for lo, hi in box:
            if lo > hi:
                raise ValueError("grid bounds out of order")
        if self.truncate < 1:
            raise ValueError("truncation must be at least 1")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "step", step)
        total = 1
        for lo, hi in box:
            total *= int((hi - lo) / step) + 1
            if total > GRID_BUDGET:
                raise GridBudgetExceeded(
                    f"grid would exceed {GRID_BUDGET} points; shrink the box or coarsen the step")

    @property
    def dimension(self) -> int:
        return len(self.box)

    def axis_values(self, axis: int) -> list[Fraction]:
        lo, hi = self.box[axis]
        count = int((hi - lo) / self.step) + 1
        return [lo + self.step * k for k in range(count)]

    def points(self) -> list[Point]:
        axes = [self.axis_values(i) for i in range(self.dimension)]
        return [Point(coords) for coords in product(*axes)]


def member_list(family: SplittingFamily, truncate: int) -> list[Point]:
    """All members of a finite family; those up to index `truncate` of an infinite one."""
    return list(family.members(limit=truncate))


def _member_forms(family: SplittingFamily, grid: GridSpec) -> tuple[IntegerForm, ...]:
    """Integer forms of the truncated members, checked against the grid's dimension."""
    members = member_list(family, grid.truncate)
    for m in members:
        if m.dimension != grid.dimension:
            raise DimensionMismatch(
                f"points have dimensions {m.dimension} and {grid.dimension}")
    return tuple(integer_form(m) for m in members)


def _any_below(forms: tuple[IntegerForm, ...], x: IntegerForm) -> bool:
    """Some form in `forms` strictly precedes x."""
    for m in forms:
        if integer_lt(m, x):
            return True
    return False


def members_needed(family: SplittingFamily, x: IntegerForm) -> int:
    """A member index past which no member of the family lies strictly below x.

    Zero for the finite kinds, which are enumerated whole.  The bound reads
    only the kind's parameters (`t0`, `center`), never a closed-form query,
    and is exact integer arithmetic on x's integer form (D, nums).
    """
    d, (t, u, *_) = x
    if isinstance(family, IntegerRow):
        # (t0, n) < x needs dt > 0 and n <= x1 + dt.
        q, p = family.t0.denominator, family.t0.numerator
        dt = t * q - p * d                      # (x0 - t0) * D * q
        return max(0, (u * q + dt) // (d * q)) if dt > 0 else 0
    if isinstance(family, HarmonicPair):
        # center +- (0, 1/n) < x needs dt > 0 and 1/n <= dt +- u; the first
        # such n is the ceiling of 1/(dt +- u).
        c0, c1 = family.center.coords
        q = c0.denominator * c1.denominator
        dt = t * q - c0.numerator * c1.denominator * d      # (x0 - c0) * D * q
        if dt <= 0:
            return 0
        du = u * q - c1.numerator * c0.denominator * d
        return max((-(-d * q // v) for v in (dt + du, dt - du) if v > 0), default=0)
    return 0


@dataclass(frozen=True)
class OverlapScan:
    points: frozenset[Point]
    adequate: bool
    note: str
    #: Integer forms of the truncated members the scan tested.
    member_forms: tuple[IntegerForm, ...] = field(compare=False, repr=False)


def oracle_overlap(model: BranchingModel, a: ScenarioId, b: ScenarioId,
                   grid: GridSpec) -> OverlapScan:
    """Grid points with no truncated member strictly below them."""
    model.require_scenario(a)
    model.require_scenario(b)
    family = model.family(a, b)
    members = _member_forms(family, grid)
    forms = [(x, integer_form(x)) for x in grid.points()]
    kept = frozenset(x for x, form in forms if not _any_below(members, form))
    needed = max(members_needed(family, form) for _, form in forms)
    note = f"member indices up to {needed} reachable, cap {grid.truncate}"
    return OverlapScan(kept, grid.truncate >= needed, note, members)


def boundary_flagged(grid: GridSpec, x: Point) -> bool:
    """Within one light-cone step of the box top or a spatial face."""
    step = grid.step
    if x.coords[0] + step > grid.box[0][1]:
        return True
    for c, (lo, hi) in zip(x.coords[1:], grid.box[1:]):
        if c - step < lo or c + step > hi:
            return True
    return False


@dataclass(frozen=True)
class ChoiceScan:
    candidates: tuple[Point, ...]
    flagged: frozenset[Point]
    overlap: OverlapScan


def _has_escape_witness(x: IntegerForm, members: tuple[IntegerForm, ...],
                        family: SplittingFamily, grid: GridSpec) -> bool:
    """Is y = x + (eps, 0), inside the box, provably in the overlap?

    eps starts at the room left below the box top.  For each enumerated
    member m, with dt = x0 - m0 and S the squared spatial distance, scaled
    as in `integer_lt` (dt by Dm*Dx, S by its square), eps is cut below
    m's gap sqrt(S) - dt: to (S - dt**2) / ((isqrt(S) + 1 + dt) * Dm * Dx)
    when dt >= 0, strictly below the gap, and to -dt / (Dm * Dx) when
    dt < 0, which keeps y no later than m.  No enumerated member then lies
    below y, and y is a witness when no member past the cap can either.  A
    member, or a point on the box top, leaves no room and no witness.
    """
    dx, xn = x
    top = grid.box[0][1]
    # eps = num / (den * Dx) throughout.
    num, den = top.numerator * dx - xn[0] * top.denominator, top.denominator
    if num <= 0:
        return False
    x0, spatial = xn[0], range(1, len(xn))
    for dm, mn in members:
        dt = x0 * dm - mn[0] * dx
        if dt < 0:
            cut, cut_den = -dt, dm
        else:
            s = 0
            for i in spatial:
                d = xn[i] * dm - mn[i] * dx
                s += d * d
            cut, cut_den = s - dt * dt, (isqrt(s) + 1 + dt) * dm
        if cut * den < num * cut_den:
            if cut <= 0:
                return False            # x is a member
            num, den = cut, cut_den
    y = (dx * den, (xn[0] * den + num,) + tuple(c * den for c in xn[1:]))
    return members_needed(family, y) <= grid.truncate


def oracle_choice_points(model: BranchingModel, a: ScenarioId, b: ScenarioId,
                         grid: GridSpec) -> ChoiceScan:
    """Grid points maximal in the scanned overlap with no escape witness."""
    scan = oracle_overlap(model, a, b, grid)
    family = model.family(a, b)
    by_time = sorted(scan.points, key=lambda p: p.coords)
    forms = [integer_form(x) for x in by_time]
    candidates = []
    for i, x in enumerate(by_time):
        if any(integer_lt(forms[i], z) for z in forms[i + 1:]):
            continue
        if _has_escape_witness(forms[i], scan.member_forms, family, grid):
            continue
        candidates.append(x)

    flagged = frozenset(x for x in grid.points() if boundary_flagged(grid, x))
    return ChoiceScan(tuple(candidates), flagged, scan)


def oracle_cross_check(model: BranchingModel, grid: GridSpec,
                       pairs=None, order_samples: int = 200) -> Report:
    """Agreement report: analytic queries versus pure enumeration.

    Checks, per scenario pair: overlap membership at every grid point,
    choice-point status at every unflagged grid point, and induced-order
    spot checks re-evaluated from the definition (Minkowski order plus
    scanned overlap membership).
    """
    report = Report("oracle-cross-check")
    if pairs is None:
        labels = model.scenario_list()
        if labels is None:
            raise ValueError("generator-mode models need explicit scenario pairs")
        pairs = list(combinations(labels, 2))

    grid_pts = grid.points()
    for a, b in pairs:
        tag = f"{a}|{b}"
        choice = oracle_choice_points(model, a, b, grid)
        scan = choice.overlap
        if not scan.adequate:
            report.note(f"{tag}: truncation not provably adequate: {scan.note}")
        overlap_bad = [
            x for x in grid_pts
            if model.in_overlap(a, b, x) != (x in scan.points)
        ]
        report.add(f"overlap {tag}", not overlap_bad,
                   f"{len(grid_pts)} grid points" if not overlap_bad
                   else f"{len(overlap_bad)} disagreements; first {overlap_bad[0]!r}")

        cand = set(choice.candidates)
        choice_bad = [
            x for x in grid_pts
            if x not in choice.flagged
            and is_choice_point(model, a, b, x) != (x in cand)
        ]
        unflagged = len(grid_pts) - len(choice.flagged)
        report.add(f"choice-points {tag}", not choice_bad,
                   f"{unflagged} unflagged grid points" if not choice_bad
                   else f"{len(choice_bad)} disagreements; first {choice_bad[0]!r}")

        n = len(grid_pts)
        order_bad = []
        for i in range(order_samples):
            x = grid_pts[(i * 7919) % n]
            y = grid_pts[(i * 104729 + 13) % n]
            expected = minkowski.leq(x, y) and x in scan.points
            actual = events.leq(model, LabeledPoint(x, a), LabeledPoint(y, b))
            if actual != expected:
                order_bad.append((x, y))
        report.add(f"order {tag}", not order_bad,
                   f"{order_samples} sampled pairs" if not order_bad
                   else f"{len(order_bad)} disagreements; first {order_bad[0]!r}")
    return report
