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

* truncation adequacy: per family kind, an exact bound on the member index
  beyond which members cannot affect any decision for points of the given
  lattice; scans below that bound are exact, scans above it carry a warning;
* candidate refinement: a maximality verdict from a step-sized grid can be
  blind to escape wedges thinner than the step, so each candidate is
  re-probed on a finer local lattice just above it (still pure member
  enumeration).  Refinement can only remove false candidates: a true
  choice point has no witness anywhere, so none on any refinement.

Grid points within one light-cone step of the box top or of a spatial face
are flagged: their maximality cannot be decided inside the box, and they
are excluded from agreement obligations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, lcm

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

    def contains(self, x: Point) -> bool:
        return all(lo <= c <= hi for c, (lo, hi) in zip(x.coords, self.box))


def member_list(family: SplittingFamily, truncate: int) -> list[Point]:
    if family.is_finite:
        return list(family.members())
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


def _min_positive_on_lattice(base: Fraction, step: Fraction, count: int) -> Fraction | None:
    """Smallest positive value of {base + k*step : 0 <= k < count}, if any."""
    if count <= 0:
        return None
    if base > 0:
        return base
    k = floor(-base / step) + 1
    if k >= count:
        return None
    return base + step * k


def truncation_adequacy(family: SplittingFamily, grid: GridSpec,
                        lattice_step: Fraction | None = None) -> tuple[bool, str]:
    """Is the member cap provably enough for every point of this lattice?

    `lattice_step` defaults to the grid step; refinement passes supply the
    finer step they probe on.
    """
    step = lattice_step if lattice_step is not None else grid.step
    if family.is_finite:
        return True, "finite family"

    if isinstance(family, IntegerRow):
        (t_lo, t_hi), (x_lo, x_hi) = grid.box[0], grid.box[1]
        if t_hi < family.t0:
            return True, "box lies below the row"
        needed = floor(x_hi + (t_hi - family.t0))
        if needed < 0:
            return True, "no member index reachable from the box"
        ok = grid.truncate >= needed
        return ok, f"indices up to {needed} reachable, cap {grid.truncate}"

    if isinstance(family, HarmonicPair):
        c0, c1 = family.center.coords
        counts = [int((hi - lo) / step) + 1 for lo, hi in grid.box[:2]]
        span = counts[0] + counts[1] - 1
        needed = 0
        for base in (
            grid.box[0][0] + grid.box[1][0] - c0 - c1,   # smallest x0 + x1 offset
            grid.box[0][0] - grid.box[1][1] - c0 + c1,   # smallest x0 - x1 offset
        ):
            m = _min_positive_on_lattice(base, step, span)
            if m is not None:
                needed = max(needed, ceil(1 / m))
        ok = grid.truncate >= needed
        return ok, f"tail irrelevant beyond index {needed}, cap {grid.truncate}"

    return True, "finite family"


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
    adequate, note = truncation_adequacy(family, grid)
    kept = frozenset(
        x for x in grid.points() if not _any_below(members, integer_form(x)))
    return OverlapScan(kept, adequate, note, members)


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
    notes: tuple[str, ...] = field(default_factory=tuple)


def _check_refine(refine_factor: int) -> None:
    if refine_factor < 1:
        raise ValueError(f"refinement factor must be at least 1, got {refine_factor}")


def _refinement_witness(x: Point, members: tuple[IntegerForm, ...], grid: GridSpec,
                        factor: int) -> Point | None:
    """A point strictly above x, inside the box, with no member below it.

    Probes the factor-times-finer lattice up to one grid step above x: the
    points x + fine * (kt, j1, ...) with |j| <= kt, built directly as
    integer forms over a common denominator of x and the fine step.
    """
    fine = grid.step / factor
    dx, xn = integer_form(x)
    den = lcm(dx, fine.denominator)
    base = [n * (den // dx) for n in xn]
    unit = fine.numerator * (den // fine.denominator)
    # Offsets, in fine steps, that keep the probe inside the box.
    t_room = min(factor, floor((grid.box[0][1] - x.coords[0]) / fine))
    room = [(ceil((lo - c) / fine), floor((hi - c) / fine))
            for c, (lo, hi) in zip(x.coords[1:], grid.box[1:])]
    for kt in range(1, t_room + 1):
        axes = [range(max(lo, -kt), min(hi, kt) + 1) for lo, hi in room]
        for offsets in product(*axes):
            if sum(j * j for j in offsets) > kt * kt:
                continue
            z = (base[0] + unit * kt,) + tuple(
                n + unit * j for n, j in zip(base[1:], offsets))
            if not _any_below(members, (den, z)):
                return Point(tuple(Fraction(n, den) for n in z))
    return None


def oracle_choice_points(model: BranchingModel, a: ScenarioId, b: ScenarioId,
                         grid: GridSpec, refine_factor: int = 8) -> ChoiceScan:
    """Grid points maximal in the scanned overlap, refinement-verified."""
    _check_refine(refine_factor)
    scan = oracle_overlap(model, a, b, grid)
    family = model.family(a, b)
    if grid.dimension > 2:
        refine_factor = min(refine_factor, 4)

    by_time = sorted(scan.points, key=lambda p: p.coords)
    notes = []
    if not scan.adequate:
        notes.append(f"truncation not provably adequate: {scan.note}")
    fine_ok, fine_note = truncation_adequacy(family, grid, lattice_step=grid.step / refine_factor)
    if not fine_ok:
        notes.append(f"refinement truncation not provably adequate: {fine_note}")

    forms = [integer_form(x) for x in by_time]
    candidates = []
    for i, x in enumerate(by_time):
        if any(integer_lt(forms[i], z) for z in forms[i + 1:]):
            continue
        if _refinement_witness(x, scan.member_forms, grid, refine_factor) is not None:
            continue
        candidates.append(x)

    flagged = frozenset(x for x in grid.points() if boundary_flagged(grid, x))
    return ChoiceScan(tuple(candidates), flagged, scan, tuple(notes))


def oracle_cross_check(model: BranchingModel, grid: GridSpec,
                       pairs=None, order_samples: int = 200,
                       refine_factor: int = 8) -> Report:
    """Agreement report: analytic queries versus pure enumeration.

    Checks, per scenario pair: overlap membership at every grid point,
    choice-point status at every unflagged grid point, and induced-order
    spot checks re-evaluated from the definition (Minkowski order plus
    scanned overlap membership).
    """
    _check_refine(refine_factor)
    report = Report("oracle-cross-check")
    if pairs is None:
        labels = model.scenario_list()
        if labels is None:
            raise ValueError("generator-mode models need explicit scenario pairs")
        pairs = list(combinations(labels, 2))

    grid_pts = grid.points()
    for a, b in pairs:
        tag = f"{a}|{b}"
        choice = oracle_choice_points(model, a, b, grid, refine_factor=refine_factor)
        scan = choice.overlap
        if not scan.adequate:
            report.note(f"{tag}: {scan.note}")
        overlap_bad = [
            x for x in grid_pts
            if model.in_overlap(a, b, x) != (x in scan.points)
        ]
        report.add(f"overlap {tag}", not overlap_bad,
                   f"{len(grid_pts)} grid points" if not overlap_bad
                   else f"{len(overlap_bad)} disagreements; first {overlap_bad[0]!r}")

        for note in choice.notes:
            report.note(f"{tag}: {note}")
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
        checked = 0
        for i in range(order_samples):
            x = grid_pts[(i * 7919) % n]
            y = grid_pts[(i * 104729 + 13) % n]
            expected = minkowski.leq(x, y) and x in scan.points
            actual = events.leq(model, LabeledPoint(x, a), LabeledPoint(y, b))
            checked += 1
            if actual != expected:
                order_bad.append((x, y))
        report.add(f"order {tag}", not order_bad,
                   f"{checked} sampled pairs" if not order_bad
                   else f"{len(order_bad)} disagreements; first {order_bad[0]!r}")
    return report
