"""Brute-force grid oracle.

Everything here is enumeration: member lists are truncated and scanned,
overlap membership is decided from the enumerated members alone, and
choice-point candidates are grid points with no grid point above them still
in the overlap.  No closed-form family query is consulted, which is the
point: the oracle is the independent side of the agreement obligation on
the analytic decision procedures.

Both scans run on columns.  A column is a spatial grid point, and grid
point (i, c) lies on it at time index i.  The scanned overlap is downward
closed, so the kept points of each column are a prefix in time, given by
its height h_c: the least, over the members read, of the first time index
at which the member lies strictly below the column.  That index is one
`isqrt` and one floor division on the member's stored form (`Point.form`),
with dt > 0 required, which leaves a member's own grid point kept.  A kept
point can be maximal only at the top of its column, and a top is maximal
unless another column's top lies strictly above it: in grid indices,
di > 0 and di**2 >= |dc|**2.  The overlap scan reads lines of members (a
time slice in the plane): a line's members share a time and every coordinate
past the first spatial axis, and its nearest member alone sets a column's
height, found by bisection.  That costs O(C log M) a line for C columns and M
members in every dimension, O(M * C) only when every member has its own
line.  The dominance sweep costs O(C**2) in every dimension.  The forms
belong to the enumerated points themselves, never to a family's closed form.

`truncate` caps the member indices a scan reads, and a scan reads only as
far as a family kind's `members_needed` says: if a member lies strictly
below x, one of index at most that bound does.

* truncation adequacy: the overlap scan reads up to the largest bound over
  the grid, or to the cap; a scan whose cap falls short carries a warning.
  A kind reads each column's largest bound only on the rows where it
  provably peaks (`_column_members_needed`);
* escape witnesses: a grid point with no scanned grid point above it may
  still have overlap points above it, in a wedge thinner than the step.
  Each such candidate x is tested at y = x + (eps, 0), with eps an exact
  rational below x's gap to every member read.  While the bound at y
  passes those members, x cuts eps once with the members of the cap's own
  index, then reads further ones, never past the cap, and cuts again; y is
  a witness, and x no choice point, once it does not.  x has none once the
  kind's `members_needed_floor` passes the cap, which no later cut undoes.
  A true choice point has no such y, so the test only removes false
  candidates.

Grid points within one light-cone step of the box top or of a spatial face
are flagged: their maximality cannot be decided inside the box, and they
are excluded from agreement obligations.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import combinations, compress, groupby, product
from math import gcd, isqrt, lcm, prod
from typing import Sequence

from . import events, minkowski
from .errors import DimensionMismatch, GridBudgetExceeded
from .events import LabeledPoint
from .families import SplittingFamily
from .histories import _is_family_choice_point
from .minkowski import IntegerForm, Point, _Value, from_form, lattice, rational, separation
from .model import BranchingModel, ScenarioId
from .reporting import Report

#: Hard cap on enumerated grid points.
GRID_BUDGET = 10_000_000


class GridSpec(_Value):
    """A rational box lattice: per-axis (lo, hi) bounds, a step, a member cap."""

    _fields = ("box", "step", "truncate")
    #: `_lattice`: the box's integer lattice, from `minkowski.lattice`, computed once.
    __slots__ = _fields + ("_lattice",)

    def __init__(self, box: tuple[tuple[Fraction, Fraction], ...], step: Fraction,
                 truncate: int = 1000):
        box = tuple((rational(lo), rational(hi)) for lo, hi in box)
        step = rational(step)
        if len(box) < 2:
            raise ValueError("grid needs a time axis and at least one spatial axis")
        if step <= 0:
            raise ValueError("grid step must be positive")
        for lo, hi in box:
            if lo > hi:
                raise ValueError("grid bounds out of order")
        if truncate < 1:
            raise ValueError("truncation must be at least 1")
        self._store(box=box, step=step, truncate=truncate, _lattice=lattice(box, step))
        if prod(self._lattice[3]) > GRID_BUDGET:
            raise GridBudgetExceeded(
                f"grid would exceed {GRID_BUDGET} points; shrink the box or coarsen the step")

    @property
    def dimension(self) -> int:
        return len(self.box)

    def axis_values(self, axis: int) -> list[Fraction]:
        lo = self.box[axis][0]
        return [lo + self.step * k for k in range(self._lattice[3][axis])]

    def points(self) -> list[Point]:
        d, step, lows, counts = self._lattice
        return [from_form(d, nums)
                for nums in product(*(range(lo, lo + step * n, step) for lo, n in zip(lows, counts)))]


class _MemberForms:
    """A scan's member forms in index order: those up to index `reach`, through
    `members()`, then each later index as asked, through `index_members`."""

    def __init__(self, family: SplittingFamily, grid: GridSpec, reach: int):
        if family.dimension not in (None, grid.dimension):
            raise DimensionMismatch(
                f"family members do not have the grid's dimension {grid.dimension}")
        self.family, self.reach, self.cap = family, reach, grid.truncate
        self.forms: list[IntegerForm] = [m.form for m in family.members(limit=reach)]
        # the form count up to each index read; `read` asks for none below `reach`
        self._counts = [len(self.forms)]

    def read(self, index: int) -> int:
        """Read the members of indices up to `index` >= `reach`; return how many forms they are."""
        for n in range(self.reach + len(self._counts), index + 1):
            self.forms += [m.form for m in self.family.index_members(n)]
            self._counts.append(len(self.forms))
        return self._counts[index - self.reach]

    @cached_property
    def probe(self) -> list[IntegerForm]:
        """The forms of the members of index `cap`, the last a scan may read."""
        return [m.form for m in self.family.index_members(self.cap)]


def _kept(forms: list[IntegerForm], grid: GridSpec) -> list[bool]:
    """Per grid point, in `grid.points()` order: is no member strictly below it?"""
    d, step, (t_lo, *lows), (rows, *counts) = grid._lattice
    heights = [rows] * prod(counts)
    for dm, m0, column_spreads in _line_spreads(forms, d, step, lows, counts):
        # dt = i * rise - base at row i, over d * dm: the least i with dt >= max(1, ceil(sqrt(s)))
        base, rise = m0 * d - t_lo * dm, step * dm
        heights = [min(h, ((isqrt(s - 1) if s else 0) + base) // rise + 1)
                   for h, s in zip(heights, column_spreads)]
    return [i < h for i in range(rows) for h in heights]


def _line_spreads(forms, d, step, lows, counts):
    """Per line of members (D, t, s): the line's time t over D, and s each column's
    squared distance to the line's nearest member, in grid order, over d * D.  On a
    time slice a column's height only grows with that distance, so the nearest member
    sets it: bisected on the first axis, plus each other axis's fixed offset."""
    (lo, *others), (n, *other_counts) = lows, counts
    lines = {}
    for dm, (m0, m1, *rest) in forms:
        # the key is the reduced form of (time, coordinates past the first spatial axis)
        g = gcd(dm, m0, *rest)
        lines.setdefault((dm // g, m0 // g, *map(g.__rfloordiv__, rest)), []).append((dm, m1))
    for (ld, t, *fixed), members in lines.items():
        den = lcm(*(dm for dm, _ in members))
        scale = den // ld
        # positions and columns over the denominator d * den
        at = sorted(m1 * (den // dm) * d for dm, m1 in members)
        xs = [(lo + step * k) * den for k in range(n)]
        last = len(at) - 1
        spreads = [min((x - at[max(j - 1, 0)]) ** 2, (x - at[min(j, last)]) ** 2)
                   for x, j in zip(xs, [bisect_left(at, x) for x in xs])]
        for low, count, c in zip(others, other_counts, fixed):
            offsets = [((low + step * k) * den - c * scale * d) ** 2 for k in range(count)]
            spreads = [s + o for s in spreads for o in offsets]
        yield den, t * scale, spreads


class OverlapScan(_Value):
    #: The grid points in `GridSpec.points()` order, and which of them the scan kept;
    #: `__dict__` holds the cached `points`.
    _fields = ("grid_points", "kept", "adequate", "note", "members")
    __slots__ = _fields + ("__dict__",)

    def __init__(self, grid_points: tuple[Point, ...], kept: tuple[bool, ...], adequate: bool,
                 note: str, members: _MemberForms):
        self._store(grid_points=grid_points, kept=kept, adequate=adequate, note=note,
                    members=members)

    @cached_property
    def points(self) -> frozenset[Point]:
        return frozenset(compress(self.grid_points, self.kept))


def oracle_overlap(model: BranchingModel, a: ScenarioId, b: ScenarioId,
                   grid: GridSpec) -> OverlapScan:
    """Grid points with no truncated member strictly below them."""
    family = model.family(a, b)
    points = grid.points()
    d, step, (t_lo, *lows), (rows, *counts) = grid._lattice
    times = range(t_lo, t_lo + step * rows, step)
    needed = max(family._column_members_needed(d, times, position) for position in
                 product(*(range(lo, lo + step * n, step) for lo, n in zip(lows, counts))))
    members = _MemberForms(family, grid, min(needed, grid.truncate))
    kept = _kept(members.forms, grid)
    note = f"member indices up to {needed} reachable, cap {grid.truncate}"
    return OverlapScan(tuple(points), tuple(kept), grid.truncate >= needed, note, members)


def _flags(grid: GridSpec) -> tuple[bool, ...]:
    """Per grid point, in `grid.points()` order: within one light-cone step of
    the box top or of a spatial face?"""
    # lo + k * step, for k < n, is within one step of hi exactly when k = n - 1
    rows, *counts = grid._lattice[3]
    faces = [[k == 0 or k == n - 1 for k in range(n)] for n in counts]
    sides = [any(on) for on in product(*faces)]
    return tuple(sides * (rows - 1) + [True] * len(sides))


class ChoiceScan(_Value):
    #: `is_candidate` and `is_flagged`: per grid point, in `GridSpec.points()` order, a
    #: candidate, and boundary-flagged; `__dict__` holds the cached `flagged`.
    _fields = ("candidates", "overlap", "is_candidate", "is_flagged")
    __slots__ = _fields + ("__dict__",)

    def __init__(self, candidates: tuple[Point, ...], overlap: OverlapScan,
                 is_candidate: tuple[bool, ...], is_flagged: tuple[bool, ...]):
        self._store(candidates=candidates, overlap=overlap, is_candidate=is_candidate,
                    is_flagged=is_flagged)

    @cached_property
    def flagged(self) -> frozenset[Point]:
        return frozenset(compress(self.overlap.grid_points, self.is_flagged))


def _maximal(kept: Sequence[bool], grid: GridSpec) -> list[bool]:
    """Per grid point, in `grid.points()` order: kept, and below no other kept point?

    `kept` is a time prefix on each column, so its count there is the
    column's height, and only a column's top can be maximal.  A kept point
    above a top lies on or below its own column's top, so a top is maximal
    unless another top lies strictly above it: di > 0 and di**2 >= |dc|**2.
    """
    rows, *counts = grid._lattice[3]
    columns = list(product(*map(range, counts)))
    width = len(columns)
    heights = [sum(kept[c::width]) for c in range(width)]
    top = [-1] * width                          # per column, its maximal top's time index
    above: list[tuple[int, tuple[int, ...]]] = []   # (height, column) of the higher tops
    for h, level in groupby(sorted(range(width), key=heights.__getitem__, reverse=True),
                            key=heights.__getitem__):
        if not h:
            break
        level = list(level)
        for c in level:
            if not any(sum((a - b) ** 2 for a, b in zip(columns[c], e)) <= (g - h) ** 2
                       for g, e in above):
                top[c] = h - 1
        above += [(h, columns[c]) for c in level]
    return [i == t for i in range(rows) for t in top]


def _has_escape_witness(x: IntegerForm, members: _MemberForms, grid: GridSpec) -> bool:
    """Is y = x + (eps, 0), inside the box, provably in the overlap?

    eps starts at the room left below the box top.  Each member m of index
    up to `members.reach`, with dt = x0 - m0 and S the squared spatial
    distance, scaled as in `minkowski.separation` (dt by Dm*Dx, S by its
    square), cuts eps below m's gap sqrt(S) - dt: to (S - dt**2) / ((isqrt(S) + 1 +
    dt) * Dm * Dx) when dt >= 0, and to -dt / (Dm * Dx) when dt < 0, which
    keeps y no later than m.  y is a witness once `members_needed` at y is
    at most the index read.  Until then the members of index `cap` cut eps
    once, and after that the index rises to the bound at y, never past the
    cap, and the new members cut eps again.  Once `members_needed_floor`
    passes the cap there is no witness, read to the cap or not: those cuts
    leave eps no larger, and the floor bounds the bound below y.  A member,
    or a point on the box top, leaves no room and no witness.
    """
    dx, xn = x
    top = grid.box[0][1]
    # eps = num / (den * Dx) throughout.
    num, den = top.numerator * dx - xn[0] * top.denominator, top.denominator
    if num <= 0:
        return False
    family, index, done, rounds = members.family, members.reach, 0, 0
    while True:
        count = members.read(index)
        for m in members.forms[done:count] + (members.probe if rounds == 1 else []):
            dt, s = separation(m, x)
            if dt < 0:
                cut, cut_den = -dt, m[0]
            else:
                cut, cut_den = s - dt * dt, (isqrt(s) + 1 + dt) * m[0]
            if cut * den < num * cut_den:
                if cut <= 0:
                    return False        # x is a member
                num, den = cut, cut_den
        done, rounds = count, rounds + 1
        y = (dx * den, (xn[0] * den + num,) + tuple(c * den for c in xn[1:]))
        needed = family.members_needed(y)
        if needed <= index or index == grid.truncate:
            return needed <= index
        if family.members_needed_floor(x, y) > grid.truncate:
            return False
        if rounds > 1:                  # the second round cuts with the probe alone
            index = min(needed, grid.truncate)


def oracle_choice_points(model: BranchingModel, a: ScenarioId, b: ScenarioId,
                         grid: GridSpec) -> ChoiceScan:
    """Grid points maximal in the scanned overlap with no escape witness."""
    scan = oracle_overlap(model, a, b, grid)
    points = scan.grid_points
    is_candidate = tuple(top and not _has_escape_witness(x.form, scan.members, grid)
                         for x, top in zip(points, _maximal(scan.kept, grid)))
    return ChoiceScan(tuple(compress(points, is_candidate)), scan, is_candidate, _flags(grid))


def oracle_cross_check(model: BranchingModel, grid: GridSpec,
                       pairs=None, order_samples: int = 200) -> Report:
    """Agreement report: analytic queries versus pure enumeration.

    Checks, per scenario pair: overlap membership at every grid point,
    choice-point status at every unflagged grid point, and induced-order
    spot checks re-evaluated from the definition (Minkowski order plus
    scanned overlap membership).
    """
    return cross_check_scans(model, grid, pairs, order_samples)[0]


def cross_check_scans(model: BranchingModel, grid: GridSpec, pairs=None,
                      order_samples: int = 200) -> tuple[Report, dict[tuple, ChoiceScan]]:
    """`oracle_cross_check` and the choice scan it made of each pair, in pair order."""
    report = Report("oracle-cross-check")
    scans = {}
    if pairs is None:
        labels = model.scenario_list()
        if labels is None:
            raise ValueError("generator-mode models need explicit scenario pairs")
        pairs = list(combinations(labels, 2))

    for a, b in pairs:
        tag = f"{a}|{b}"
        choice = scans[a, b] = oracle_choice_points(model, a, b, grid)
        # per point, `model.in_overlap` (no member strictly below) and `is_choice_point`,
        # with the pair's family looked up and the dimension checked once
        family = model.family(a, b)
        if grid.dimension != model.dimension:
            raise DimensionMismatch(
                f"point has dimension {grid.dimension}, model has {model.dimension}")
        scan = choice.overlap
        grid_pts, kept = scan.grid_points, scan.kept
        if not scan.adequate:
            report.note(f"{tag}: truncation not provably adequate: {scan.note}")
        overlap_bad = [x for x, keep in zip(grid_pts, kept) if family.any_strictly_below(x) == keep]
        report.add(f"overlap {tag}", not overlap_bad,
                   f"{len(grid_pts)} grid points" if not overlap_bad
                   else f"{len(overlap_bad)} disagreements; first {overlap_bad[0]!r}")

        choice_bad = [x for x, flag, cand in zip(grid_pts, choice.is_flagged, choice.is_candidate)
                      if not flag and _is_family_choice_point(family, x) != cand]
        unflagged = choice.is_flagged.count(False)
        report.add(f"choice-points {tag}", not choice_bad,
                   f"{unflagged} unflagged grid points" if not choice_bad
                   else f"{len(choice_bad)} disagreements; first {choice_bad[0]!r}")

        n = len(grid_pts)
        order_bad = []
        for i in range(order_samples):
            k = (i * 7919) % n
            x, y = grid_pts[k], grid_pts[(i * 104729 + 13) % n]
            expected = minkowski.leq(x, y) and kept[k]
            actual = events.leq(model, LabeledPoint(x, a), LabeledPoint(y, b))
            if actual != expected:
                order_bad.append((x, y))
        report.add(f"order {tag}", not order_bad,
                   f"{order_samples} sampled pairs" if not order_bad
                   else f"{len(order_bad)} disagreements; first {order_bad[0]!r}")
    return report, scans
