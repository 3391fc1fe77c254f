import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import product
from math import floor, prod
from pathlib import Path

import pytest

import minkbranch as mb
from minkbranch import modelfile, oracle
from minkbranch.errors import DimensionMismatch, GridBudgetExceeded
from minkbranch.families import FiniteFamily, HarmonicPair, IntegerRow
from minkbranch.minkowski import Point, lt, point
from minkbranch.oracle import GridSpec, oracle_choice_points, oracle_cross_check, oracle_overlap

from conftest import (
    boundary_flagged,
    build_random_battery,
    integer_lt,
    random_rational,
    reference_escape_witness,
    reference_oracle_candidates,
    reference_oracle_maximal,
    reference_oracle_overlap,
)

MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"


def test_grid_spec_basics():
    grid = GridSpec(((-1, 1), (-1, 1)), F(1, 2))
    assert grid.dimension == 2
    assert grid.axis_values(0) == [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
    assert len(grid.points()) == 25


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(((1, -1),), F(1, 2))
    with pytest.raises(ValueError):
        GridSpec(((-1, 1), (-1, 1)), F(0))
    with pytest.raises(GridBudgetExceeded):
        GridSpec(((-1000, 1000), (-1000, 1000)), F(1, 100))


def _reference_axis(lo, hi, step):
    return [lo + i * step for i in range(floor((hi - lo) / step) + 1)]


@pytest.mark.parametrize("box, step", [
    (((F(-1), F(1)), (F(-1), F(1))), F(2, 7)),                       # the step divides no side
    (((F(-2, 3), F(5, 4)), (F(-7, 5), F(-1, 9))), F(1, 6)),          # lows of other denominators
    (((F(-3, 8), F(1, 2)), (F(-5, 6), F(2, 3)), (F(-1, 7), F(3, 5))), F(3, 10)),   # 3-D
    (((F(0), F(0)), (F(-1, 3), F(-1, 3))), F(5)),                    # one point
])
def test_stored_lattice_matches_a_reference_enumeration(box, step):
    grid = GridSpec(box, step)
    axes = [_reference_axis(lo, hi, step) for lo, hi in box]
    assert [grid.axis_values(k) for k in range(len(box))] == axes
    assert grid.points() == [Point(c) for c in product(*axes)]
    assert len(grid.points()) == prod(map(len, axes))


def test_grid_budget_boundary():
    # built, not enumerated: the rows of a budget-sized grid are never listed
    rows, columns = oracle.GRID_BUDGET // 1000, 1000
    assert rows * columns == oracle.GRID_BUDGET
    GridSpec(((0, rows - 1), (0, columns - 1)), F(1))
    with pytest.raises(GridBudgetExceeded):
        GridSpec(((0, rows), (0, columns - 1)), F(1))


def test_oracle_overlap_frozen_scan(two_scenario_model):
    grid = GridSpec(((-1, 1), (-1, 1)), F(1, 2))
    scan = oracle_overlap(two_scenario_model, "s1", "s2", grid)
    excluded = sorted(p.coords for p in grid.points() if p not in scan.points)
    assert excluded == [
        (F(1, 2), F(-1, 2)),
        (F(1, 2), F(0)),
        (F(1, 2), F(1, 2)),
        (F(1), F(-1)),          # lightlike above the splitting point
        (F(1), F(-1, 2)),
        (F(1), F(0)),
        (F(1), F(1, 2)),
        (F(1), F(1)),           # lightlike above the splitting point
    ]
    assert scan.adequate


def test_oracle_overlap_matches_analytic_everywhere(two_scenario_model, harmonic_model):
    cases = [
        (two_scenario_model, "s1", "s2", GridSpec(((-1, 1), (-1, 1)), F(1, 4))),
        (harmonic_model, "u", "v", GridSpec(((F(-1, 2), F(1, 2)), (F(-1, 2), F(1, 2))), F(1, 8))),
    ]
    for model, a, b, grid in cases:
        scan = oracle_overlap(model, a, b, grid)
        for x in grid.points():
            assert (x in scan.points) == model.in_overlap(a, b, x), x


def test_boundary_flagging():
    grid = GridSpec(((-1, 1), (-1, 1)), F(1, 2))
    # flagged when there is less than one full step of room to the box top
    # or to a spatial face
    assert boundary_flagged(grid, point(1, 0))
    assert boundary_flagged(grid, point(F(3, 4), 0))
    assert not boundary_flagged(grid, point(F(1, 2), 0))
    assert boundary_flagged(grid, point(0, 1))
    assert boundary_flagged(grid, point(0, F(-3, 4)))
    assert not boundary_flagged(grid, point(0, F(-1, 2)))
    assert not boundary_flagged(grid, point(-1, 0))


def test_oracle_choice_points_frozen(two_scenario_model):
    grid = GridSpec(((-1, 1), (-1, 1)), F(1, 2))
    scan = oracle_choice_points(two_scenario_model, "s1", "s2", grid)
    assert sorted(p.coords for p in scan.candidates) == [(F(0), F(0))]
    assert len(scan.flagged) == 13


def test_refinement_removes_grid_blind_candidates():
    # both members sit one grid step from the origin; every grid point above
    # the origin is captured, yet (1/32, 0) escapes, so the origin is not
    # maximal and its escape witness must find that out
    model = mb.Model(2, ("a", "b"), {
        ("a", "b"): FiniteFamily((point(0, F(-1, 4)), point(0, F(1, 4)))),
    })
    grid = GridSpec(((-1, 1), (-1, 1)), F(1, 4))
    scan = oracle_choice_points(model, "a", "b", grid)
    assert point(0, 0) not in scan.candidates
    assert sorted(p.coords for p in scan.candidates) == [
        (F(0), F(-1, 4)), (F(0), F(1, 4))]
    witness = point(F(1, 32), 0)
    assert model.in_overlap("a", "b", witness) and lt(point(0, 0), witness)


def test_refinement_keeps_true_emergent_candidate(harmonic_model):
    grid = GridSpec(((F(-1, 2), F(1, 2)), (F(-1, 2), F(1, 2))), F(1, 8))
    scan = oracle_choice_points(harmonic_model, "u", "v", grid)
    assert point(0, 0) in scan.candidates
    assert point(0, 0) not in scan.flagged


def test_escape_witness_sees_thin_wedges(harmonic_model):
    # the wedge above (0, -3/32), between the members at -1/11 and -1/10, is
    # about 0.0028 high: thinner than any fixed fraction of the 1/32 step
    grid = GridSpec(((F(-1, 2), F(1, 2)), (F(-1, 2), F(1, 2))), F(1, 32), truncate=1000)
    report = oracle_cross_check(harmonic_model, grid)
    assert report.passed, report.render()
    assert report.notes == []


def test_cross_check_scans_each_pair_once(monkeypatch, triangle_violation_model):
    scanned = []
    original = oracle.oracle_overlap

    def counting(model, a, b, grid):
        scanned.append((a, b))
        return original(model, a, b, grid)

    monkeypatch.setattr(oracle, "oracle_overlap", counting)
    oracle_cross_check(triangle_violation_model, GridSpec(((-1, 1), (-1, 1)), F(1, 2)),
                       order_samples=20)
    assert scanned == [("a", "b"), ("a", "c"), ("b", "c")]


def test_cross_check_in_three_dimensions():
    model = mb.Model(3, ("a", "b"), {
        ("a", "b"): FiniteFamily((point(0, F(-1, 2), 0), point(0, F(1, 2), 0))),
    })
    grid = GridSpec(((-1, 1), (-1, 1), (-1, 1)), F(1, 2))
    report = oracle_cross_check(model, grid, order_samples=60)
    assert report.passed, report.render()

    scan = oracle_choice_points(model, "a", "b", grid)
    for x in grid.points():
        assert (x in scan.overlap.points) == model.in_overlap("a", "b", x), x
    # both members are maximal; the origin is grid-blind, and only its
    # escape witness sees the room above it
    assert point(0, F(-1, 2), 0) in scan.candidates
    assert point(0, F(1, 2), 0) in scan.candidates
    assert point(0, 0, 0) not in scan.candidates


def test_truncation_adequacy_integer_row():
    row = IntegerRow(0)
    model = mb.Model(2, ("p", "q"), {("p", "q"): row})
    box = ((-2, 2), (-2, 2))

    def adequate(box, truncate):
        return oracle_overlap(model, "p", "q", GridSpec(box, F(1, 4), truncate=truncate)).adequate

    # indices up to floor(2 + 2) = 4 are reachable from inside the box
    assert adequate(box, 4)
    assert not adequate(box, 3)
    assert adequate(((-3, -1), (-2, 2)), 1)
    assert list(row.members(limit=4))[-1] == point(0, 4)


def test_truncation_adequacy_harmonic():
    model = mb.Model(2, ("u", "v"), {("u", "v"): HarmonicPair(point(0, 0))})
    box = ((F(-1, 2), F(1, 2)), (F(-1, 2), F(1, 2)))

    def adequate(truncate):
        return oracle_overlap(model, "u", "v", GridSpec(box, F(1, 8), truncate=truncate)).adequate

    # the smallest positive lattice offsets are 1/8, so members past index
    # 8 can never reach a lattice point first
    assert adequate(8)
    assert not adequate(7)


def test_overlap_scan_reports_adequacy():
    row_model = mb.Model(2, ("p", "q"), {("p", "q"): IntegerRow(0)})
    box = ((-2, 2), (-2, 2))
    assert not oracle_overlap(row_model, "p", "q",
                              GridSpec(box, F(1, 4), truncate=3)).adequate
    assert oracle_overlap(row_model, "p", "q",
                          GridSpec(box, F(1, 4), truncate=10)).adequate

    hmodel = mb.Model(2, ("u", "v"), {("u", "v"): HarmonicPair(point(0, 0))})
    hbox = ((F(-1, 2), F(1, 2)), (F(-1, 2), F(1, 2)))
    assert not oracle_overlap(hmodel, "u", "v",
                              GridSpec(hbox, F(1, 8), truncate=4)).adequate
    assert oracle_overlap(hmodel, "u", "v",
                          GridSpec(hbox, F(1, 8), truncate=1000)).adequate


def test_cross_check_passes_on_presets(two_scenario_model, harmonic_model,
                                       integer_row_model):
    cases = [
        (two_scenario_model, GridSpec(((-1, 1), (-1, 1)), F(1, 4))),
        (harmonic_model, GridSpec(((F(-1, 2), F(1, 2)), (F(-1, 2), F(1, 2))), F(1, 8))),
        (integer_row_model, GridSpec(((-2, 2), (-2, 2)), F(1, 4))),
    ]
    for model, grid in cases:
        report = oracle_cross_check(model, grid, order_samples=100)
        assert report.passed, report.render()


def test_cross_check_passes_on_random_battery():
    grid = GridSpec(((-2, 2), (-2, 2)), F(1, 4))
    for model in build_random_battery()[:2]:
        report = oracle_cross_check(model, grid, order_samples=60)
        assert report.passed, report.render()


# ---------------------------------------------------------------------------
# Mutation sensitivity: a wrong closed form must trip the oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicSkippingLargest(HarmonicPair):
    """Closed form that forgets the n = 1 members."""

    def any_strictly_below(self, x: Point) -> bool:
        return any(
            lt(m, x) for m in self.members(limit=64)
            if abs(m.coords[1] - self.center.coords[1]) != 1
        )


@dataclass(frozen=True)
class IntegerRowDroppingLightlike(IntegerRow):
    """Closed form that wrongly demands a time-like connection."""

    def any_strictly_below(self, x: Point) -> bool:
        from minkbranch.minkowski import interval
        return any(
            interval(m, x) < 0 and m.time < x.time
            for m in self.members(limit=64)
        )


@dataclass(frozen=True)
class FiniteSkippingFirst(FiniteFamily):
    """Closed form that ignores the first member."""

    def any_strictly_below(self, x: Point) -> bool:
        return any(lt(m, x) for m in self.points[1:])


def test_mutant_families_trip_the_oracle():
    mutants = [
        (
            mb.Model(2, ("a", "b"), {
                ("a", "b"): HarmonicSkippingLargest(point(0, 0))}),
            GridSpec(((-2, 2), (-2, 2)), F(1, 4)),
        ),
        (
            mb.Model(2, ("a", "b"), {
                ("a", "b"): IntegerRowDroppingLightlike(0)}),
            GridSpec(((-2, 2), (-2, 2)), F(1, 4)),
        ),
        (
            mb.Model(2, ("a", "b"), {
                ("a", "b"): FiniteSkippingFirst((point(0, -1), point(0, 1)))}),
            GridSpec(((-2, 2), (-2, 2)), F(1, 4)),
        ),
    ]
    for model, grid in mutants:
        report = oracle_cross_check(model, grid, order_samples=60)
        assert not report.passed, type(model.family("a", "b")).__name__


def test_escape_witness_stops_below_later_members():
    # the members sit at time 1/4, between grid rows; above the grid point
    # (0, 0) the witness must stay no later than them, and it exists
    model = mb.Model(2, ("a", "b"), {("a", "b"): FiniteFamily(
        (point(F(1, 4), F(-1, 2)), point(F(1, 4), 0), point(F(1, 4), F(1, 2))))})
    grid = GridSpec(((-1, 1), (-1, 1)), F(1, 2))
    assert point(0, 0) not in oracle_choice_points(model, "a", "b", grid).candidates
    report = oracle_cross_check(model, grid)
    assert report.passed, report.render()


def test_lazy_witness_reads_past_the_grid_bound():
    # every grid point sits no later than the center, so the overlap scan
    # reads no member; above (0, -1), the first eps reaches the box top at
    # 9/10, where members of index 1 could lie below, so the witness reads
    # them, cuts eps to 1/6 and finds the room above (0, -1)
    family = HarmonicPair(point(0, F(1, 3)))
    model = mb.Model(2, ("a", "b"), {("a", "b"): family})
    grid = GridSpec(((-1, F(9, 10)), (-1, F(7, 8))), F(1))
    scan = oracle_overlap(model, "a", "b", grid)
    assert (scan.members.reach, scan.members.forms) == (0, [])
    x = point(0, -1)
    assert oracle._has_escape_witness(x.form, scan.members, grid)
    assert len(scan.members.forms) == 2
    assert reference_escape_witness(x.form, list(family.members(limit=grid.truncate)),
                                    family, grid)
    assert x not in oracle_choice_points(model, "a", "b", grid).candidates


def test_lazy_witness_of_a_true_choice_point_stops_before_the_cap(harmonic_model):
    # each member n cuts eps above the center to 1/(2n), where members up to
    # index 2n could lie below; the members of index 300, the cap, cut it to
    # 1/600, and below that y the bound stays at 600 or more: no witness
    family = harmonic_model.family("u", "v")
    grid = GridSpec(((F(-1, 2), F(1, 2)), (F(-1, 2), F(1, 2))), F(1, 8), truncate=300)
    scan = oracle_overlap(harmonic_model, "u", "v", grid)
    assert (scan.members.reach, len(scan.members.forms)) == (8, 16)
    center = point(0, 0)
    assert not oracle._has_escape_witness(center.form, scan.members, grid)
    assert not reference_escape_witness(center.form, list(family.members(limit=300)),
                                        family, grid)
    assert scan.members.probe == [m.form for m in family.index_members(300)]
    assert len(scan.members.forms) + len(scan.members.probe) <= 4 * 8 + 2


def test_escape_witness_probes_the_cap_once_and_only_when_undecided(monkeypatch):
    cuts, probes = [], []
    separation, index_members = oracle.separation, HarmonicPair.index_members

    def counting_separation(m, x):
        cuts.append(m)
        return separation(m, x)

    def counting_index_members(self, n):
        probes.append(n)
        return index_members(self, n)

    monkeypatch.setattr(oracle, "separation", counting_separation)
    monkeypatch.setattr(HarmonicPair, "index_members", counting_index_members)
    half = (F(-1, 2), F(1, 2))
    # above (0, -1) the first round reads nothing and decides nothing; the
    # probe cuts nothing, and index 1 then gives the witness (see above)
    family = HarmonicPair(point(0, F(1, 3)))
    grid = GridSpec(((-1, F(9, 10)), (-1, F(7, 8))), F(1))
    scan = oracle_overlap(mb.Model(2, ("a", "b"), {("a", "b"): family}), "a", "b", grid)
    cuts.clear()
    assert oracle._has_escape_witness(point(0, -1).form, scan.members, grid)
    assert cuts == scan.members.probe + scan.members.forms[:2]
    # above the center: the grid's reach, then the probe; a second call cuts
    # with the same forms and builds no second probe
    family = HarmonicPair(point(0, 0))
    grid = GridSpec((half, half), F(1, 8), truncate=300)
    scan = oracle_overlap(mb.Model(2, ("u", "v"), {("u", "v"): family}), "u", "v", grid)
    for _ in range(2):
        cuts.clear()
        assert not oracle._has_escape_witness(point(0, 0).form, scan.members, grid)
        assert cuts == scan.members.forms + scan.members.probe
    assert probes.count(300) == 1
    # beside the center the first round decides every maximal point, and none reads the probe
    probes.clear()
    grid = GridSpec(((F(-1, 2), F(1, 2)), (F(1, 8), F(1, 2))), F(1, 8), truncate=300)
    choice = oracle_choice_points(mb.Model(2, ("u", "v"), {("u", "v"): family}), "u", "v", grid)
    assert choice.candidates and 300 not in probes


def test_a_walk_past_reach_leaves_later_candidates_the_forms_up_to_reach(monkeypatch):
    cuts = []
    separation = oracle.separation

    def counting_separation(m, x):
        cuts.append(m)
        return separation(m, x)

    monkeypatch.setattr(oracle, "separation", counting_separation)
    family = HarmonicPair(point(F(-1, 2), F(-4, 7)))
    grid = GridSpec(((F(-1, 2), F(1, 2)), (F(-1, 4), F(1, 2))), F(2, 3), truncate=300)
    scan = oracle_overlap(mb.Model(2, ("a", "b"), {("a", "b"): family}), "a", "b", grid)
    members, reach = scan.members, scan.members.reach
    prefix = [m.form for m in family.members(limit=reach)]
    assert reach == 3 and members.forms == prefix
    # both grid points on the center's time slice are maximal; the walk from
    # the one nearer the center reads past the reach, the other's stops there
    walker, decided = point(F(-1, 2), F(-1, 4)), point(F(-1, 2), F(5, 12))
    assert [x for x, top in zip(scan.grid_points, oracle._maximal(scan.kept, grid))
            if top] == [walker, decided]
    full = list(family.members(limit=grid.truncate))
    for x in (walker, decided):
        assert reference_escape_witness(x.form, full, family, grid)
        cuts.clear()
        assert oracle._has_escape_witness(x.form, members, grid)
    assert len(members.forms) > len(prefix)
    assert cuts == prefix


def test_large_truncation_reads_only_the_members_points_need(monkeypatch, harmonic_model):
    yielded, built = [], []
    members, index_members = HarmonicPair.members, HarmonicPair.index_members

    def counting(self, limit=None):
        for m in members(self, limit):
            yielded.append(m)
            yield m

    def counting_index_members(self, n):
        points = index_members(self, n)
        built.extend(points)
        return points

    monkeypatch.setattr(HarmonicPair, "members", counting)
    monkeypatch.setattr(HarmonicPair, "index_members", counting_index_members)
    box = ((F(-1, 2), F(1, 2)), (F(-1, 2), F(1, 2)))
    expected = oracle_choice_points(harmonic_model, "u", "v", GridSpec(box, F(1, 8)))
    assert point(0, 0) in expected.candidates
    yielded.clear()
    built.clear()
    # the center, a true choice point, stops on the probe of the cap (test above)
    grid = GridSpec(box, F(1, 8), truncate=1_000_000)
    scan = oracle_choice_points(harmonic_model, "u", "v", grid)
    assert len(yielded) <= 4 * 8                # indices 8, the grid's bound, and its double
    # `members()` reads through `index_members`, so this is every member point
    # built, through either, the probe's two included
    assert len(built) <= 4 * 8 + 2
    assert scan.overlap.kept == expected.overlap.kept
    assert scan.candidates == expected.candidates


# ---------------------------------------------------------------------------
# The escape witness against the eager reference
# ---------------------------------------------------------------------------


def _witness_configurations(rng, count):
    """Seeded (family, grid box, step) triples: harmonic pairs centred on and
    off the lattice, integer rows, and finite families, near the box."""
    def rational(lo, hi):
        return random_rational(rng, lo, hi, 8)

    for i in range(count):
        step = F(rng.randint(1, 4), rng.randint(1, 12))
        lows = (rational(-2, 1), rational(-2, 1))
        box = tuple((lo, lo + rational(0, 3)) for lo in lows)
        kind = i % 4
        if kind == 0:
            family = HarmonicPair(point(rational(-2, 1), rational(-2, 1)))
        elif kind == 1:
            family = HarmonicPair(point(*(lo + step * rng.randint(0, 4) for lo in lows)))
        elif kind == 2:
            family = IntegerRow(rational(-2, 1))
        else:
            family = FiniteFamily(tuple({point(rational(-2, 1), rational(-2, 2))
                                         for _ in range(rng.randint(1, 4))}))
        yield family, box, step


@pytest.mark.parametrize("truncate", [1, 2, 3, 5, 7, 20, 300])
def test_escape_witness_agrees_with_the_eager_reference(truncate):
    # the lazy witness stops early on the floor of `members_needed`; over
    # every kept grid point it must say what the witness cut by every
    # member up to the cap says; small caps are where an unsound stop shows
    rng = random.Random(20070611 + truncate)
    seen = {True: 0, False: 0}
    centers = 0
    for family, box, step in _witness_configurations(rng, 120):
        grid = GridSpec(box, step, truncate=truncate)
        scan = oracle_overlap(mb.Model(2, ("a", "b"), {("a", "b"): family}), "a", "b", grid)
        members = list(family.members(limit=truncate))
        for x, keep in zip(scan.grid_points, scan.kept):
            if keep:
                witness = oracle._has_escape_witness(x.form, scan.members, grid)
                assert witness == reference_escape_witness(x.form, members, family, grid), \
                    (family, box, step, x)
                seen[witness] += 1
                centers += x in family.accumulation_points()
    assert min(seen.values()) >= 100 and centers >= 10, (seen, centers)


def test_escape_witness_exists_where_the_bound_passes_a_cap_of_one():
    # no member is read first, and the bound at the box top is 4, past the
    # cap of 1; giving up there would be wrong: the members of index 1 cut
    # eps down to the center's time, where the bound is 0, so y is a witness
    family = HarmonicPair(point(F(-4, 3), 0))
    grid = GridSpec(((-2, -1), (F(-13, 7), F(1, 7))), F(3, 5), truncate=1)
    scan = oracle_overlap(mb.Model(2, ("a", "b"), {("a", "b"): family}), "a", "b", grid)
    x = point(F(-7, 5), F(-2, 35))
    assert x in scan.points
    assert reference_escape_witness(x.form, list(family.members(limit=1)), family, grid)
    assert oracle._has_escape_witness(x.form, scan.members, grid)


@pytest.mark.parametrize("box, step", [
    (((-1, 1), (-1, 1)), F(1, 2)),
    (((-1, F(9, 10)), (-1, F(7, 8))), F(1, 4)),
    (((F(-1, 3), F(5, 4)), (F(-7, 5), F(1, 2))), F(2, 7)),
    (((-1, 1), (F(-1, 2), F(3, 4)), (0, F(5, 6))), F(1, 3)),
])
def test_index_flags_match_boundary_flagged(box, step):
    grid = GridSpec(box, step)
    origin = point(*[0] * grid.dimension)
    model = mb.Model(grid.dimension, ("a", "b"), {("a", "b"): FiniteFamily((origin,))})
    scan = oracle_choice_points(model, "a", "b", grid)
    points = grid.points()
    assert scan.is_flagged == tuple(boundary_flagged(grid, x) for x in points)
    assert scan.flagged == frozenset(x for x in points if boundary_flagged(grid, x))
    assert any(scan.is_flagged) and not all(scan.is_flagged)


# ---------------------------------------------------------------------------
# Column scans against the linear and quadratic scans
# ---------------------------------------------------------------------------


def _assert_scans_match_reference(model, grid):
    labels = model.scenario_list()
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            scan = oracle_choice_points(model, a, b, grid)
            where = (type(model.family(a, b)).__name__, a, b, grid.box, grid.step)
            kept = reference_oracle_overlap(model, a, b, grid)
            assert scan.overlap.points == kept, where
            # the dominance sweep on its own: escape witnesses hide some of its errors
            maximal = reference_oracle_maximal(kept)
            points = grid.points()
            tops = oracle._maximal([x in kept for x in points], grid)
            assert [x for x, top in zip(points, tops) if top] == maximal, where
            assert scan.candidates == reference_oracle_candidates(model, a, b, grid, maximal), where


def test_column_scans_match_linear_scans_on_demo_models():
    half = (F(-1, 2), F(1, 2))
    boxes = [(half, half), ((F(-2, 3), F(1, 2)), (F(-1, 2), F(5, 8)))]
    for name in ("harmonic", "integer_row", "two_scenarios", "triangle_violation"):
        model = modelfile.loads((MODELS / f"{name}.mbs").read_text(encoding="utf-8"))
        for step in (F(1, 4), F(1, 8), F(1, 16), F(1, 32), F(1, 3)):
            for box in boxes:
                _assert_scans_match_reference(model, GridSpec(box, step, truncate=200))


def test_column_scans_match_linear_scans_on_random_models():
    rng = random.Random(17)
    for _ in range(12):
        model = mb.random_model(rng)
        for step in (F(1, 4), F(1, 3)):
            _assert_scans_match_reference(model, GridSpec(((-2, 2), (F(-5, 2), 2)), step))


def test_column_scans_match_linear_scans_on_mutants():
    for family in (HarmonicSkippingLargest(point(0, 0)), IntegerRowDroppingLightlike(0),
                   FiniteSkippingFirst((point(0, -1), point(0, 1)))):
        model = mb.Model(2, ("a", "b"), {("a", "b"): family})
        _assert_scans_match_reference(model, GridSpec(((-2, 2), (-2, 2)), F(1, 4)))


def test_column_scans_match_linear_scans_on_awkward_members():
    # members on grid points, causally related members, and members below
    # (one past a corner), above and beside the box; the scans take any member set
    model = mb.Model(2, ("a", "b"), {("a", "b"): FiniteFamily((
        point(0, 0), point(F(1, 2), F(1, 4)), point(F(1, 2), F(1, 2)),
        point(F(1, 3), F(-1, 5)), point(F(-1, 4), F(-3, 4)), point(F(3, 4), F(-1, 4)),
        point(-2, F(-12, 5)), point(-3, F(7, 3)), point(5, 0), point(F(1, 2), 7), point(0, -4),
        point(F(-7, 8), F(17, 8)),
    ))})
    for box in (((-1, 1), (-1, 1)), ((F(-1, 3), F(5, 4)), (F(-7, 5), F(1, 2)))):
        for step in (F(1, 4), F(1, 3), F(1, 8), F(2, 7)):
            assert _assert_scans_match_reference_somewhere(model, GridSpec(box, step)), (box, step)


def _assert_scans_match_reference_somewhere(model, grid):
    """Run `_assert_scans_match_reference`; is the scanned overlap neither empty nor full?"""
    kept = oracle_overlap(model, "a", "b", grid).kept
    _assert_scans_match_reference(model, grid)
    return any(kept) and not all(kept)


@pytest.mark.parametrize("members, boxes, steps", [
    ([point(0, 0, 0), point(F(1, 4), 0, 0), point(F(1, 2), F(1, 4), F(1, 4)),
      point(F(1, 3), F(-1, 5), F(1, 2)), point(F(1, 2), -1, -1), point(-1, 1, -1),
      point(F(-5, 4), 2, 2), point(0, F(3, 2), 0), point(F(3, 2), 0, 0)],
     [((-1, 1),) * 3, ((F(-1, 3), F(5, 4)), (F(-7, 5), F(1, 2)), (0, F(5, 6)))],
     (F(1, 4), F(1, 3), F(2, 7))),
    ([point(0, 0, 0, 0), point(F(1, 4), 0, 0, 0), point(F(1, 2), F(1, 4), 0, F(1, 4)),
      point(F(1, 3), F(-1, 5), F(1, 2), 0), point(F(-1, 2), F(1, 2), F(-1, 2), F(1, 2)),
      point(F(-3, 4), 1, 1, 0), point(0, F(3, 4), 0, 0), point(1, 0, 0, 0)],
     [((F(-1, 2), F(1, 2)),) * 4], (F(1, 4), F(1, 3))),
], ids=["3d", "4d"])
def test_column_scans_match_linear_scans_on_awkward_members_above_two_dimensions(
        members, boxes, steps):
    # members on grid points, causally related members, and members below
    # (one past a corner), above and beside the box
    model = mb.Model(members[0].dimension, ("a", "b"), {("a", "b"): FiniteFamily(tuple(members))})
    for box in boxes:
        for step in steps:
            assert _assert_scans_match_reference_somewhere(model, GridSpec(box, step)), (box, step)


@pytest.mark.parametrize("dimension, box", [
    (3, ((-1, 1), (-1, 1), (F(-1, 2), 1))),
    (4, ((F(-1, 2), F(1, 2)),) * 4),
])
def test_column_scans_match_linear_scans_on_random_members_above_two_dimensions(dimension, box):
    rng = random.Random(20070611 + dimension)
    telling = 0
    for step in (F(1, 2), F(1, 3), F(1, 4), F(2, 7)):
        grid_points = GridSpec(box, step).points()
        for _ in range(3):
            members, size = set(), rng.randint(1, 5)
            while len(members) < size:
                if rng.random() < 0.3:             # a grid point
                    members.add(rng.choice(grid_points))
                else:                              # anywhere near the box, denominators 1 to 8
                    q = rng.randint(1, 8)
                    members.add(Point(tuple(F(rng.randint(-2 * q, 2 * q), q)
                                            for _ in range(dimension))))
            family = FiniteFamily(tuple(sorted(members, key=lambda m: m.coords)))
            model = mb.Model(dimension, ("a", "b"), {("a", "b"): family})
            telling += _assert_scans_match_reference_somewhere(model, GridSpec(box, step))
    assert telling >= 6


def test_scans_make_no_pairwise_order_test(monkeypatch, harmonic_model):
    # escape witnesses still call `separation`, so the scans are called on their own
    calls = []
    original = oracle.separation

    def counting(m, x):
        calls.append(None)
        return original(m, x)

    monkeypatch.setattr(oracle, "separation", counting)
    half = (F(-1, 2), F(1, 2))
    members = (point(0, 0, 0), point(F(1, 4), F(1, 8), F(-1, 3)))
    cases = [(harmonic_model, "u", "v", GridSpec((half, half), F(1, 8)))] + [
        (mb.Model(d, ("a", "b"), {("a", "b"): FiniteFamily(tuple(
            Point(m.coords + (F(1, 5),) * (d - 3)) for m in members))}),
         "a", "b", GridSpec((half,) * d, F(1, 4)))
        for d in (3, 4)]
    for model, a, b, grid in cases:
        scan = oracle_overlap(model, a, b, grid)
        assert any(scan.kept) and not all(scan.kept)
        assert any(oracle._maximal(scan.kept, grid))
        assert calls == [], grid.dimension


# ---------------------------------------------------------------------------
# The grid bound per column, and the planar kernel by nearest member
# ---------------------------------------------------------------------------


def _random_row_grids(rng, count):
    """Seeded (family, grid) pairs: integer rows and harmonic pairs, with boxes
    that start below, at or above the row's time and steps that need not
    divide the box."""
    for i in range(count):
        t0, x0 = random_rational(rng, -2, 2, 8), random_rational(rng, -2, 2, 8)
        family = HarmonicPair(point(t0, x0)) if i % 2 else IntegerRow(t0)
        step = F(rng.randint(1, 3), rng.randint(2, 12))
        box = tuple((lo, lo + random_rational(rng, 0, 1, 8))
                    for lo in (t0 + random_rational(rng, -1, 1, 8),
                               x0 + random_rational(rng, -1, 1, 8)))
        yield family, GridSpec(box, step, truncate=1)


def test_grid_bound_is_the_all_points_maximum():
    # the scan takes the grid's largest `members_needed` from a few rows per
    # column; the adequacy note shows it, so it must be the all-points maximum
    rng = random.Random(20070613)
    positive = {IntegerRow: 0, HarmonicPair: 0}
    for family, grid in _random_row_grids(rng, 3000):
        expected = max(family.members_needed(x.form) for x in grid.points())
        scan = oracle_overlap(mb.Model(2, ("a", "b"), {("a", "b"): family}), "a", "b", grid)
        assert scan.note == f"member indices up to {expected} reachable, cap 1", (family, grid)
        positive[type(family)] += expected > 0
    assert min(positive.values()) >= 500, positive


def test_planar_kernel_matches_a_linear_scan_on_awkward_member_forms():
    # several member times, one time under several denominators, forms that
    # are not lcm forms (any common denominator serves), members on column
    # positions, and members beside the box
    rng = random.Random(20070614)
    telling = 0
    for _ in range(300):
        step = F(rng.randint(1, 3), rng.randint(1, 8))
        box = tuple((random_rational(rng, -1, 0, 6), random_rational(rng, 1, 2, 6))
                    for _ in range(2))
        grid = GridSpec(box, step)
        columns = grid.axis_values(1)
        times = [random_rational(rng, -2, 2, 6) for _ in range(rng.randint(1, 3))]
        forms = []
        for _ in range(rng.randint(1, 8)):
            x = rng.choice(columns) if rng.random() < 0.3 else random_rational(rng, -3, 4, 9)
            dm, nums = point(rng.choice(times), x).form
            k = rng.choice((1, 1, 2, 3))
            forms.append((dm * k, tuple(n * k for n in nums)))
        kept = oracle._kept(forms, grid)
        assert kept == [not any(integer_lt(m, x.form) for m in forms) for x in grid.points()], \
            (forms, box, step)
        telling += any(kept) and not all(kept)
    assert telling >= 150, telling


def test_column_scans_match_linear_scans_on_the_fine_harmonic_grid(harmonic_model):
    # at step 1/64 members of index up to 64 reach the grid, 128 on one slice
    half = (F(-1, 2), F(1, 2))
    grid = GridSpec((half, half), F(1, 64), truncate=64)
    assert oracle_overlap(harmonic_model, "u", "v", grid).adequate
    _assert_scans_match_reference(harmonic_model, grid)


def test_cross_check_looks_each_family_up_per_pair_not_per_point(monkeypatch, harmonic_model):
    calls = []
    original = type(harmonic_model).family

    def counting(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(type(harmonic_model), "family", counting)
    half = (F(-1, 2), F(1, 2))
    for step in (F(1, 4), F(1, 16)):
        calls.clear()
        assert oracle_cross_check(harmonic_model, GridSpec((half, half), step),
                                  order_samples=0).passed
        assert len(calls) == 2, (step, calls)


def test_cross_check_on_a_grid_of_another_dimension_raises_as_before(harmonic_model):
    grid = GridSpec(((-1, 1),) * 3, F(1, 2))
    with pytest.raises(DimensionMismatch, match="^family members do not have the grid's dimension 3$"):
        oracle_cross_check(harmonic_model, grid)
    # an empty family has no dimension, so the model's is checked; with no
    # order samples, no `events.leq` call checks it instead
    empty = mb.Model(2, ("a", "b"), {("a", "b"): FiniteFamily(())})
    with pytest.raises(DimensionMismatch, match="^point has dimension 3, model has 2$"):
        oracle_cross_check(empty, grid, order_samples=0)
