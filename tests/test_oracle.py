from dataclasses import dataclass
from fractions import Fraction as F

import pytest

import minkbranch as mb
from minkbranch import oracle
from minkbranch.errors import GridBudgetExceeded
from minkbranch.families import FiniteFamily, HarmonicPair, IntegerRow
from minkbranch.minkowski import Point, lt, point
from minkbranch.oracle import (
    GridSpec,
    boundary_flagged,
    oracle_choice_points,
    oracle_cross_check,
    oracle_overlap,
)

from conftest import build_random_battery


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
    assert oracle.member_list(row, truncate=4)[-1] == point(0, 4)


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
