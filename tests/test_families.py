import random
from fractions import Fraction as F

import pytest

from minkbranch import minkowski
from minkbranch.errors import DimensionMismatch
from minkbranch.families import (
    DifferenceRow,
    FiniteFamily,
    HarmonicPair,
    IntegerRow,
    SplittingFamily,
    family_kind,
    is_empty,
)
from minkbranch.minkowski import leq, lt, point
from minkbranch.model import Model


def brute_any_strictly_below(family, x, limit):
    return any(lt(m, x) for m in family.members(limit=limit))


def lattice(lo, hi, step):
    values = []
    v = lo
    while v <= hi:
        values.append(v)
        v += step
    return values


def plane_lattice(lo, hi, step):
    axis = lattice(F(lo), F(hi), F(step))
    return [point(t, x) for t in axis for x in axis]


# ---------------------------------------------------------------------------
# FiniteFamily
# ---------------------------------------------------------------------------


def test_finite_family_sorts_and_dedupes():
    fam = FiniteFamily((point(0, 1), point(0, 0), point(0, 1)))
    assert [p.coords for p in fam.members()] == [(0, 0), (0, 1)]
    assert fam.is_finite and fam.dimension == 2
    assert fam.accumulation_points() == ()


def test_finite_family_coerces_raw_tuples():
    fam = FiniteFamily(((0, 0), ("1/2", 1)))
    assert fam.contains(point(F(1, 2), 1))


def test_finite_family_queries():
    fam = FiniteFamily((point(0, -1), point(0, 1)))
    assert fam.contains(point(0, 1))
    assert not fam.contains(point(0, 0))
    assert fam.any_strictly_below(point(2, 0))
    assert not fam.any_strictly_below(point(0, 0))
    assert fam.any_weakly_below(point(0, 1))
    assert fam.first_strictly_below(point(2, 0)) == point(0, -1)
    assert fam.first_strictly_below(point(0, 0)) is None


def test_finite_family_slr_violation():
    ok = FiniteFamily((point(0, 0), point(0, 5)))
    assert ok.slr_violation() is None
    bad = FiniteFamily((point(0, 0), point(2, 1)))
    assert bad.slr_violation() == (point(0, 0), point(2, 1))


def test_finite_family_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        FiniteFamily((point(0, 0), point(0, 0, 0)))


# ---------------------------------------------------------------------------
# IntegerRow
# ---------------------------------------------------------------------------


def test_integer_row_members_and_contains():
    row = IntegerRow(0)
    assert [p.coords for p in row.members(limit=2)] == [(0, 0), (0, 1), (0, 2)]
    assert row.contains(point(0, 7))
    assert not row.contains(point(0, -1))
    assert not row.contains(point(0, F(1, 2)))
    assert not row.contains(point(1, 0))
    with pytest.raises(ValueError):
        list(row.members())


def test_integer_row_cone_examples():
    row = IntegerRow(0)
    assert row.any_strictly_below(point(F(3, 2), 0))
    assert row.first_strictly_below(point(F(3, 2), 0)) == point(0, 0)
    # below the row: nothing can be above a future point
    assert not row.any_strictly_below(point(-1, 0))
    # light cone reaches n = 0 exactly (lightlike counts)
    assert row.any_strictly_below(point(1, -1))
    # too far left: the cone misses every natural index
    assert not row.any_strictly_below(point(F(1, 2), -3))
    assert row.any_strictly_below(point(F(1, 2), 5))


def test_integer_row_matches_enumeration():
    row = IntegerRow(F(-1, 2))
    for x in plane_lattice(-2, 6, F(1, 2)):
        expected = brute_any_strictly_below(row, x, limit=20)
        assert row.any_strictly_below(x) == expected, x


def test_integer_row_first_is_least_index():
    row = IntegerRow(0)
    x = point(3, F(5, 2))
    first = row.first_strictly_below(x)
    assert first is not None and lt(first, x)
    n = first.coords[1]
    assert not any(
        lt(point(0, k), x) for k in range(int(n))
    )


def test_integer_row_rejects_other_dimensions():
    row = IntegerRow(0)
    with pytest.raises(DimensionMismatch):
        row.any_strictly_below(point(0, 0, 0))
    assert not row.contains(point(0, 0, 0))


# ---------------------------------------------------------------------------
# HarmonicPair
# ---------------------------------------------------------------------------


def test_harmonic_members_and_contains():
    fam = HarmonicPair(point(0, 0))
    members = [p.coords for p in fam.members(limit=3)]
    assert (F(0), F(1)) in members and (F(0), F(-1)) in members
    assert (F(0), F(1, 3)) in members and (F(0), F(-1, 3)) in members
    assert fam.contains(point(0, 1))
    assert fam.contains(point(0, F(1, 7)))
    assert fam.contains(point(0, F(-1, 12)))
    assert not fam.contains(point(0, F(2, 7)))
    assert not fam.contains(point(0, 0))
    assert fam.accumulation_points() == (point(0, 0),)


def test_harmonic_cone_examples():
    fam = HarmonicPair(point(0, 0))
    # the center is below no member, and no member is below the center
    assert not fam.any_strictly_below(point(0, 0))
    # but every point strictly above the center is above small members
    assert fam.any_strictly_below(point(F(1, 10), 0))
    assert fam.first_strictly_below(point(F(1, 10), 0)) == point(0, F(1, 10))
    assert fam.any_strictly_below(point(2, 0))


def test_harmonic_matches_enumeration():
    fam = HarmonicPair(point(F(1, 4), F(-1, 4)))
    for x in plane_lattice(-1, 1, F(1, 8)):
        expected = brute_any_strictly_below(fam, x, limit=64)
        assert fam.any_strictly_below(x) == expected, x


def test_harmonic_rejects_other_dimensions():
    fam = HarmonicPair(point(0, 0))
    with pytest.raises(DimensionMismatch):
        fam.any_strictly_below(point(0, 0, 0))


# ---------------------------------------------------------------------------
# DifferenceRow
# ---------------------------------------------------------------------------


def test_difference_row_positions():
    fam = DifferenceRow(frozenset({0, 1, 2}), frozenset({0}))
    assert fam.positions == (F(1), F(2))
    assert fam.contains(point(0, 1))
    assert not fam.contains(point(0, 0))
    assert fam.is_finite


def test_difference_row_equals_finite_family_queries():
    fam = DifferenceRow(frozenset({0, 3}), frozenset({1, 3, 5}))
    explicit = FiniteFamily(tuple(fam.members()))
    for x in plane_lattice(-2, 4, F(1, 2)):
        assert fam.any_strictly_below(x) == explicit.any_strictly_below(x)
        assert fam.any_weakly_below(x) == explicit.any_weakly_below(x)
        assert fam.contains(x) == explicit.contains(x)


def test_difference_row_builds_its_members_once():
    fam = DifferenceRow(frozenset({0, 3}), frozenset({1, 3, 5}))
    first, again = list(fam.members()), list(fam.members())
    assert first == [point(0, 0), point(0, 1), point(0, 5)]
    assert all(a is b for a, b in zip(first, again))
    assert fam == DifferenceRow(frozenset({0, 3}), frozenset({1, 3, 5}))


def test_difference_row_first_strictly_below_matches_member_scan():
    rng = random.Random(8)
    for _ in range(3000):
        fam = DifferenceRow(frozenset(rng.sample(range(12), rng.randint(0, 6))),
                            frozenset(rng.sample(range(12), rng.randint(0, 6))))
        q = rng.choice((1, 2, 3, 4, 7))
        x = point(F(rng.randint(-8, 30), q), F(rng.randint(-30, 60), q))
        # the linear scan that FiniteFamily keeps is the reference
        assert fam.first_strictly_below(x) == SplittingFamily.first_strictly_below(fam, x), (fam, x)
    for fam in (DifferenceRow(frozenset({1}), frozenset()), DifferenceRow(frozenset(), frozenset())):
        with pytest.raises(DimensionMismatch):
            fam.first_strictly_below(point(1, 0, 0))


@pytest.mark.parametrize("bad", [-1, True])
def test_difference_row_rejects_bad_positions(bad):
    with pytest.raises(ValueError, match="nonnegative integers"):
        DifferenceRow(frozenset({bad}), frozenset())
    with pytest.raises(ValueError, match="nonnegative integers"):
        DifferenceRow(frozenset({0}), frozenset({bad}))


def test_difference_row_identical_zero_sets_is_empty():
    fam = DifferenceRow(frozenset({1, 2}), frozenset({1, 2}))
    assert is_empty(fam)


# ---------------------------------------------------------------------------
# shared surface
# ---------------------------------------------------------------------------


def test_family_kind_names():
    assert family_kind(FiniteFamily(())) == "finite"
    assert family_kind(IntegerRow(0)) == "integer_row"
    assert family_kind(HarmonicPair(point(0, 0))) == "harmonic_pair"
    assert family_kind(DifferenceRow(frozenset(), frozenset({1}))) == "difference_row"


def test_weakly_below_is_strictly_or_member():
    families = [
        FiniteFamily((point(0, 0), point(0, 2))),
        IntegerRow(0),
        HarmonicPair(point(0, 0)),
        DifferenceRow(frozenset({0}), frozenset({2})),
    ]
    for fam in families:
        for x in plane_lattice(-1, 2, F(1, 4)):
            expected = fam.any_strictly_below(x) or fam.contains(x)
            assert fam.any_weakly_below(x) == expected, (fam, x)


def test_first_strictly_below_agrees_with_any():
    families = [
        FiniteFamily((point(0, 0), point(0, 2))),
        IntegerRow(F(1, 4)),
        HarmonicPair(point(0, 0)),
    ]
    for fam in families:
        for x in plane_lattice(-1, 2, F(1, 4)):
            first = fam.first_strictly_below(x)
            if fam.any_strictly_below(x):
                assert first is not None and lt(first, x)
                assert fam.contains(first)
            else:
                assert first is None


KIND_SAMPLES = [
    (FiniteFamily, ((point(0, 0),),)),
    (IntegerRow, (0,)),
    (HarmonicPair, (point(0, 0),)),
    (DifferenceRow, (frozenset({0}), frozenset())),
]


@pytest.mark.parametrize("cls, args", KIND_SAMPLES,
                         ids=[cls.__name__ for cls, _ in KIND_SAMPLES])
def test_cone_queries_derive_from_first_strictly_below(cls, args):
    class Blind(cls):
        def first_strictly_below(self, x):
            return None

    above = point(10, 0)
    assert cls(*args).any_strictly_below(above)
    blind = Blind(*args)
    assert not blind.any_strictly_below(above)
    assert not blind.any_weakly_below(above)
    assert Model(2, ("a", "b"), {("a", "b"): blind}).in_overlap("a", "b", above)


@pytest.mark.parametrize("family, empty", [
    (FiniteFamily(()), True),
    (FiniteFamily((point(0, 0),)), False),
    (IntegerRow(0), False),
    (HarmonicPair(point(0, 0)), False),
    (DifferenceRow(frozenset({1, 2}), frozenset({1, 2})), True),
    (DifferenceRow(frozenset({1}), frozenset()), False),
])
def test_is_empty_for_every_kind(family, empty):
    assert is_empty(family) == empty
