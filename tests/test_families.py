import random
from fractions import Fraction as F

import pytest

from minkbranch import families, minkowski
from minkbranch.errors import DimensionMismatch
from minkbranch.families import (
    DifferenceRow,
    FiniteFamily,
    HarmonicPair,
    IntegerRow,
    _SliceFamily,
    family_kind,
    is_empty,
)
from minkbranch.minkowski import leq, lt, point
from minkbranch.model import Model

from conftest import random_rational, reference_contains, reference_first_strictly_below


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


def test_harmonic_coerces_a_raw_centre():
    # as FiniteFamily coerces its points
    assert HarmonicPair((0, 0)) == HarmonicPair(point(0, 0))
    assert HarmonicPair(("1/2", -1)).center == point(F(1, 2), -1)
    with pytest.raises(ValueError, match="^HarmonicPair lives in two dimensions$"):
        HarmonicPair((0, 0, 0))


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
        assert fam.first_strictly_below(x) == reference_first_strictly_below(fam, x), (fam, x)
    for fam in (DifferenceRow(frozenset({1}), frozenset()), DifferenceRow(frozenset(), frozenset())):
        with pytest.raises(DimensionMismatch):
            fam.first_strictly_below(point(1, 0, 0))


def test_finite_first_strictly_below_matches_member_scan():
    # 2-D to 4-D families, members sharing times, probes that are members, lie on a
    # member's light cone, sit below every member or are random; the empty family too
    rng = random.Random(25)
    seen = {"member": 0, "lightlike": 0, "earliest": 0, "shared time": 0, "found": 0}
    for _ in range(3000):
        dim = rng.randint(2, 4)
        times = [F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 3))]
        fam = FiniteFamily(tuple(
            point(rng.choice(times), *(F(rng.randint(-6, 6), rng.choice((1, 2, 5)))
                                       for _ in range(dim - 1)))
            for _ in range(rng.randint(0, 6))))
        probe = "random"
        if fam.points:
            probe = rng.choice(("member", "lightlike", "earliest", "random"))
        if probe == "member":
            x = rng.choice(fam.points)
        elif probe == "lightlike":
            r = F(rng.randint(1, 6), rng.choice((1, 2, 7)))
            x = rng.choice(fam.points).translated((r, r * rng.choice((1, -1)), *[0] * (dim - 2)))
        elif probe == "earliest":
            x = point(fam.points[0].time - F(1, 3), *[0] * (dim - 1))
        else:
            x = point(*(F(rng.randint(-12, 12), rng.choice((1, 3, 4))) for _ in range(dim)))
        first = fam.first_strictly_below(x)
        reference = reference_first_strictly_below(fam, x)
        assert first == reference and (first is None or first is reference), (fam, x)
        seen[probe] = seen.get(probe, 0) + 1
        seen["found"] += first is not None
        seen["shared time"] += len({p.time for p in fam.points}) < len(fam.points)
    assert min(seen.values()) > 200, seen
    assert FiniteFamily(()).first_strictly_below(point(1, 0, 0, 0)) is None
    fam = FiniteFamily((point(0, 0, 0), point(1, 2, 3)))
    for x in (point(5, 0), point(-5, 0, 0, 0)):
        text = f"^points have dimensions 3 and {x.dimension}$"
        with pytest.raises(DimensionMismatch, match=text):
            fam.first_strictly_below(x)
        with pytest.raises(DimensionMismatch, match=text):
            reference_first_strictly_below(fam, x)


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
    # a planar kind derives them, as first_strictly_below, from its slice query
    blinded = "_first_below" if issubclass(cls, _SliceFamily) else "first_strictly_below"
    Blind = type("Blind", (cls,), {blinded: lambda self, x: None})
    above = point(10, 0)
    assert cls(*args).any_strictly_below(above)
    blind = Blind(*args)
    assert not blind.any_strictly_below(above)
    assert not blind.any_weakly_below(above)
    assert Model(2, ("a", "b"), {("a", "b"): blind}).in_overlap("a", "b", above)


@pytest.mark.parametrize("cls", [IntegerRow, HarmonicPair, DifferenceRow])
def test_planar_kinds_share_one_membership_and_cone_query(cls):
    for name in ("contains", "first_strictly_below"):
        assert name not in vars(cls)
        assert getattr(cls, name) is getattr(_SliceFamily, name)


@pytest.mark.parametrize("family, member", [
    (IntegerRow(F(1, 3)), point(F(1, 3), 4)),
    (HarmonicPair(point(F(1, 2), F(-2, 3))), point(F(1, 2), F(-2, 3) - F(1, 5))),
    (DifferenceRow(frozenset({1, 4}), frozenset({4})), point(0, 1)),
])
def test_contains_builds_no_point(monkeypatch, family, member):
    # membership and the boolean cone queries read the member's offset;
    # only first_strictly_below builds the member
    built = []
    original = families.from_form

    def counting(d, nums):
        built.append(nums)
        return original(d, nums)

    monkeypatch.setattr(families, "from_form", counting)
    assert family.contains(member)
    assert not family.contains(member.translated((0, F(1, 7))))
    above = member.translated((1, 0))
    assert family.any_strictly_below(above) and family.any_weakly_below(above)
    assert family.any_weakly_below(member)
    assert built == []
    assert family.first_strictly_below(above) is not None and len(built) == 1


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


def test_row_members_match_points_built_from_coordinates():
    # members are built from integer forms; they must be the same points,
    # with the same (lcm) forms, as points built from their coordinates
    for t0 in (0, F(-3, 4), F(5, 6)):
        members = list(IntegerRow(t0).members(limit=40))
        assert [m.coords for m in members] == [(t0, n) for n in range(41)]
        assert [m.form for m in members] == [point(t0, n).form for n in range(41)]
    for c in (point(0, 0), point(F(1, 6), F(-5, 4)), point(-2, F(7, 3))):
        members = list(HarmonicPair(c).members(limit=40))
        expected = [point(c.coords[0], c.coords[1] + sign * F(1, n))
                    for n in range(1, 41) for sign in (1, -1)]
        assert members == expected
        assert [m.form for m in members] == [p.form for p in expected]


@pytest.mark.parametrize("kind", ["integer_row", "harmonic_pair"])
def test_members_needed_bounds_the_first_member_below(kind):
    # the oracle reads member indices only up to `members_needed`: if any
    # member lies strictly below x, one of index at most that bound must
    rng = random.Random(29)
    prefix, below = 300, 0
    for _ in range(60):
        if kind == "integer_row":
            family = IntegerRow(random_rational(rng, -2, 2))
            base = (family.t0, F(0))
        else:
            family = HarmonicPair(point(random_rational(rng, -2, 2), random_rational(rng, -2, 2)))
            base = family.center.coords
        long = list(family.members(limit=prefix))
        assert len(long) == (prefix + 1 if kind == "integer_row" else 2 * prefix)
        for _ in range(25):
            x = point(base[0] + random_rational(rng, -1, 3, 8),
                      base[1] + random_rational(rng, -3, 12 if kind == "integer_row" else 3))
            needed = family.members_needed(x.form)
            assert 0 <= needed <= prefix, (family, x)
            bounded = list(family.members(limit=needed))
            assert long[:len(bounded)] == bounded
            if any(lt(m, x) for m in long):
                below += 1
                assert any(lt(m, x) for m in bounded), (family, x)
            if kind == "integer_row":
                # a row's bound holds every member below x, not only the first
                assert not any(lt(m, x) for m in long[len(bounded):]), (family, x)
    assert below >= 300


def test_members_needed_is_not_a_bound_on_every_member_below():
    # above the center every late enough harmonic member lies below x, so
    # the bound promises only one member below x, not all of them
    family = HarmonicPair(point(0, 0))
    x = point(1, 0)
    needed = family.members_needed(x.form)
    assert needed == 1
    assert all(lt(m, x) for m in family.members(limit=50))


def test_index_members_are_the_members_of_one_index():
    row, pair = IntegerRow(F(-3, 4)), HarmonicPair(point(F(1, 6), F(-5, 4)))
    assert list(row.members(limit=30)) == [m for n in range(31) for m in row.index_members(n)]
    assert list(pair.members(limit=30)) == [m for n in range(1, 31) for m in pair.index_members(n)]
    assert row.index_members(7) == (point(F(-3, 4), 7),)
    assert pair.index_members(3) == (point(F(1, 6), F(-11, 12)), point(F(1, 6), F(-19, 12)))
    for family in (FiniteFamily((point(0, 0),)), DifferenceRow(frozenset({1}), frozenset())):
        assert family.index_members(0) == family.index_members(5) == ()


def test_members_needed_floor_bounds_members_needed_below_y():
    # the oracle gives up on an escape witness once the floor at (x, y)
    # passes the cap, which is exact only if the floor is at most
    # `members_needed` at every x + (e, 0) with 0 < e <= y0 - x0
    rng = random.Random(31)
    positive = 0
    for _ in range(60):
        family = HarmonicPair(point(random_rational(rng, -2, 2), random_rational(rng, -2, 2)))
        c0, c1 = family.center.coords
        for _ in range(12):
            # on the center's time slice, above it, or below it; on either
            # light-cone edge of the center, or anywhere beside it
            a = rng.choice((F(0), random_rational(rng, 0, 2, 16), -random_rational(rng, 0, 2, 16)))
            b = rng.choice((a, -a, random_rational(rng, -2, 2, 16)))
            rise = random_rational(rng, 0, 2, 16) or F(1, 16)
            x, y = point(c0 + a, c1 + b), point(c0 + a + rise, c1 + b)
            floor = family.members_needed_floor(x.form, y.form)
            positive += floor > 0
            for e in (rise, rise / 1000, *(rise * F(rng.randint(1, 50), 50) for _ in range(6))):
                below = point(c0 + a + e, c1 + b)
                assert floor <= family.members_needed(below.form), (family, x, y, e)
    assert positive >= 150
    # at the center the floor is the bound at y itself
    center = HarmonicPair(point(0, 0))
    assert center.members_needed_floor(point(0, 0).form, point(F(1, 600), 0).form) == 600
    for family in (IntegerRow(0), FiniteFamily((point(0, 0),)),
                   DifferenceRow(frozenset({1}), frozenset())):
        assert family.members_needed_floor(point(0, 0).form, point(1, 0).form) == 0


def _planar_probes(rng, family):
    """Points that stress a planar kind's closed forms, each with its probe type.

    Members, points on the row's time slice, points on a member's lightlike
    edges and just off them, and offsets on both sides of the centre.
    """
    if isinstance(family, IntegerRow):
        t0, x0 = family.t0, F(0)
    elif isinstance(family, HarmonicPair):
        t0, x0 = family.center.coords
    else:
        t0, x0 = F(0), F(0)
    members = list(family.members(limit=12))
    for m in rng.sample(members, min(4, len(members))):
        yield "member", m
    for _ in range(4):
        yield "slice", point(t0, x0 + random_rational(rng, -4, 8, 16))
    for m in rng.sample(members, min(3, len(members))):
        d = random_rational(rng, 0, 3, 16) or F(1, 16)
        side = rng.choice((1, -1))
        for nudge in (0, F(1, 97), F(-1, 97)):
            yield "lightlike", point(m.coords[0] + d + nudge, m.coords[1] + side * d)
    for _ in range(4):
        dt, du = random_rational(rng, -1, 3, 16), random_rational(rng, 0, 3, 16)
        yield "offset", point(t0 + dt, x0 - du)
        yield "offset", point(t0 + dt, x0 + du)


def test_planar_closed_forms_match_fraction_references():
    # the closed forms run on integer forms; the references in conftest run
    # the same formulas on Fraction coordinates
    rng = random.Random(20070612)
    seen = {}
    for _ in range(150):
        kind = rng.randrange(3)
        if kind == 0:
            family = IntegerRow(random_rational(rng, -2, 2, 16))
        elif kind == 1:
            family = HarmonicPair(point(random_rational(rng, -2, 2, 16),
                                        random_rational(rng, -2, 2, 16)))
        else:
            family = DifferenceRow(frozenset(rng.sample(range(8), rng.randint(0, 5))),
                                   frozenset(rng.sample(range(8), rng.randint(0, 5))))
        for probe, x in _planar_probes(rng, family):
            member = family.contains(x)
            first = family.first_strictly_below(x)
            assert member == reference_contains(family, x), (family, x)
            assert first == reference_first_strictly_below(family, x), (family, x)
            assert first is None or first.form == reference_first_strictly_below(family, x).form
            key = (type(family).__name__, probe)
            hits = seen.setdefault(key, [0, 0])
            hits[0] += member
            hits[1] += first is not None
        off = point(0, 0, 0)
        assert not family.contains(off)
        assert not reference_contains(family, off)
        with pytest.raises(DimensionMismatch):
            family.first_strictly_below(off)
        with pytest.raises(DimensionMismatch):
            reference_first_strictly_below(family, off)
    for kind in ("IntegerRow", "HarmonicPair", "DifferenceRow"):
        assert seen[kind, "member"][0] > 20 and seen[kind, "lightlike"][1] > 20, kind
        assert seen[kind, "slice"][1] == 0 and seen[kind, "offset"][1] > 5, kind
