"""Splitting families: the sets of points at which two scenarios diverge.

A splitting family is a pairwise space-like set of points.  Four kinds are
supported, each with closed-form membership and cone queries so that the
infinite kinds never need enumeration to answer a question:

* FiniteFamily    - an explicit finite set, any dimension
* IntegerRow      - {(t0, n) : n = 0, 1, 2, ...} in two dimensions
* HarmonicPair    - {center +- (0, 1/n) : n >= 1} in two dimensions
* DifferenceRow   - {(0, j) : j in zeros_a symmetric-difference zeros_b},
                    the positions where two binary sequences (encoded by
                    their finite zero sets) disagree

Every closed form is obligated to agree with brute-force enumeration over
truncated member lists; the oracle module cross-checks that.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import DimensionMismatch
from .minkowski import IntegerForm, Point, format_rational, from_form, leq, lt, rational


def _check_planar(x: Point) -> None:
    if x.dimension != 2:
        raise DimensionMismatch("this family kind lives in two dimensions")


def zero_position(k) -> int:
    """k itself, when it is a valid zero position: a nonnegative int, not a bool."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError(f"zero positions must be nonnegative integers, got {k!r}")
    return k


def _format_point(p: Point) -> list[str]:
    return [format_rational(c) for c in p.coords]


def _unit_fraction_in(lo: int, hi: int, d: int) -> int | None:
    """The smallest integer n >= 1 with lo/d <= 1/n <= hi/d, for d > 0, or None."""
    if hi <= 0:
        return None
    n = -(-d // hi)
    return n if lo * n <= d else None


class SplittingFamily:
    """The protocol every family kind follows.

    A kind writes `contains`, `file_data` and, where it has a closed form,
    `first_strictly_below`; the other cone queries are derived here, once.
    A finite kind writes `members`.  An infinite kind writes `first_index`
    and `index_members`, from which `members` yields, `members_needed` and,
    where that bound can grow as a point descends, `members_needed_floor`.
    """

    is_finite: bool
    slr_by_construction: bool
    #: An infinite kind's least member index.
    first_index: int

    def members(self, limit: int | None = None) -> Iterator[Point]:
        """The members in index order: all of a finite kind's, an infinite kind's up to `limit`.

        `IntegerRow` index n is the one point (t0, n), for n >= 0, and
        `HarmonicPair` index n the two points center +- (0, 1/n), for n >= 1.
        """
        if limit is None:
            raise ValueError(f"{type(self).__name__} is infinite; enumeration needs a limit")
        for n in range(self.first_index, limit + 1):
            yield from self.index_members(n)

    def member_count(self, limit: int) -> int:
        """How many points `members(limit)` yields; a finite kind keeps them in `points`."""
        return len(self.points)

    def index_members(self, n: int) -> tuple[Point, ...]:
        """The points of member index n; none for a finite kind, which is read whole."""
        return ()

    def contains(self, x: Point) -> bool:
        raise NotImplementedError

    def file_data(self) -> dict:
        """The kind's "data" object in a model file."""
        raise NotImplementedError

    def members_needed(self, x: IntegerForm) -> int:
        """A member index such that, if any member lies strictly below x, one of
        index at most this bound does; later members may too.

        Zero for the finite kinds, which are enumerated whole.  An infinite
        kind reads only its parameters, never a closed-form query, with exact
        integer arithmetic on x's integer form (D, nums).
        """
        return 0

    def members_needed_floor(self, x: IntegerForm, y: IntegerForm) -> int:
        """A lower bound on `members_needed` at every x + (e, 0), 0 < e <= y0 - x0; zero here."""
        return 0

    def first_strictly_below(self, x: Point) -> Point | None:
        """The first member strictly below x, by a linear member scan."""
        for m in self.members():
            if lt(m, x):
                return m
        return None

    def any_strictly_below(self, x: Point) -> bool:
        return self.first_strictly_below(x) is not None

    def any_weakly_below(self, x: Point) -> bool:
        # The strict query runs first, so that a point of the wrong dimension
        # raises DimensionMismatch instead of reading as a non-member.
        return self.any_strictly_below(x) or self.contains(x)

    def accumulation_points(self) -> tuple[Point, ...]:
        return ()


@dataclass(frozen=True)
class FiniteFamily(SplittingFamily):
    """An explicit finite splitting set (deduplicated, kept in sorted order)."""

    points: tuple[Point, ...]

    def __post_init__(self):
        coerced = tuple(p if isinstance(p, Point) else Point(tuple(p))
                        for p in self.points)
        pts = tuple(sorted(set(coerced), key=lambda p: p.coords))
        if pts:
            d = pts[0].dimension
            for p in pts:
                if p.dimension != d:
                    raise ValueError("family members must share one dimension")
        object.__setattr__(self, "points", pts)

    is_finite = True
    slr_by_construction = False

    @property
    def dimension(self) -> int | None:
        return self.points[0].dimension if self.points else None

    def members(self, limit: int | None = None) -> Iterator[Point]:
        return iter(self.points)

    def contains(self, x: Point) -> bool:
        return x in self.points

    def file_data(self) -> dict:
        return {"points": [_format_point(p) for p in self.points]}

    def slr_violation(self) -> tuple[Point, Point] | None:
        """First ordered member pair, if the set is not pairwise space-like."""
        for i, a in enumerate(self.points):
            for b in self.points[i + 1:]:
                if leq(a, b) or leq(b, a):
                    return (a, b)
        return None


@dataclass(frozen=True)
class IntegerRow(SplittingFamily):
    """All points (t0, n) for natural n, on one simultaneity slice of the plane."""

    t0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t0", rational(self.t0))

    is_finite = False
    slr_by_construction = True
    dimension = 2

    first_index = 0

    def index_members(self, n: int) -> tuple[Point, ...]:
        d, t = self.t0.denominator, self.t0.numerator
        return (from_form(d, (t, n * d)),)

    def member_count(self, limit: int) -> int:
        return limit + 1

    def contains(self, x: Point) -> bool:
        # x0 = t0 and x1 a natural number
        d, nums = x.form
        return (len(nums) == 2 and nums[0] * self.t0.denominator == self.t0.numerator * d
                and nums[1] >= 0 and nums[1] % d == 0)

    def file_data(self) -> dict:
        return {"t0": format_rational(self.t0)}

    def members_needed(self, x: IntegerForm) -> int:
        # (t0, n) < x needs dt > 0 and n <= x1 + dt.
        d, (t, u, *_) = x
        q, p = self.t0.denominator, self.t0.numerator
        dt = t * q - p * d                      # (x0 - t0) * D * q
        return max(0, (u * q + dt) // (d * q)) if dt > 0 else 0

    def first_strictly_below(self, x: Point) -> Point | None:
        _check_planar(x)
        d, (t, u) = x.form
        q, p = self.t0.denominator, self.t0.numerator
        dt = t * q - p * d                      # (x0 - t0) * D * q
        if dt <= 0:
            # On the slice itself only the member equal to x is weakly below.
            return None
        # Integers n >= 0 with (t0, n) below x: |x1 - n| <= x0 - t0.
        u, dq = u * q, d * q
        n = max(0, -((dt - u) // dq))
        return from_form(q, (p, n * q)) if n * dq <= u + dt else None


@dataclass(frozen=True)
class HarmonicPair(SplittingFamily):
    """Two rows of points center +- (0, 1/n), accumulating at the center.

    The center itself is not a member, but it is a limit of members on both
    sides, which is what makes it an emergent (non-generated) choice point.
    """

    center: Point

    def __post_init__(self):
        if self.center.dimension != 2:
            raise ValueError("HarmonicPair lives in two dimensions")

    is_finite = False
    slr_by_construction = True
    dimension = 2

    first_index = 1

    def index_members(self, n: int) -> tuple[Point, ...]:
        # center +- (0, 1/n) over the denominator d * n, d the center's own
        d, (t, x) = self.center.form
        return from_form(d * n, (t * n, x * n + d)), from_form(d * n, (t * n, x * n - d))

    def member_count(self, limit: int) -> int:
        return 2 * limit

    def contains(self, x: Point) -> bool:
        # x0 = c0 and |x1 - c1| = 1/n: du = |x1 - c1| * D * Dc divides D * Dc
        d, nums = x.form
        dc, (c0, c1) = self.center.form
        if len(nums) != 2 or nums[0] * dc != c0 * d:
            return False
        du = abs(nums[1] * dc - c1 * d)
        return du > 0 and d * dc % du == 0

    def file_data(self) -> dict:
        return {"center": _format_point(self.center)}

    def members_needed(self, x: IntegerForm) -> int:
        # center +- (0, 1/n) < x needs dt > 0 and 1/n <= dt +- u; the first
        # such n is the ceiling of 1/(dt +- u).
        d, (t, u, *_) = x
        dc, (c0, c1) = self.center.form
        dt = t * dc - c0 * d                    # (x0 - c0) * D * Dc
        if dt <= 0:
            return 0
        du = u * dc - c1 * d
        return max((-(-d * dc // v) for v in (dt + du, dt - du) if v > 0), default=0)

    def members_needed_floor(self, x: IntegerForm, y: IntegerForm) -> int:
        # With a = x0 - c0 >= 0 and b = x1 - c1, a term of `members_needed(y)`
        # whose limit a +- b is >= 0 stays positive on (x, y] and only grows as
        # y descends; the other terms, and all of them when a < 0, may vanish.
        dx, (xt, xu, *_) = x
        d, (t, u, *_) = y
        dc, (c0, c1) = self.center.form
        a, b = xt * dc - c0 * dx, xu * dc - c1 * dx       # scaled by Dx * Dc
        dt, du = t * dc - c0 * d, u * dc - c1 * d
        return max((-(-d * dc // v) for v, limit in ((dt + du, a + b), (dt - du, a - b))
                    if a >= 0 and limit >= 0), default=0)

    def first_strictly_below(self, x: Point) -> Point | None:
        # center + sign * (0, 1/n) < x needs dt > 0 and |u - sign/n| <= dt,
        # that is sign*u - dt <= 1/n <= sign*u + dt, over the denominator D * Dc.
        _check_planar(x)
        d, (t, u) = x.form
        dc, (c0, c1) = self.center.form
        dt = t * dc - c0 * d
        if dt <= 0:
            return None
        du = u * dc - c1 * d
        for sign in (1, -1):
            n = _unit_fraction_in(sign * du - dt, sign * du + dt, d * dc)
            if n is not None:
                return from_form(dc * n, (c0 * n, c1 * n + sign * dc))
        return None

    def accumulation_points(self) -> tuple[Point, ...]:
        return (self.center,)


@dataclass(frozen=True)
class DifferenceRow(SplittingFamily):
    """Splitting points of two binary sequences: (0, j) where their bits differ.

    A sequence is encoded by its finite set of zero positions, so the
    difference positions are the symmetric difference of the two sets,
    which is always finite.
    """

    zeros_a: frozenset[int]
    zeros_b: frozenset[int]
    positions: tuple[int, ...] = field(init=False)
    points: tuple[Point, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        za = frozenset(map(zero_position, self.zeros_a))
        zb = frozenset(map(zero_position, self.zeros_b))
        positions = tuple(sorted(za ^ zb))
        object.__setattr__(self, "zeros_a", za)
        object.__setattr__(self, "zeros_b", zb)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "points", tuple(from_form(1, (0, j)) for j in positions))

    is_finite = True
    slr_by_construction = True
    dimension = 2

    def members(self, limit: int | None = None) -> Iterator[Point]:
        return iter(self.points)

    def contains(self, x: Point) -> bool:
        # x = (0, j), an integer point, has the form (1, (0, j))
        d, nums = x.form
        return len(nums) == 2 and d == 1 and nums[0] == 0 and nums[1] in self.positions

    def first_strictly_below(self, x: Point) -> Point | None:
        # (0, j) < x exactly when x0 > 0 and |x1 - j| <= x0: the first
        # position j >= ceil(x1 - x0), if it is at most x1 + x0.
        _check_planar(x)
        d, (t, u) = x.form
        if t <= 0:
            return None
        i = bisect_left(self.positions, -((t - u) // d))
        if i < len(self.positions) and self.positions[i] * d <= u + t:
            return self.points[i]
        return None

    def file_data(self) -> dict:
        return {"zeros_a": sorted(self.zeros_a), "zeros_b": sorted(self.zeros_b)}


KIND_NAMES = {
    FiniteFamily: "finite",
    IntegerRow: "integer_row",
    HarmonicPair: "harmonic_pair",
    DifferenceRow: "difference_row",
}


def family_kind(family: SplittingFamily) -> str:
    return KIND_NAMES[type(family)]


def is_empty(family: SplittingFamily) -> bool:
    """Has the family no member at all?  (Infinite kinds never are empty.)"""
    return next(family.members(limit=1), None) is None
