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
from math import ceil, floor
from typing import Iterator

from .errors import DimensionMismatch
from .minkowski import IntegerForm, Point, format_rational, leq, lt, point, rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _unit_fraction_in(lo: Fraction, hi: Fraction) -> int | None:
    """Some integer n >= 1 with lo <= 1/n <= hi, or None.

    Returns the smallest such n (the largest qualifying unit fraction).
    """
    if hi <= 0:
        return None
    n = 1 if hi >= 1 else ceil(_ONE / hi)
    if lo <= 0 or Fraction(1, n) >= lo:
        return n
    return None


class SplittingFamily:
    """The protocol every family kind follows.

    A kind writes `contains`, `members`, `file_data` and, where it has a
    closed form, `first_strictly_below`; the other cone queries are derived
    here, once.  An infinite kind also writes `members_needed`.
    """

    is_finite: bool
    slr_by_construction: bool

    def members(self, limit: int | None = None) -> Iterator[Point]:
        """The members in a fixed order; infinite kinds need `limit`."""
        raise NotImplementedError

    def contains(self, x: Point) -> bool:
        raise NotImplementedError

    def file_data(self) -> dict:
        """The kind's "data" object in a model file."""
        raise NotImplementedError

    def members_needed(self, x: IntegerForm) -> int:
        """A member index past which no member lies strictly below x.

        Zero for the finite kinds, which are enumerated whole.  An infinite
        kind reads only its parameters, never a closed-form query, with exact
        integer arithmetic on x's integer form (D, nums).
        """
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

    def members(self, limit: int | None = None) -> Iterator[Point]:
        if limit is None:
            raise ValueError("IntegerRow is infinite; enumeration needs a limit")
        for n in range(limit + 1):
            yield point(self.t0, n)

    def contains(self, x: Point) -> bool:
        if x.dimension != 2 or x.coords[0] != self.t0:
            return False
        u = x.coords[1]
        return u.denominator == 1 and u >= 0

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
        dt = x.coords[0] - self.t0
        if dt <= 0:
            # On the slice itself only the member equal to x is weakly below.
            return None
        # Integers n >= 0 with (t0, n) below x: |x1 - n| <= x0 - t0.
        u = x.coords[1]
        n_lo = max(0, ceil(u - dt))
        return point(self.t0, n_lo) if n_lo <= floor(u + dt) else None


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

    def members(self, limit: int | None = None) -> Iterator[Point]:
        if limit is None:
            raise ValueError("HarmonicPair is infinite; enumeration needs a limit")
        c0, c1 = self.center.coords
        for n in range(1, limit + 1):
            step = Fraction(1, n)
            yield point(c0, c1 + step)
            yield point(c0, c1 - step)

    def contains(self, x: Point) -> bool:
        if x.dimension != 2 or x.coords[0] != self.center.coords[0]:
            return False
        u = x.coords[1] - self.center.coords[1]
        if u == 0:
            return False
        inv = _ONE / abs(u)
        return inv.denominator == 1

    def file_data(self) -> dict:
        return {"center": _format_point(self.center)}

    def members_needed(self, x: IntegerForm) -> int:
        # center +- (0, 1/n) < x needs dt > 0 and 1/n <= dt +- u; the first
        # such n is the ceiling of 1/(dt +- u).
        d, (t, u, *_) = x
        c0, c1 = self.center.coords
        q = c0.denominator * c1.denominator
        dt = t * q - c0.numerator * c1.denominator * d      # (x0 - c0) * D * q
        if dt <= 0:
            return 0
        du = u * q - c1.numerator * c0.denominator * d
        return max((-(-d * q // v) for v in (dt + du, dt - du) if v > 0), default=0)

    def first_strictly_below(self, x: Point) -> Point | None:
        _check_planar(x)
        c0, c1 = self.center.coords
        dt = x.coords[0] - c0
        if dt <= 0:
            return None
        u = x.coords[1] - c1
        n = _unit_fraction_in(u - dt, u + dt)
        if n is not None:
            return point(c0, c1 + Fraction(1, n))
        n = _unit_fraction_in(-u - dt, -u + dt)
        if n is not None:
            return point(c0, c1 - Fraction(1, n))
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
        object.__setattr__(self, "points", tuple(point(self.row_time, j) for j in positions))

    is_finite = True
    slr_by_construction = True
    dimension = 2
    row_time = _ZERO

    def members(self, limit: int | None = None) -> Iterator[Point]:
        return iter(self.points)

    def contains(self, x: Point) -> bool:
        if x.dimension != 2 or x.coords[0] != self.row_time:
            return False
        u = x.coords[1]
        return u.denominator == 1 and u.numerator in self.positions

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
