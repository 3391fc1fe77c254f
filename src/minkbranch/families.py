"""Splitting families: the sets of points at which two scenarios diverge.

A splitting family is a pairwise space-like set of points.  Four kinds are
supported.  The last three lie on one time slice of the plane each, and
each writes one closed-form primitive, its first member within an interval
of positions, from which `_SliceFamily` answers membership and the cone
query once for all three, so the infinite kinds never need enumeration:

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

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatch
# No kind reads `lt`; it stays importable, as perfbench's tracer test patches `families.lt`.
from .minkowski import IntegerForm, Point, _Value, format_rational, from_form, leq, lt, rational


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

    A kind writes `contains`, `file_data` and `first_strictly_below`; the
    other cone queries are derived here, once.  The planar kinds inherit
    the first and the last from `_SliceFamily` and write `_first_within`.
    A finite kind writes `members`.  An infinite kind writes `first_index`
    and `index_members`, from which `members` yields, `members_needed` and,
    where that bound can grow as a point descends, `members_needed_floor`;
    a reader may take a prefix through `members`, then one `index_members` at a time.
    """

    __slots__ = ()
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

    def _column_members_needed(self, d: int, times: Sequence[int], position: tuple) -> int:
        """The largest `members_needed` at the points (t, *position) / d, t in the
        ascending `times`, read on the rows where it provably peaks; zero here."""
        return 0

    def first_strictly_below(self, x: Point) -> Point | None:
        """The first member strictly below x, in the kind's own order, or None."""
        raise NotImplementedError

    def any_strictly_below(self, x: Point) -> bool:
        return self.first_strictly_below(x) is not None

    def any_weakly_below(self, x: Point) -> bool:
        # The strict query runs first, so that a point of the wrong dimension
        # raises DimensionMismatch instead of reading as a non-member.
        return self.any_strictly_below(x) or self.contains(x)

    def accumulation_points(self) -> tuple[Point, ...]:
        return ()


class FiniteFamily(_Value, SplittingFamily):
    """An explicit finite splitting set (deduplicated, kept in sorted order).

    `_forms`, not compared or shown, holds the members' integer forms over one
    common denominator, (D, nums per member), in `points` order: time first.
    """

    _fields = ("points",)
    __slots__ = _fields + ("_forms",)

    def __init__(self, points: tuple[Point, ...]):
        coerced = tuple(p if isinstance(p, Point) else Point(tuple(p)) for p in points)
        pts = tuple(sorted(set(coerced), key=lambda p: p.coords))
        if pts:
            d = pts[0].dimension
            for p in pts:
                if p.dimension != d:
                    raise ValueError("family members must share one dimension")
        den = lcm(*(p.form[0] for p in pts))
        self._store(points=pts, _forms=(den, tuple(
            tuple([n * (den // dp) for n in nums]) for dp, nums in (p.form for p in pts))))

    is_finite = True
    slr_by_construction = False

    @property
    def dimension(self) -> int | None:
        return self.points[0].dimension if self.points else None

    def members(self, limit: int | None = None) -> Iterator[Point]:
        return iter(self.points)

    def contains(self, x: Point) -> bool:
        return x in self.points

    def first_strictly_below(self, x: Point) -> Point | None:
        # m < x: dt = x0 - m0 > 0 and the squared spatial distance is at most
        # dt**2, both over D * Dx, as in `minkowski.separation`
        d, forms = self._forms
        dx, (x0, *xs) = x.form
        if forms and len(forms[0]) != len(xs) + 1:
            raise DimensionMismatch(f"points have dimensions {len(forms[0])} and {len(xs) + 1}")
        x0 *= d
        xs = [c * d for c in xs]
        for m, (m0, *ms) in zip(self.points, forms):
            dt = x0 - m0 * dx
            if dt <= 0:
                return None
            if sum([(c - n * dx) ** 2 for c, n in zip(xs, ms)]) <= dt * dt:
                return m
        return None

    def file_data(self) -> dict:
        return {"points": [_format_point(p) for p in self.points]}

    def slr_violation(self) -> tuple[Point, Point] | None:
        """First ordered member pair, if the set is not pairwise space-like."""
        for i, a in enumerate(self.points):
            for b in self.points[i + 1:]:
                if leq(a, b) or leq(b, a):
                    return (a, b)
        return None


class _SliceFamily(_Value, SplittingFamily):
    """A planar kind whose members lie on the time slice p/q, at positions (o + s)/q.

    A member at offset s from the origin o/q lies strictly below x exactly
    when dt = x0 - p/q > 0 and |x1 - o/q - s| <= dt.  A kind stores its
    slice and writes `_first_within`; membership and the cone queries are
    answered here from it, and only `first_strictly_below` builds the member.
    """

    __slots__ = ()
    slr_by_construction = True
    dimension = 2
    #: The slice as integers (q, p, o): time p/q, position origin o/q.
    _slice: tuple[int, int, int]

    def _offsets(self, x: IntegerForm) -> tuple[int, int, int]:
        """(D, dt, w): x0 - p/q and x1 - o/q, both over D = Dx * q."""
        d, nums = x
        q, p, o = self._slice
        return d * q, nums[0] * q - p * d, nums[1] * q - o * d

    def _first_within(self, lo: int, hi: int, d: int) -> tuple[int, int] | None:
        """(s, k) for the first member whose offset s/k from the origin lies
        in [lo/d, hi/d], or None."""
        raise NotImplementedError

    def contains(self, x: Point) -> bool:
        if len(x.form[1]) != 2:
            return False
        d, dt, w = self._offsets(x.form)
        return dt == 0 and self._first_within(w, w, d) is not None

    def _first_below(self, x: Point) -> tuple[int, int] | None:
        """`_first_within`'s (s, k) for the first member strictly below x, or None."""
        if len(x.form[1]) != 2:
            raise DimensionMismatch("this family kind lives in two dimensions")
        d, dt, w = self._offsets(x.form)
        # On the slice itself only the member equal to x is weakly below.
        return self._first_within(w - dt, w + dt, d) if dt > 0 else None

    def first_strictly_below(self, x: Point) -> Point | None:
        if (found := self._first_below(x)) is None:
            return None
        (s, k), (q, p, o) = found, self._slice
        return from_form(q * k, (p * k, o * k + s))

    def any_strictly_below(self, x: Point) -> bool:
        return self._first_below(x) is not None


class IntegerRow(_SliceFamily):
    """All points (t0, n) for natural n, on one simultaneity slice of the plane."""

    _fields = ("t0",)
    __slots__ = _fields + ("_slice",)

    def __init__(self, t0: Fraction):
        t0 = rational(t0)
        self._store(t0=t0, _slice=(t0.denominator, t0.numerator, 0))

    is_finite = False
    first_index = 0

    def index_members(self, n: int) -> tuple[Point, ...]:
        d, t = self.t0.denominator, self.t0.numerator
        return (from_form(d, (t, n * d)),)

    def _first_within(self, lo: int, hi: int, d: int) -> tuple[int, int] | None:
        # the least natural number n >= lo/d, if n <= hi/d
        n = max(0, -(-lo // d))
        return (n * self._slice[0], 1) if n * d <= hi else None

    def file_data(self) -> dict:
        return {"t0": format_rational(self.t0)}

    def members_needed(self, x: IntegerForm) -> int:
        # (t0, n) < x needs dt > 0 and n <= x1 + dt.
        d, dt, w = self._offsets(x)
        return max(0, (w + dt) // d) if dt > 0 else 0

    def _column_members_needed(self, d: int, times: Sequence[int], position: tuple) -> int:
        # x1 + dt never falls as x0 rises, so the top row holds the peak.
        return self.members_needed((d, (times[-1], *position)))


class HarmonicPair(_SliceFamily):
    """Two rows of points center +- (0, 1/n), accumulating at the center.

    The center itself is not a member, but it is a limit of members on both
    sides, which is what makes it an emergent (non-generated) choice point.
    """

    _fields = ("center",)
    __slots__ = _fields + ("_slice",)

    def __init__(self, center: Point):
        if not isinstance(center, Point):
            center = Point(tuple(center))
        if center.dimension != 2:
            raise ValueError("HarmonicPair lives in two dimensions")
        dc, (c0, c1) = center.form
        self._store(center=center, _slice=(dc, c0, c1))

    is_finite = False
    first_index = 1

    def index_members(self, n: int) -> tuple[Point, ...]:
        # center +- (0, 1/n) over the denominator d * n, d the center's own
        d, (t, x) = self.center.form
        return from_form(d * n, (t * n, x * n + d)), from_form(d * n, (t * n, x * n - d))

    def _first_within(self, lo: int, hi: int, d: int) -> tuple[int, int] | None:
        # center + sign * (0, 1/n), + side first: sign/n in [lo/d, hi/d]
        for sign, a, b in ((1, lo, hi), (-1, -hi, -lo)):
            n = _unit_fraction_in(a, b, d)
            if n is not None:
                return sign * self._slice[0], n
        return None

    def file_data(self) -> dict:
        return {"center": _format_point(self.center)}

    def members_needed(self, x: IntegerForm) -> int:
        # center +- (0, 1/n) < x needs dt > 0 and 1/n <= dt +- u; the first
        # such n is the ceiling of 1/(dt +- u).
        d, dt, du = self._offsets(x)
        if dt <= 0:
            return 0
        return max((-(-d // v) for v in (dt + du, dt - du) if v > 0), default=0)

    def _column_members_needed(self, d: int, times: Sequence[int], position: tuple) -> int:
        # A term above counts where dt > 0 and dt +- du > 0 and falls as dt grows,
        # so it peaks on the lowest row where it counts: the first time t with
        # t * q > p * d + r, over d * q, for r = 0 (the side of x) and r = |du|.
        q, p, o = self._slice
        rows = {bisect_right(times, (p * d + r) // q) for r in (0, abs(position[0] * q - o * d))}
        return max((self.members_needed((d, (times[i], *position)))
                    for i in rows if i < len(times)), default=0)

    def members_needed_floor(self, x: IntegerForm, y: IntegerForm) -> int:
        # With a = x0 - c0 >= 0 and b = x1 - c1, a term of `members_needed(y)`
        # whose limit a +- b is >= 0 stays positive on (x, y] and only grows as
        # y descends; the other terms, and all of them when a < 0, may vanish.
        _, a, b = self._offsets(x)
        d, dt, du = self._offsets(y)
        return max((-(-d // v) for v, limit in ((dt + du, a + b), (dt - du, a - b))
                    if a >= 0 and limit >= 0), default=0)

    def accumulation_points(self) -> tuple[Point, ...]:
        return (self.center,)


class DifferenceRow(_SliceFamily):
    """Splitting points of two binary sequences: (0, j) where their bits differ.

    A sequence is encoded by its finite set of zero positions, so the
    difference positions are the symmetric difference of the two sets,
    which is always finite.  `positions` is compared and shown, `points`
    (the members, from the positions) is not.
    """

    _fields = ("zeros_a", "zeros_b", "positions")
    __slots__ = _fields + ("points",)

    def __init__(self, zeros_a: frozenset[int], zeros_b: frozenset[int]):
        za = frozenset(map(zero_position, zeros_a))
        zb = frozenset(map(zero_position, zeros_b))
        positions = tuple(sorted(za ^ zb))
        self._store(zeros_a=za, zeros_b=zb, positions=positions,
                    points=tuple(from_form(1, (0, j)) for j in positions))

    is_finite = True
    _slice = (1, 0, 0)

    def members(self, limit: int | None = None) -> Iterator[Point]:
        return iter(self.points)

    def _first_within(self, lo: int, hi: int, d: int) -> tuple[int, int] | None:
        # the first position j >= lo/d, if j <= hi/d
        i = bisect_left(self.positions, -(-lo // d))
        if i < len(self.positions) and self.positions[i] * d <= hi:
            return self.positions[i], 1
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
