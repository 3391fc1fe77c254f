"""Exact causal order on rational Minkowski coordinates.

Points are tuples of rationals; coordinate 0 is time, the rest are space.
The squared interval between x and y is

    -(x0 - y0)^2 + sum_i (xi - yi)^2

and x causally precedes y when the interval is nonpositive and x is not
later than y.  Coordinates are exact rationals, so every predicate is
exactly decidable; floats are rejected at construction time rather than
silently truncated.

A point stores only its integer form (D, nums): D is the lcm of its
coordinate denominators and nums its coordinates times D.  That form is
canonical, so equality compares forms; `coords` builds the tuple of
`fractions.Fraction`s on each read.  Every order question goes through
`separation`, which gives the time offset and the squared spatial distance
of two forms in integers; `translated` and `between` build the result's
form from theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DimensionMismatch

# Grain of the dyadic overshoot used by lift_above: lifted times live on
# the 1/2**16 lattice, which keeps them exact and reproducible.
LIFT_GRAIN = 1 << 16

_ZERO = Fraction(0)

#: A point's integer form: (D, nums) with coords == tuple(n / D for n in nums).
IntegerForm = tuple[int, tuple[int, ...]]


def rational(value: Fraction | int | str) -> Fraction:
    """Coerce an int, 'p/q' string, or Fraction to Fraction.

    Floats and bools are rejected (TypeError): a binary float is almost
    never the rational the caller meant, and exactness is the whole point
    of this module.  A malformed string raises ValueError or
    ZeroDivisionError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"expected a rational (int, 'p/q' string, Fraction), got {value!r}")


def format_rational(value: Fraction) -> str:
    """The 'p/q' form of a rational, denominator always written: '3/1'."""
    return f"{value.numerator}/{value.denominator}"


def _lcm_form(coords: tuple[Fraction, ...]) -> IntegerForm:
    dens = [c.denominator for c in coords]
    d = lcm(*dens)
    return d, tuple([c.numerator * (d // q) for c, q in zip(coords, dens)])


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Point:
    """An event location: rational coordinates, time first, held as their integer form."""

    #: The integer form (D, nums), D the lcm of the coordinate denominators.
    form: IntegerForm

    def __init__(self, coords: tuple):
        coerced = tuple(map(rational, coords))
        if len(coerced) < 2:
            raise ValueError("a point needs a time coordinate and at least one spatial coordinate")
        object.__setattr__(self, "form", _lcm_form(coerced))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        d, nums = self.form
        return tuple([Fraction(n, d) for n in nums])

    @property
    def dimension(self) -> int:
        return len(self.form[1])

    @property
    def time(self) -> Fraction:
        d, nums = self.form
        return Fraction(nums[0], d)

    def translated(self, delta: "Point | tuple") -> "Point":
        other = delta.form if isinstance(delta, Point) else _lcm_form(
            tuple(map(rational, delta)))
        if len(other[1]) != len(self.form[1]):
            raise DimensionMismatch("translation vector has wrong dimension")
        return _sum_point(self.form, other)

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __repr__(self) -> str:
        return "Point(%s)" % ", ".join(str(c) for c in self.coords)


def _sum_point(x: IntegerForm, y: IntegerForm, scale: int = 1) -> Point:
    """The point (x + y) / scale, its form built from x's and y's without re-coercion."""
    (dx, xn), (dy, yn) = x, y
    k = lcm(dx, dy)
    return from_form(k * scale, tuple([p * (k // dx) + q * (k // dy) for p, q in zip(xn, yn)]))


def from_form(d: int, nums: tuple[int, ...]) -> Point:
    """The point with coordinates nums / d, d > 0; its stored form is reduced to the lcm form."""
    g = gcd(d, *nums)
    if g > 1:
        d //= g
        nums = tuple([n // g for n in nums])
    p = object.__new__(Point)
    object.__setattr__(p, "form", (d, nums))
    return p


def lattice(box: tuple[tuple[Fraction, Fraction], ...], step: Fraction
            ) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """The points lo + k * step, 0 <= k < count, on each axis of a box, as integers.

    Returns (D, step * D, each lo * D, each axis's count), with D the lcm
    of the denominators of the step and of the lower bounds.
    """
    d = lcm(step.denominator, *(lo.denominator for lo, _ in box))
    return (d, step.numerator * (d // step.denominator),
            tuple(lo.numerator * (d // lo.denominator) for lo, _ in box),
            tuple(int((hi - lo) / step) + 1 for lo, hi in box))


def point(*coords: Fraction | int | str) -> Point:
    """Convenience constructor: point(0, '1/2') -> Point((0, 1/2))."""
    return Point(coords)


def separation(x: IntegerForm, y: IntegerForm) -> tuple[int, int]:
    """(dt, spread) from x to y: y0 - x0 and the squared spatial distance.

    Both are integers over the common denominator Dx*Dy: dt scaled by it,
    spread by its square.  Any common denominator serves as a form's D,
    not only the lcm: scaling a form by k scales dt by k and spread by
    k**2, which keeps the sign of spread - dt**2.
    """
    dx, xn = x
    dy, yn = y
    if len(xn) != len(yn):
        raise DimensionMismatch(f"points have dimensions {len(xn)} and {len(yn)}")
    spread = 0
    for i in range(1, len(xn)):
        d = yn[i] * dx - xn[i] * dy
        spread += d * d
    return yn[0] * dx - xn[0] * dy, spread


def interval(x: Point, y: Point) -> Fraction:
    """Squared Minkowski interval; negative timelike, zero lightlike, positive spacelike."""
    dt, spread = separation(x.form, y.form)
    d = x.form[0] * y.form[0]
    return Fraction(spread - dt * dt, d * d)


def leq(x: Point, y: Point) -> bool:
    """x causally precedes y (weakly): y is in the closed future cone of x."""
    dt, spread = separation(x.form, y.form)
    return dt >= 0 and spread <= dt * dt


def lt(x: Point, y: Point) -> bool:
    """Strict causal precedence: leq and distinct.

    Lightlike-related distinct points count; the cone is closed.  Stored
    forms are lcm forms, so distinct points have distinct forms.
    """
    return leq(x, y) and x.form != y.form


def slr(x: Point, y: Point) -> bool:
    """Space-like related: neither point causally precedes the other."""
    return not leq(x, y) and not leq(y, x)


def comparable(x: Point, y: Point) -> bool:
    return leq(x, y) or leq(y, x)


def _dyadic_cover_sqrt(s: Fraction) -> Fraction:
    """Smallest r = p / 2**16 with p a nonnegative integer and r*r >= s."""
    if s <= 0:
        return _ZERO
    # r*r >= s  <=>  p*p >= T/den with T = num << 32 >= 1, for s = num/den;
    # the least such p is isqrt(ceil(T/den) - 1) + 1.
    return Fraction(isqrt(-(-(s.numerator << 32) // s.denominator) - 1) + 1, LIFT_GRAIN)


def lift_above(a: Point, b: Point) -> Point:
    """A point with a's spatial coordinates that both a and b causally precede.

    The time coordinate is max(a.time, b.time) + r where r is the smallest
    dyadic rational p/2**16 whose square covers the squared spatial distance
    between a and b.  Only the ordering guarantees (a <= result, b <= result)
    are ever relied on, not minimality of the overshoot.
    """
    _, spread = separation(a.form, b.form)
    d = a.form[0] * b.form[0]
    t = max(a.time, b.time) + _dyadic_cover_sqrt(Fraction(spread, d * d))
    return Point((t,) + a.coords[1:])


def common_upper_bound(x: Point, y: Point) -> Point:
    """A point causally above both x and y (not a least upper bound)."""
    return lift_above(x, y)


def between(x: Point, y: Point) -> Point:
    """The midpoint of a strictly ordered pair; strictly between both ends."""
    if not lt(x, y):
        raise ValueError(f"between() needs a strictly ordered pair, got {x!r} and {y!r}")
    return _sum_point(x.form, y.form, 2)
