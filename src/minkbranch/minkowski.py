"""Exact causal order on rational Minkowski coordinates.

Points are tuples of rationals; coordinate 0 is time, the rest are space.
The squared interval between x and y is

    -(x0 - y0)^2 + sum_i (xi - yi)^2

and x causally precedes y when the interval is nonpositive and x is not
later than y.  Coordinates are `fractions.Fraction`s, so every predicate is
exactly decidable; floats are rejected at construction time rather than
silently truncated.

Each point also stores its integer form (D, nums), built once: D is the
lcm of its coordinate denominators and nums its coordinates times D.  The
order predicates and `interval` use stored forms and integer arithmetic
alone; `translated` and `between` build the result's form from theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass(frozen=True, slots=True)
class Point:
    """An event location: a tuple of rational coordinates, time first."""

    coords: tuple[Fraction, ...]
    #: The integer form (D, nums), D the lcm of the coordinate denominators.
    form: IntegerForm = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coerced = tuple(map(rational, self.coords))
        if len(coerced) < 2:
            raise ValueError("a point needs a time coordinate and at least one spatial coordinate")
        object.__setattr__(self, "coords", coerced)
        object.__setattr__(self, "form", _lcm_form(coerced))

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def time(self) -> Fraction:
        return self.coords[0]

    def translated(self, delta: "Point | tuple") -> "Point":
        other = delta.form if isinstance(delta, Point) else _lcm_form(
            tuple(map(rational, delta)))
        if len(other[1]) != len(self.coords):
            raise DimensionMismatch("translation vector has wrong dimension")
        return _sum_point(self.form, other)

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
    object.__setattr__(p, "coords", tuple([Fraction(n, d) for n in nums]))
    object.__setattr__(p, "form", (d, nums))
    return p


def point(*coords: Fraction | int | str) -> Point:
    """Convenience constructor: point(0, '1/2') -> Point((0, 1/2))."""
    return Point(tuple(coords))


def _separation(x: Point, y: Point) -> tuple[int, int, int]:
    """(dt, spread, D): y0 - x0 and the squared spatial distance, over D and D**2."""
    dx, xn = x.form
    dy, yn = y.form
    if len(xn) != len(yn):
        raise DimensionMismatch(f"points have dimensions {len(xn)} and {len(yn)}")
    spread = 0
    for i in range(1, len(xn)):
        d = yn[i] * dx - xn[i] * dy
        spread += d * d
    return yn[0] * dx - xn[0] * dy, spread, dx * dy


def interval(x: Point, y: Point) -> Fraction:
    """Squared Minkowski interval; negative timelike, zero lightlike, positive spacelike."""
    dt, spread, d = _separation(x, y)
    return Fraction(spread - dt * dt, d * d)


def leq(x: Point, y: Point) -> bool:
    """x causally precedes y (weakly): y is in the closed future cone of x.

    Decided on the stored forms as in `integer_lt`, with dt >= 0.
    """
    dx, xn = x.form
    dy, yn = y.form
    if len(xn) != len(yn):
        raise DimensionMismatch(f"points have dimensions {len(xn)} and {len(yn)}")
    dt = yn[0] * dx - xn[0] * dy
    if dt < 0:
        return False
    spread = 0
    for i in range(1, len(xn)):
        d = yn[i] * dx - xn[i] * dy
        spread += d * d
    return spread <= dt * dt


def lt(x: Point, y: Point) -> bool:
    """Strict causal precedence: leq and distinct.

    Lightlike-related distinct points count; the cone is closed.  Stored
    forms are lcm forms, so distinct points have distinct forms.
    """
    return leq(x, y) and x.form != y.form


def integer_lt(m: IntegerForm, x: IntegerForm) -> bool:
    """lt on integer forms: m strictly precedes x.

    With dt = x0*Dm - m0*Dx, this holds exactly when dt > 0 and
    sum_i (xi*Dm - mi*Dx)**2 <= dt**2: both sides of `interval` scaled by
    (Dm*Dx)**2.  dt > 0 already makes the points distinct.  Any common
    denominator serves as D, not only the lcm: scaling a form by k scales
    both sides by k**2.  The forms must have the same dimension; callers
    check that once per scan.
    """
    dm, mn = m
    dx, xn = x
    dt = xn[0] * dm - mn[0] * dx
    if dt <= 0:
        return False
    spread = 0
    for i in range(1, len(xn)):
        d = xn[i] * dm - mn[i] * dx
        spread += d * d
    return spread <= dt * dt


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
    _, spread, d = _separation(a, b)
    t = max(a.coords[0], b.coords[0]) + _dyadic_cover_sqrt(Fraction(spread, d * d))
    return Point((t,) + a.coords[1:])


def common_upper_bound(x: Point, y: Point) -> Point:
    """A point causally above both x and y (not a least upper bound)."""
    return lift_above(lift_above(x, x), y)


def between(x: Point, y: Point) -> Point:
    """The midpoint of a strictly ordered pair; strictly between both ends."""
    if not lt(x, y):
        raise ValueError(f"between() needs a strictly ordered pair, got {x!r} and {y!r}")
    return _sum_point(x.form, y.form, 2)
