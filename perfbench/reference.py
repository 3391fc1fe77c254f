"""Expected answers computed apart from minkbranch.

Every function here works on integer lattice coordinates: a point (t, x)
of a lattice with step 1/q is given by the integers (t*q, x*q).  Nothing
imports the package under test, so these answers cannot share a fault
with the closed forms or the oracle they are compared against.
"""

from __future__ import annotations

from fractions import Fraction


def lattice_axis(lo: Fraction, hi: Fraction, step: Fraction) -> list[int]:
    """Integer numerators (over 1/step) of lo, lo+step, ..., up to hi."""
    q = 1 / step
    if q.denominator != 1:
        raise ValueError("step must be 1/q for an integer q")
    start, stop = lo * q, hi * q
    if start.denominator != 1 or stop.denominator != 1:
        raise ValueError("box bounds must lie on the lattice")
    return list(range(int(start), int(stop) + 1))


def causal_leq(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """x weakly precedes y in the Minkowski order (time first)."""
    dt = y[0] - x[0]
    return dt >= 0 and dt * dt >= sum((b - a) ** 2 for a, b in zip(x[1:], y[1:]))


def causal_lt(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    return x != y and causal_leq(x, y)


def _unit_fraction_reachable(b: int, a: int, q: int) -> bool:
    """Is there an integer n >= 1 with |b/q - 1/n| <= a/q, i.e. (b-a)n <= q <= (b+a)n?"""
    if b + a <= 0:
        return False
    if b - a <= 0:
        return True
    return -(-q // (b + a)) <= q // (b - a)


def harmonic_in_overlap(a: int, b: int, q: int) -> bool:
    """Is (a/q, b/q), relative to the centre, below no member (0, +-1/n)?

    A member lies strictly below exactly when a > 0 and |b/q -+ 1/n| <= a/q
    for some n >= 1; at a == 0 a member can only equal the point.
    """
    if a <= 0:
        return True
    return not (_unit_fraction_reachable(b, a, q) or _unit_fraction_reachable(-b, a, q))


def harmonic_member(a: int, b: int, q: int) -> bool:
    """Is (a/q, b/q), relative to the centre, one of the members (0, +-1/n)?"""
    return a == 0 and b != 0 and q % abs(b) == 0


def harmonic_choice_point(a: int, b: int, q: int) -> bool:
    """Members are choice points, and so is their accumulation point, the centre."""
    return harmonic_member(a, b, q) or (a, b) == (0, 0)


def integer_row_in_overlap(t: int, x: int, q: int) -> bool:
    """Is (t/q, x/q) below no member (0, n), n = 0, 1, 2, ...?"""
    if t <= 0:
        return True
    lo = max(0, -(-(x - t) // q))
    return lo > (x + t) // q


def split_at_origin_in_region(t: int, x: int) -> bool:
    """Overlap of a pair that splits only at the origin: not (|x| <= t and (t, x) != (0, 0))."""
    return not (abs(x) <= t and (t, x) != (0, 0))


def boundary_flagged(t: int, x: int, t_hi: int, x_lo: int, x_hi: int) -> bool:
    """Within one lattice step of the box top or of a spatial face."""
    return t + 1 > t_hi or x - 1 < x_lo or x + 1 > x_hi


def finite_triangle_holds(ab: list, bc: list, ac: list) -> bool:
    """Each splitting point of (a, c) weakly dominates one of (a, b) or (b, c)."""
    return all(any(causal_leq(m, x) for m in ab + bc) for x in ac)


def first_one(bits: str) -> int:
    """Position of the first 1 in a printed 01-sequence such as '0010...'."""
    return bits.index("1")
