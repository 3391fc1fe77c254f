"""The glued event space.

A labeled point is a location tagged with a scenario.  Two labeled copies
of the same location are glued into one event exactly when the location
lies in the overlap region of the two scenarios.  Event classes are the
resulting equivalence classes (on validated models; on models that fail
the triangle condition the relation is not transitive, which the tests
exhibit rather than hide).

The induced order: one event weakly precedes another when their locations
do in Minkowski order and the lower location is still glued across the two
labels.  Restricted to a single label this collapses to the plain Minkowski
order, which is what makes each history an isomorphic copy of the base
space.  The order has one definition, `_leq` on plain locations and labels,
and two entry points on labeled points or event classes, `leq` and `lt`;
callers that already hold a location and a label call `_leq` directly.
"""

from __future__ import annotations

from . import minkowski
from .errors import ScenariosNotEnumerable
from .minkowski import Point, _set, _Value
from .model import BranchingModel, ScenarioId


class LabeledPoint(_Value):
    """A location together with the scenario it is considered in."""

    __slots__ = _fields = ("point", "scenario")

    def __init__(self, point: Point, scenario: ScenarioId):
        _set(self, "point", point)
        _set(self, "scenario", scenario)

    def __repr__(self) -> str:
        return f"{self.point!r}@{self.scenario!r}"


class EventClass(_Value):
    """An event of the glued space: one location and its full label set.

    `representative` is the label the class was built from; it takes no
    part in equality or hashing.  Models whose scenario set cannot be
    enumerated have no event classes: compare their labeled points with
    same_event().
    """

    _fields = ("point", "labels")
    __slots__ = _fields + ("representative",)

    def __init__(self, point: Point, labels: frozenset, representative: ScenarioId):
        if representative not in labels:
            raise ValueError("representative must belong to the label set")
        self._store(point=point, labels=labels, representative=representative)

    def __repr__(self) -> str:
        shown = ",".join(sorted(repr(s) for s in self.labels))
        return f"EventClass({self.point!r}, {{{shown}}})"


def _as_rep(value: LabeledPoint | EventClass) -> tuple[Point, ScenarioId]:
    if isinstance(value, LabeledPoint):
        return value.point, value.scenario
    if isinstance(value, EventClass):
        return value.point, value.representative
    raise TypeError(f"expected LabeledPoint or EventClass, got {value!r}")


def glued(model: BranchingModel, a: LabeledPoint, b: LabeledPoint) -> bool:
    """Are the two labeled points the same event?

    Requires the same location and that the location lies in the overlap
    region of the two labels.
    """
    if a.point != b.point:
        return False
    return model.in_overlap(a.scenario, b.scenario, a.point)


def event_class(model: BranchingModel, a: LabeledPoint) -> EventClass:
    """Materialize the event class of a labeled point (finite models only)."""
    labels = model.scenario_list()
    if labels is None:
        raise ScenariosNotEnumerable(
            "scenario set is not enumerable; compare labeled points with same_event()")
    members = frozenset(s for s in labels if model.in_overlap(a.scenario, s, a.point))
    return EventClass(a.point, members, a.scenario)


def same_event(model: BranchingModel, a, b) -> bool:
    """Model-aware event equality of labeled points or event classes."""
    xa, sa = _as_rep(a)
    xb, sb = _as_rep(b)
    return glued(model, LabeledPoint(xa, sa), LabeledPoint(xb, sb))


def _leq(model: BranchingModel, x: Point, s: ScenarioId, y: Point, t: ScenarioId) -> bool:
    """Does x labeled s weakly precede y labeled t in the induced order?

    x must Minkowski-precede y, and x must still be glued across the two
    labels; otherwise the two events live in histories that have already
    split below y.
    """
    return minkowski.leq(x, y) and model.in_overlap(s, t, x)


def leq(model: BranchingModel, lower, upper) -> bool:
    """Induced weak order on events: `_leq` on the two representatives.

    Accepts labeled points or event classes (via their representatives).
    """
    x, s = _as_rep(lower)
    y, t = _as_rep(upper)
    return _leq(model, x, s, y, t)


def lt(model: BranchingModel, lower, upper) -> bool:
    """Strict induced order: leq at distinct locations.

    Equal locations never give a strict step, because leq at one location
    already means the two labeled copies are one glued event.
    """
    x, s = _as_rep(lower)
    y, t = _as_rep(upper)
    return x != y and _leq(model, x, s, y, t)
