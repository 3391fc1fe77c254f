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
space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import minkowski
from .errors import ScenariosNotEnumerable
from .minkowski import Point
from .model import BranchingModel, ScenarioId


@dataclass(frozen=True)
class LabeledPoint:
    """A location together with the scenario it is considered in."""

    point: Point
    scenario: ScenarioId

    def __repr__(self) -> str:
        return f"{self.point!r}@{self.scenario!r}"


@dataclass(frozen=True)
class EventClass:
    """An event of the glued space: one location and its full label set.

    `representative` is the label the class was built from; it takes no
    part in equality or hashing.  Models whose scenario set cannot be
    enumerated have no event classes: compare their labeled points with
    same_event().
    """

    point: Point
    labels: frozenset
    representative: ScenarioId = field(compare=False)

    def __post_init__(self):
        if self.representative not in self.labels:
            raise ValueError("representative must belong to the label set")

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
    model.require_scenario(a.scenario)
    members = frozenset(s for s in labels if model.in_overlap(a.scenario, s, a.point))
    return EventClass(a.point, members, a.scenario)


def same_event(model: BranchingModel, a, b) -> bool:
    """Model-aware event equality of labeled points or event classes."""
    xa, sa = _as_rep(a)
    xb, sb = _as_rep(b)
    return glued(model, LabeledPoint(xa, sa), LabeledPoint(xb, sb))


def leq(model: BranchingModel, lower, upper) -> bool:
    """Induced weak order on events.

    The lower location must Minkowski-precede the upper one, and the lower
    location must still be glued across the two labels; otherwise the two
    events live in histories that have already split below the upper point.
    Accepts labeled points or event classes (via their representatives).
    """
    x, s = _as_rep(lower)
    y, t = _as_rep(upper)
    return minkowski.leq(x, y) and model.in_overlap(s, t, x)


def lt(model: BranchingModel, lower, upper) -> bool:
    """Strict induced order: leq at distinct locations.

    Equal locations never give a strict step, because leq at one location
    already means the two labeled copies are one glued event.
    """
    x, _ = _as_rep(lower)
    y, _ = _as_rep(upper)
    return x != y and leq(model, lower, upper)
