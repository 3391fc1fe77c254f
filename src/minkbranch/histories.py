"""Histories, choice points, and the order axioms.

Each scenario label names one history: the set of events carrying that
label.  Within a history the induced order is plain Minkowski order, so
the interesting structure is where histories meet.  A choice point of two
histories is a maximal event of their intersection; every splitting point
is one (generated), and a family accumulating on a space-like limit makes
the limit a choice point as well without being a member (emergent).

The axiom suite samples exact witnesses for the order laws a branching
model must satisfy: density, no maximal elements, infima of lower-bounded
chains, within-label suprema, and the prior-choice principle (every chain
inside one history but outside another is preceded by a choice point of
the pair).
"""

from __future__ import annotations

from functools import partial

from . import events, minkowski
from .errors import ScenariosNotEnumerable, WitnessNotFound
from .events import LabeledPoint
from .families import SplittingFamily
from .minkowski import Point, _Value
from .model import BranchingModel, Model, ScenarioId, validate_model
from .reporting import Report

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .sampling import Sampler, SamplerConfig


class History(_Value):
    """The history selected by one scenario label."""

    __slots__ = _fields = ("scenario",)

    def __init__(self, scenario: ScenarioId):
        self._store(scenario=scenario)


class ChainSample(_Value):
    """A finite, strictly ascending sample of a chain of locations.

    Construction validates that consecutive points are strictly ordered,
    which (by transitivity) makes the sample pairwise comparable.  An
    optional declared infimum must sit weakly below the first point.
    """

    __slots__ = _fields = ("points", "declared_infimum")

    def __init__(self, points: tuple[Point, ...], declared_infimum: Point | None = None):
        pts = tuple(points)
        if not pts:
            raise ValueError("a chain sample needs at least one point")
        for a, b in zip(pts, pts[1:]):
            if not minkowski.lt(a, b):
                raise ValueError(f"chain points out of order: {a!r} before {b!r}")
        if declared_infimum is not None and not minkowski.leq(declared_infimum, pts[0]):
            raise ValueError("declared infimum does not precede the chain")
        self._store(points=pts, declared_infimum=declared_infimum)

    @classmethod
    def from_points(cls, points, declared_infimum: Point | None = None) -> "ChainSample":
        ordered = sorted(points, key=lambda p: p.coords)
        return cls(tuple(ordered), declared_infimum)

    @property
    def minimum(self) -> Point:
        return self.points[0]

    @property
    def maximum(self) -> Point:
        return self.points[-1]

    def __iter__(self):
        return iter(self.points)


def in_history(model: BranchingModel, a: LabeledPoint, history: History) -> bool:
    """Does the event of this labeled point carry the history's label?"""
    return events.glued(model, a, LabeledPoint(a.point, history.scenario))


def scenarios_at(model: BranchingModel, history: History, x: Point) -> frozenset:
    """All labels whose copy of x is the history's event at x (finite models)."""
    labels = model.scenario_list()
    if labels is None:
        raise ScenariosNotEnumerable(
            "scenario set is not enumerable; use the binary-row closed form")
    return frozenset(s for s in labels if model.in_overlap(s, history.scenario, x))


def common_scenarios(model: BranchingModel, history: History, chain) -> frozenset:
    """Intersection of scenarios_at along a chain of locations.

    The per-point sets shrink as the chain ascends, so the result equals
    scenarios_at of the top point; it is computed as a real intersection
    anyway, since this function is the executable form of the compactness
    statement being tested.
    """
    points = list(chain)
    if not points:
        raise ValueError("empty chain")
    result: frozenset | None = None
    for x in points:
        here = scenarios_at(model, history, x)
        result = here if result is None else (result & here)
    return result


def is_generated_choice_point(model: BranchingModel, a: ScenarioId, b: ScenarioId,
                              x: Point) -> bool:
    """Is x a splitting point of the pair (the image of a family member)?"""
    if a == b:
        raise ValueError("choice points need two distinct scenarios")
    return model.family(a, b).contains(x)


def is_choice_point(model: BranchingModel, a: ScenarioId, b: ScenarioId, x: Point) -> bool:
    """Is x maximal in the intersection of the two histories?

    Decision procedure: family members are always choice points, and so are
    the family's space-like accumulation points (the harmonic center).  No
    other location is maximal: anything else in the overlap keeps an exact
    rational-sized escape wedge above it.  The grid oracle cross-checks
    this reduction rather than trusting it.
    """
    if a == b:
        raise ValueError("choice points need two distinct scenarios")
    return _is_family_choice_point(model.family(a, b), x)


def _is_family_choice_point(family: SplittingFamily, x: Point) -> bool:
    """`is_choice_point` on the pair's family: a member, or an accumulation point."""
    return family.contains(x) or x in family.accumulation_points()


def prior_choice_witness(model: BranchingModel, a: ScenarioId, b: ScenarioId,
                         chain: ChainSample) -> Point:
    """A choice point of the pair strictly below every element of the chain.

    Precondition (checked): every chain point lies in history a but not in
    history b, i.e. outside the pair's overlap region.  The witness search
    looks below the chain's minimum; strictness then propagates up the
    chain by transitivity.
    """
    if a == b:
        raise ValueError("the chain must leave one history of a distinct pair")
    for o in chain:
        if model.in_overlap(a, b, o):
            raise ValueError(
                f"chain point {o!r} is still glued across the pair; "
                "the chain must lie in one history minus the other")
    fam = model.family(a, b)
    witness = fam.first_strictly_below(chain.minimum)
    if witness is None:
        raise WitnessNotFound(
            f"no splitting point of ({a!r}, {b!r}) lies strictly below {chain.minimum!r}")
    for o in chain:
        if not minkowski.lt(witness, o):
            raise WitnessNotFound(f"witness {witness!r} does not precede {o!r}")
    if not is_choice_point(model, a, b, witness):
        raise WitnessNotFound(f"witness {witness!r} is not a choice point")
    return witness


# ---------------------------------------------------------------------------
# Axiom suite
# ---------------------------------------------------------------------------
# The checks ask the induced order through `events._leq` on their points and
# labels; a strict step x < y is x != y and `_leq`, as in `events.lt`.


def _density(model: Model, sampler: Sampler, s: ScenarioId):
    x = sampler.point()
    y = sampler.point_above(x)
    mid = minkowski.between(x, y)
    ok = (x != mid and events._leq(model, x, s, mid, s)
          and mid != y and events._leq(model, mid, s, y, s))
    return None if ok else (x, y)


def _no_maximal(model: Model, sampler: Sampler, s: ScenarioId, *, up: Point):
    # `up`: the unit time step, built once per suite
    x = sampler.point()
    above = x.translated(up)
    return None if x != above and events._leq(model, x, s, above, s) else x


def _infimum(model: Model, sampler: Sampler, s: ScenarioId):
    # Finite chains: the minimum is the infimum.  Verify it bounds the chain
    # and dominates sampled lower bounds, all through the event order.
    chain = sampler.ascending_chain(sampler.rng.randint(2, 5))
    inf = chain[0]
    ok = all(events._leq(model, inf, s, p, s) for p in chain)
    for _ in range(3):
        bound = sampler.point_below(inf)
        ok = ok and events._leq(model, bound, s, inf, s)
    return None if ok else tuple(chain)


def _supremum(model: Model, sampler: Sampler, s: ScenarioId):
    # Within-label suprema of finite chains: the maximum, checked in every
    # history that contains the whole chain (s itself always does).  An
    # overlap region is downward closed and the chain ascends, so the
    # history contains the chain exactly when it contains the maximum.
    chain = sampler.ascending_chain(sampler.rng.randint(2, 5))
    sup = chain[-1]
    ok = True
    for t in model.scenario_list():
        if model.in_overlap(s, t, sup):
            ok = ok and all(events._leq(model, p, s, sup, t) for p in chain)
            for _ in range(2):
                upper = sampler.point_above(sup)
                ok = ok and events._leq(model, sup, s, upper, t)
    return None if ok else tuple(chain)


def _prior_choice(model: Model, sampler: Sampler, pair):
    a, b, seed_point = pair
    chain = ChainSample(tuple(sampler.ascending_chain(3, start=sampler.point_above(seed_point))))
    try:
        prior_choice_witness(model, a, b, chain)   # a choice point, or it raises
    except (ValueError, WitnessNotFound) as exc:
        return (a, b, chain.minimum, str(exc))
    return None


def run_axiom_suite(model: Model, config: SamplerConfig | None = None) -> Report:
    """Sampled exact verification of the order axioms on a validated model.

    Refuses to run (reporting the validation failure) when the model does
    not validate; the axioms are only meaningful over a genuine equivalence.
    Each axiom's check runs on `cases` drawn labels (pairs, for prior choice).
    """
    from .sampling import Sampler, SamplerConfig
    config = config or SamplerConfig()
    report = Report("axiom-suite")
    validation = validate_model(model)
    if not validation.passed:
        failed = ", ".join(r.name for r in validation.failures())
        report.add("validation-gate", False, f"model fails validation ({failed}); suite not run")
        return report
    report.add("validation-gate", True, "model validates")

    cases = config.cases
    sampler = Sampler(config, model.dimension)
    labels = model.scenario_list()
    pairs = [(a, b, first) for a, b in model.scenario_pairs()
             if (first := next(iter(model.family(a, b).members(limit=4)), None)) is not None]
    up = minkowski.point(1, *[0] * (model.dimension - 1))
    axioms = (
        ("density", _density, labels, None),
        ("no-maximal", partial(_no_maximal, up=up), labels, None),
        ("chain-infima", _infimum, labels, None),
        ("chain-suprema", _supremum, labels,
         "within-label; cross-label suprema at choice points not certified"),
        ("prior-choice", _prior_choice, pairs,
         None if pairs else "no scenario pairs; principle holds vacuously"),
    )
    for name, check, items, note in axioms:
        failures = [failure for _ in range(cases if items else 0)
                    if (failure := check(model, sampler, sampler.choice(items))) is not None]
        if failures:
            detail = f"{len(failures)}/{cases} failures; first: {failures[0]!r}"
        else:
            detail = f"{cases} cases; {note}" if note else f"{cases} cases"
        report.add(name, not failures, detail)
    return report
