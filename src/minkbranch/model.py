"""Scenario models: a scenario set plus one splitting family per pair.

The overlap region of two scenarios is the set of points not strictly above
any of their splitting points; it is exactly the region where the two
scenarios are still glued together into one event.  Model validation checks
the structural assumptions every later construction leans on:

* the pair map is symmetric (an unordered pair has one family),
* each family is pairwise space-like,
* every distinct pair has a nonempty family,
* the triangle condition: each splitting point of (a, c) weakly dominates
  a splitting point of (a, b) or of (b, c), for every scenario triple.

The triangle condition is what makes gluing transitive; models that fail it
still answer queries, but the quotient they induce is not an equivalence
and validation says so.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from itertools import combinations

from .errors import DimensionMismatch, MissingFamily, UnknownScenario, _quoted
from .families import (
    DifferenceRow,
    SplittingFamily,
    family_kind,
    is_empty,
)
from .minkowski import Point, _Value
from .reporting import Report

ScenarioId = Hashable

#: Member enumeration depth used when a triangle check meets an infinite family.
TRIANGLE_TRUNCATION = 200


class BranchingModel:
    """Query surface shared by finite models and generator-mode models."""

    dimension: int

    def has_scenario(self, label: ScenarioId) -> bool:
        raise NotImplementedError

    def scenario_list(self) -> tuple[ScenarioId, ...] | None:
        """All scenario labels, or None when the scenario set is not finite."""
        raise NotImplementedError

    def family(self, a: ScenarioId, b: ScenarioId) -> SplittingFamily:
        """The pair's splitting family; an unknown label raises before a missing pair."""
        raise NotImplementedError

    def require_scenario(self, label: ScenarioId) -> None:
        if not self.has_scenario(label):
            raise UnknownScenario(f"unknown scenario {_quoted(label)}")

    def in_overlap(self, a: ScenarioId, b: ScenarioId, x: Point) -> bool:
        """Is x below or beside every splitting point of the pair?

        Equivalently: do scenarios a and b still agree at x, so that the
        two labeled copies of x are one glued event?
        """
        if a == b:
            self.require_scenario(a)
            family = None
        else:
            family = self.family(a, b)   # checks both labels
        if x.dimension != self.dimension:
            raise DimensionMismatch(
                f"point has dimension {x.dimension}, model has {self.dimension}")
        return family is None or not family.any_strictly_below(x)


class Model(BranchingModel):
    """A finite explicit model: scenario labels plus a pair-to-family table.

    The table is kept as the caller wrote it (ordered entries); symmetry of
    the unordered-pair map is a validation check, not a representation
    guarantee, so a file that declares both (a,b) and (b,a) with different
    families loads fine and then fails validation.  Queries resolve to the
    first entry for an unordered pair, through a table keyed by ordered
    pairs, (a, b) and (b, a), that holds only pairs of two distinct declared
    labels: a hit is the whole of `family`, and a miss takes the checked
    path, which raises the error the pair earns.

    `state` is an opaque annotation; it is carried through serialization
    untouched and never interpreted.
    """

    def __init__(
        self,
        dimension: int,
        scenarios: Sequence[ScenarioId],
        families: Mapping[tuple[ScenarioId, ScenarioId], SplittingFamily]
        | Iterable[tuple[tuple[ScenarioId, ScenarioId], SplittingFamily]],
        state=None,
    ):
        self.dimension = int(dimension)
        if self.dimension < 2:
            raise ValueError("model dimension must be at least 2")
        self.scenarios = tuple(scenarios)
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ValueError("duplicate scenario labels")
        if not self.scenarios:
            raise ValueError("a model needs at least one scenario")
        self._scenario_set = frozenset(self.scenarios)
        if isinstance(families, Mapping):
            entries = list(families.items())
        else:
            entries = list(families)
        self.entries: tuple[tuple[tuple[ScenarioId, ScenarioId], SplittingFamily], ...] = tuple(
            ((a, b), fam) for (a, b), fam in entries
        )
        self._pairs: dict[tuple[ScenarioId, ScenarioId], SplittingFamily] = {}
        for (a, b), fam in self.entries:
            if a == b:
                raise ValueError(f"scenario {a!r} cannot split from itself")
            if {a, b} <= self._scenario_set:
                self._pairs.setdefault((a, b), fam)
                self._pairs.setdefault((b, a), fam)
        self.state = state

    def has_scenario(self, label: ScenarioId) -> bool:
        return label in self._scenario_set

    def scenario_list(self) -> tuple[ScenarioId, ...]:
        return self.scenarios

    def family(self, a: ScenarioId, b: ScenarioId) -> SplittingFamily:
        try:
            return self._pairs[a, b]
        except (KeyError, TypeError):   # TypeError: an unhashable label
            pass
        self.require_scenario(a)
        self.require_scenario(b)
        if a == b:
            raise ValueError("a scenario has no splitting family with itself")
        raise MissingFamily(f"no splitting family declared for {_quoted(a)}, {_quoted(b)}")

    def scenario_pairs(self) -> list[tuple[ScenarioId, ScenarioId]]:
        return list(combinations(self.scenarios, 2))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.scenarios == other.scenarios
            and self.entries == other.entries
            and self.state == other.state
        )

    def __hash__(self):
        return hash((self.dimension, self.scenarios, self.entries))

    def __repr__(self) -> str:
        return (f"Model(dimension={self.dimension}, scenarios={list(self.scenarios)!r}, "
                f"families={len(self.entries)} entries)")


class TriangleResult(_Value):
    __slots__ = _fields = ("ok", "witness", "method")

    def __init__(self, ok: bool, witness: Point | None, method: str):
        self._store(ok=ok, witness=witness, method=method)


def _check_truncation(truncate: int) -> None:
    if truncate < 1:
        raise ValueError("truncation must be at least 1")


def triangle_check(
    model: Model,
    a: ScenarioId,
    b: ScenarioId,
    c: ScenarioId,
    truncate: int = TRIANGLE_TRUNCATION,
) -> TriangleResult:
    """Does every splitting point of (a, c) weakly dominate one of (a, b) or (b, c)?

    The (a, c) members are enumerated, with truncation when that family is
    infinite.
    """
    _check_truncation(truncate)
    if len({a, b, c}) != 3:
        raise ValueError("triangle check needs three distinct scenarios")
    fam_ac = model.family(a, c)
    fam_ab = model.family(a, b)
    fam_bc = model.family(b, c)
    method = "exhaustive" if fam_ac.is_finite else f"members up to index {truncate}"
    for x in fam_ac.members(limit=truncate):
        if not (fam_ab.any_weakly_below(x) or fam_bc.any_weakly_below(x)):
            return TriangleResult(False, x, method)
    return TriangleResult(True, None, method)


def validate_model(model: Model, truncate: int = TRIANGLE_TRUNCATION) -> Report:
    """Structural validation report; every later construction assumes it passes."""
    _check_truncation(truncate)
    report = Report("validate")

    # Labels: every family entry must reference declared scenarios.
    bad_labels = sorted(
        {repr(s) for (pair, _) in model.entries for s in pair if not model.has_scenario(s)}
    )
    report.add("labels", not bad_labels,
               f"undeclared scenario(s): {', '.join(bad_labels)}" if bad_labels else "")

    # Dimension: members must live in the model's space; row kinds are planar.
    dim_problems = []
    for (pair, fam) in model.entries:
        fam_dim = fam.dimension
        if fam_dim is not None and fam_dim != model.dimension:
            dim_problems.append(f"{pair!r} is {family_kind(fam)} of dimension {fam_dim}")
    report.add("dimension", not dim_problems, "; ".join(dim_problems))

    # Symmetry: all entries for one unordered pair must agree.
    asym = []
    seen: dict[frozenset, SplittingFamily] = {}
    for (a, b), fam in model.entries:
        key = frozenset((a, b))
        if key in seen and seen[key] != fam:
            asym.append(f"conflicting families for pair {sorted(map(repr, key))}")
        seen.setdefault(key, fam)
    report.add("symmetry", not asym, "; ".join(sorted(set(asym))))

    # Difference-row consistency: a label owns one zero set across all entries.
    zero_sets: dict[ScenarioId, frozenset[int]] = {}
    diff_conflicts = []
    for (a, b), fam in model.entries:
        if isinstance(fam, DifferenceRow):
            for label, zeros in ((a, fam.zeros_a), (b, fam.zeros_b)):
                if label in zero_sets and zero_sets[label] != zeros:
                    diff_conflicts.append(f"{label!r} carries two zero sets")
                zero_sets.setdefault(label, zeros)
    report.add("difference-consistency", not diff_conflicts,
               "; ".join(sorted(set(diff_conflicts))))

    # Space-like: members of one family must be pairwise incomparable.
    slr_problems = []
    by_construction = 0
    for (pair, fam) in model.entries:
        if fam.slr_by_construction:
            by_construction += 1
            continue
        violation = fam.slr_violation()
        if violation is not None:
            slr_problems.append(f"{pair!r} orders {violation[0]!r} and {violation[1]!r}")
    slr_detail = "; ".join(slr_problems)
    if not slr_problems and by_construction:
        slr_detail = (f"{by_construction} family holds by construction"
                      if by_construction == 1
                      else f"{by_construction} families hold by construction")
    report.add("slr", not slr_problems, slr_detail)

    # Nonempty: every distinct pair needs at least one splitting point.
    empty_pairs = []
    for a, b in model.scenario_pairs():
        try:
            fam = model.family(a, b)
        except MissingFamily:
            empty_pairs.append(f"({a!r}, {b!r}) missing")
            continue
        if is_empty(fam):
            empty_pairs.append(f"({a!r}, {b!r}) empty")
    report.add("nonempty", not empty_pairs, "; ".join(empty_pairs))

    # Triangle condition, for every scenario triple with all families present.
    # A triple that compares points of different dimensions is skipped: the
    # dimension check already fails for it.
    triangle_failures = []
    skipped = {"missing families": 0, "families of different dimensions": 0}
    for a, b, c in combinations(model.scenarios, 3):
        for mid in (a, b, c):
            ends = tuple(s for s in (a, b, c) if s != mid)
            try:
                result = triangle_check(model, ends[0], mid, ends[1], truncate=truncate)
            except MissingFamily:
                skipped["missing families"] += 1
                continue
            except DimensionMismatch:
                skipped["families of different dimensions"] += 1
                continue
            triple = f"({ends[0]!r},{mid!r},{ends[1]!r})"
            if not result.ok:
                triangle_failures.append(f"{triple} uncovered at {result.witness!r}")
            elif result.method != "exhaustive":
                report.note(f"triangle {triple} holds on {result.method} only; bounded, not proved")
                report.bounded = True
    detail = "; ".join(triangle_failures) or "; ".join(
        f"{n} triple(s) skipped for {why}" for why, n in skipped.items() if n)
    report.add("triangle", not triangle_failures, detail)

    return report
