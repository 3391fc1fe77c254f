"""The binary-row model: infinitely many scenarios over one row of points.

Scenarios are 01-sequences with finitely many zeros, encoded by their zero
sets.  Two scenarios split exactly at the row points (0, j) where their
bits differ, so every pair family is a finite DifferenceRow and the whole
model works in generator mode: scenario membership is decidable but the
scenario set cannot be listed.

The construction matters because of one chain.  With z_i = (i - 1/2, 0),
the labeled points [z_i in sigma_i] (sigma_i = the sequence with zeros
exactly at positions 0..i-1) form a strictly ascending chain in the glued
space: z_i sits below the row, but above the first i difference positions
of any pair it has already passed.  Any history containing the whole chain
would need a scenario glued to it at every depth, i.e. a sequence whose
zeros cover every prefix, and no sequence with finitely many zeros does.
The per-depth scenario sets are nonempty and nested, with empty total
intersection: a centred family of closed sets witnessing that the chain
topology of such a history fails compactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import events
from .events import LabeledPoint
from .families import DifferenceRow, zero_position
from .minkowski import Point, point
from .model import BranchingModel
from .reporting import Report


@dataclass(frozen=True)
class ZeroSetScenario:
    """A 01-sequence with finitely many zeros, encoded by its zero positions."""

    zeros: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "zeros", frozenset(map(zero_position, self.zeros)))

    @classmethod
    def leading_zeros(cls, count: int) -> "ZeroSetScenario":
        """The sequence 0^count 1 1 1 ...; count = 0 gives all ones."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        return cls(frozenset(range(count)))

    def bit(self, n: int) -> int:
        if n < 0:
            raise ValueError("positions start at 0")
        return 0 if n in self.zeros else 1

    @property
    def sort_key(self) -> tuple:
        return (len(self.zeros), tuple(sorted(self.zeros)))

    def __str__(self) -> str:
        if not self.zeros:
            return "111..."
        width = max(self.zeros) + 2
        return "".join(str(self.bit(n)) for n in range(width)) + "..."

    def __repr__(self) -> str:
        return f"ZeroSetScenario({{{', '.join(map(str, sorted(self.zeros)))}}})"


def splitting_family(a: ZeroSetScenario, b: ZeroSetScenario) -> DifferenceRow:
    """Splitting points of two sequences: the row positions where they differ."""
    if a == b:
        raise ValueError("a scenario has no splitting family with itself")
    return DifferenceRow(a.zeros, b.zeros)


class BinaryRowModel(BranchingModel):
    """Generator-mode model over all ZeroSetScenarios (dimension 2)."""

    dimension = 2

    def has_scenario(self, label) -> bool:
        return isinstance(label, ZeroSetScenario)

    def scenario_list(self) -> None:
        return None

    def family(self, a: ZeroSetScenario, b: ZeroSetScenario) -> DifferenceRow:
        self.require_scenario(a)
        self.require_scenario(b)
        return splitting_family(a, b)

    def __repr__(self) -> str:
        return "BinaryRowModel()"


def chain_points(count: int) -> list[Point]:
    """The ascending locations z_i = (i - 1/2, 0) for i = 1..count."""
    if count < 1:
        raise ValueError("count must be at least 1")
    half = Fraction(1, 2)
    return [point(Fraction(i) - half, 0) for i in range(1, count + 1)]


def chain_labeled(count: int) -> list[LabeledPoint]:
    """The chain [z_i in sigma_i]: each location labeled with its own depth."""
    return [
        LabeledPoint(z, ZeroSetScenario.leading_zeros(i))
        for i, z in enumerate(chain_points(count), start=1)
    ]


def verify_chain(count: int, model: BinaryRowModel | None = None) -> bool:
    """Exact check that the labeled chain is strictly ascending in the glued order."""
    model = model or BinaryRowModel()
    chain = chain_labeled(count)
    for i, lower in enumerate(chain):
        for upper in chain[i + 1:]:
            if not events.lt(model, lower, upper):
                return False
    return True


def exclusion_witness(scenario: ZeroSetScenario, model: BinaryRowModel | None = None) -> int:
    """The least position k where the sequence holds a 1, verified exactly.

    The verification shows why no such scenario can represent a history
    containing the whole chain: (0, k) is a splitting point of the scenario
    against the depth-(k+1) chain label, and it lies strictly below
    z_{k+1}, so the scenario's copy of z_{k+1} is not glued to the chain's.
    """
    model = model or BinaryRowModel()
    k = 0
    while scenario.bit(k) == 0:
        k += 1
    separator = ZeroSetScenario.leading_zeros(k + 1)
    fam = splitting_family(scenario, separator)
    z_next = chain_points(k + 1)[-1]
    split_at = point(0, k)
    if not fam.contains(split_at):
        raise RuntimeError(f"expected {split_at!r} to split {scenario} from {separator}")
    if model.in_overlap(scenario, separator, z_next):
        raise RuntimeError(f"{scenario} unexpectedly glued to the chain at {z_next!r}")
    return k


@dataclass(frozen=True)
class PrefixZeroScenarios:
    """The scenarios glued to the chain at depth i: zeros covering 0..i-1.

    Decidable membership over an infinite set; depth 0 is the whole
    scenario space (every scenario is glued to everything at the chain's
    declared infimum (-1, 0), which sits below the entire row).
    """

    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")

    def contains(self, scenario: ZeroSetScenario) -> bool:
        return all(scenario.bit(n) == 0 for n in range(self.depth))

    def samples(self, count: int = 2) -> list[ZeroSetScenario]:
        return [ZeroSetScenario.leading_zeros(self.depth + j) for j in range(count)]

    def __str__(self) -> str:
        if self.depth == 0:
            return "all scenarios"
        return f"scenarios with zeros at 0..{self.depth - 1}"


def scenarios_at_chain_point(i: int) -> PrefixZeroScenarios:
    """Closed form of the chain's per-depth scenario set.

    A scenario is glued to the chain's event at z_i exactly when none of
    its difference positions against sigma_i lies strictly below z_i, i.e.
    when its zeros cover the prefix 0..i-1.
    """
    if i < 1:
        raise ValueError("chain depths start at 1")
    return PrefixZeroScenarios(i)


def _all_scenarios_with_support(bound: int) -> list[ZeroSetScenario]:
    support = list(range(bound))
    out = []
    for mask in range(1 << bound):
        zeros = frozenset(p for bit, p in enumerate(support) if mask >> bit & 1)
        out.append(ZeroSetScenario(zeros))
    return sorted(out, key=lambda s: s.sort_key)


def centred_family_report(depth: int, support_bound: int = 4) -> Report:
    """The shrinking-intersection trace behind the compactness failure.

    Checks, exactly:

    * every finite intersection of the per-depth scenario sets up to
      `depth` is nonempty (the leading-zeros scenario of matching depth is
      a member, double-checked through the real gluing queries);
    * every scenario with zero support inside 0..support_bound-1 is
      excluded from some per-depth set (at depth witness+1), so nothing
      survives all depths.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    model = BinaryRowModel()
    report = Report("centred-family")

    report.add("chain", verify_chain(depth, model), f"depths 1..{depth} strictly ascending")

    bad_depths = []
    for upto in range(1, depth + 1):
        witness = ZeroSetScenario.leading_zeros(upto)
        sets = [scenarios_at_chain_point(i) for i in range(1, upto + 1)]
        closed_form_ok = all(s.contains(witness) for s in sets)
        glued_ok = all(
            model.in_overlap(witness, ZeroSetScenario.leading_zeros(i), z)
            for i, z in enumerate(chain_points(upto), start=1)
        )
        if not (closed_form_ok and glued_ok):
            bad_depths.append(upto)
    report.add(
        "finite-intersections", not bad_depths,
        f"nonempty up to depth {depth}" if not bad_depths else f"failed at depths {bad_depths}")

    excluded = 0
    problems = []
    for scenario in _all_scenarios_with_support(support_bound):
        k = exclusion_witness(scenario, model)
        if scenarios_at_chain_point(k + 1).contains(scenario):
            problems.append(scenario)
        else:
            excluded += 1
    report.add(
        "total-intersection", not problems,
        f"all {excluded} scenarios with support in 0..{support_bound - 1} "
        f"excluded by their witness depth" if not problems
        else f"not excluded: {problems[:3]!r}")
    return report
