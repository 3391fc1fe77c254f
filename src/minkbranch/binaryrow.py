"""The binary-row model: infinitely many scenarios over one row of points.

Scenarios are 01-sequences with finitely many zeros, encoded by their zero
sets.  Two scenarios split exactly at the row points (0, j) where their
bits differ, so every pair family is a finite DifferenceRow and the whole
model works in generator mode: scenario membership is decidable but the
scenario set cannot be listed.

The construction matters because of one chain.  With z_i = (i - 1/2, 0)
and sigma_i the sequence with zeros exactly at 0..i-1, the labeled points
[z_i in sigma_i] ascend strictly in the glued space, and the scenarios
glued to the chain at depth i are those whose zeros cover 0..i-1.  These
sets are nonempty and nested, yet no sequence with finitely many zeros
lies in all of them: a centred family of closed sets with empty
intersection, so the chain topology of a history containing the chain
fails compactness.  `centred_family_report` proves this in closed form for
every depth and every scenario; its caps bound only the rows printed.
"""

from __future__ import annotations

from fractions import Fraction

from . import events
from .errors import _quoted
from .events import LabeledPoint
from .families import DifferenceRow, zero_position
from .minkowski import Point, _Value, point
from .model import BranchingModel
from .reporting import Report

#: Hard cap on the zero-support bound: its scenarios are all listed, 2**bound of them.
SUPPORT_BUDGET = 16
#: Hard cap on the chain depth: one row is printed per depth.
DEPTH_BUDGET = 100


class ZeroSetScenario(_Value):
    """A 01-sequence with finitely many zeros, encoded by its zero positions."""

    __slots__ = _fields = ("zeros",)

    def __init__(self, zeros: frozenset[int]):
        self._store(zeros=frozenset(map(zero_position, zeros)))

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

    def first_one(self) -> int:
        """The least position holding a 1: one of 0..len(zeros) does."""
        return min(set(range(len(self.zeros) + 1)) - self.zeros)

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
    """The scenario's `first_one` k, verified exactly.

    The verification shows why no such scenario can represent a history
    containing the whole chain: (0, k) is a splitting point of the scenario
    against the depth-(k+1) chain label, and it lies strictly below
    z_{k+1}, so the scenario's copy of z_{k+1} is not glued to the chain's.
    """
    model = model or BinaryRowModel()
    k = scenario.first_one()
    separator = ZeroSetScenario.leading_zeros(k + 1)
    fam = splitting_family(scenario, separator)
    z_next = point(Fraction(2 * k + 1, 2), 0)      # z_{k+1}
    split_at = point(0, k)
    if not fam.contains(split_at):
        raise RuntimeError(f"expected {split_at!r} to split {scenario} from {separator}")
    if model.in_overlap(scenario, separator, z_next):
        raise RuntimeError(f"{scenario} unexpectedly glued to the chain at {z_next!r}")
    return k


class PrefixZeroScenarios(_Value):
    """The scenarios glued to the chain at depth i: zeros covering 0..i-1.

    Decidable membership over an infinite set; depth 0 is the whole
    scenario space (every scenario is glued to everything at the chain's
    declared infimum (-1, 0), which sits below the entire row).
    """

    __slots__ = _fields = ("depth",)

    def __init__(self, depth: int):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        self._store(depth=depth)

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
    if bound > SUPPORT_BUDGET:
        raise ValueError(f"support bound {_quoted(bound)} exceeds {SUPPORT_BUDGET}: "
                         f"2**{_quoted(bound)} scenarios")
    scenarios = (ZeroSetScenario(frozenset(p for p in range(bound) if mask >> p & 1))
                 for mask in range(1 << bound))
    return sorted(scenarios, key=lambda s: s.sort_key)


def centred_family_report(depth: int, support_bound: int = 4) -> Report:
    """The compactness failure, proved for every depth and every scenario.

    z_i lies strictly above the row point (0, n) exactly when n <= i - 1:
    the margin dt - |dx| = i - 1/2 - n changes sign between n = i - 1 and i.

    * chain: sigma_i and sigma_j (i < j) differ only at n = i..j-1, each
      with margin <= -1/2 below z_i, so [z_i, sigma_i] < [z_j, sigma_j];
    * finite-intersections: sigma_N is glued at z_1..z_N for every N, the
      chain statement read the other way;
    * total-intersection: any scenario has a least 1-position k, as its
      zeros are finite, and splits from sigma_{k+1} at (0, k), with margin
      +1/2 below z_{k+1}.

    `passed` cross-checks what the CLI prints through the real gluing
    queries, O(depth + 2**support_bound) of them.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > DEPTH_BUDGET:
        raise ValueError(f"depth {_quoted(depth)} exceeds {DEPTH_BUDGET}: "
                         "one row is printed per depth")
    scenarios = _all_scenarios_with_support(support_bound)
    model = BinaryRowModel()
    report = Report("centred-family")

    def add(name: str, failures: list, claim: str, checked: str) -> None:
        report.add(name, not failures, f"closed form, {claim}; {checked}" if not failures
                   else f"{checked}, failed at {failures[:3]!r}")

    # Adjacent pairs only: the margin covers every other pair.
    chain = chain_labeled(depth + 1)
    add("chain", [i for i, (lower, upper) in enumerate(zip(chain, chain[1:]), start=1)
                  if not events.lt(model, lower, upper)],
        "every depth", f"event order checked at depths 1..{depth}")
    top = chain[-1].scenario
    add("finite-intersections", [i for i, lp in enumerate(chain[:-1], start=1)
                                 if not model.in_overlap(top, lp.scenario, lp.point)],
        "every depth", f"{top} glued at z_1..z_{depth} checked")
    add("total-intersection", [s for s in scenarios if scenarios_at_chain_point(
            exclusion_witness(s, model) + 1).contains(s)],
        "every scenario", f"{len(scenarios)} witnesses with support in "
                          f"0..{support_bound - 1} checked")
    return report
