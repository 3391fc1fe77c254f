"""The value-class contract: how each of the package's record types is built,
compared, hashed, shown and protected.

Every case names a class, its constructor arguments by position and by
keyword, the fields a bare call fills with defaults, one argument tuple per
compared field that changes that field alone, the fields its hash reads, and
the literal repr.
"""

import pickle
from fractions import Fraction as F
from itertools import compress

import pytest

from minkbranch.binaryrow import PrefixZeroScenarios, ZeroSetScenario
from minkbranch.events import EventClass, LabeledPoint
from minkbranch.families import DifferenceRow, FiniteFamily, HarmonicPair, IntegerRow
from minkbranch.histories import ChainSample, History
from minkbranch.minkowski import Point, point
from minkbranch.model import TriangleResult
from minkbranch.oracle import ChoiceScan, GridSpec, OverlapScan
from minkbranch.plotting import PlotCell
from minkbranch.reporting import CheckResult, Report
from minkbranch.sampling import SamplerConfig

P, Q, R, S = point(0, 1), point(0, 2), point(1, 1), point(-1, 1)
BOX = ((F(0), F(1)), (F(0), F(1)))
SCAN = OverlapScan((P, Q), (True, False), True, "n", "m")


class Case:
    def __init__(self, cls, params, args, repr_text, variants=(), defaults=None, same=(),
                 compared=None):
        self.cls, self.params, self.args, self.repr_text = cls, params, args, repr_text
        #: the fields, in order, whose tuple the hash is
        self.compared = params if compared is None else compared
        #: argument tuples that differ in one compared field, or only in an uncompared one
        self.variants, self.same = variants, same
        #: (the arguments of a call that leaves the defaults, the fields they fill)
        self.defaults = defaults

    def make(self, args=None):
        return self.cls(*(self.args if args is None else args))


CASES = [
    Case(Point, ("coords",), ((0, F(1, 2)),), "Point(0, 1/2)", [((0, 1),), ((1, F(1, 2)),)],
         same=[(("0", "1/2"),)]),
    Case(FiniteFamily, ("points",), ((Q, P),), "FiniteFamily(points=(Point(0, 1), Point(0, 2)))",
         [((P,),)], same=[((P, Q, P),)]),
    Case(IntegerRow, ("t0",), (F(1, 2),), "IntegerRow(t0=Fraction(1, 2))", [(0,)],
         same=[("1/2",)]),
    Case(HarmonicPair, ("center",), (P,), "HarmonicPair(center=Point(0, 1))", [(Q,)],
         same=[((0, 1),)]),
    Case(DifferenceRow, ("zeros_a", "zeros_b"), (frozenset({0, 2}), frozenset({1})),
         "DifferenceRow(zeros_a=frozenset({0, 2}), zeros_b=frozenset({1}), positions=(0, 1, 2))",
         [(frozenset({0, 1, 2}), frozenset({1, 1})), (frozenset({0, 2}), frozenset({1, 3}))],
         same=[((2, 0), [1])], compared=("zeros_a", "zeros_b", "positions")),
    Case(CheckResult, ("name", "passed", "detail"), ("slr", True, "d"),
         "CheckResult(name='slr', passed=True, detail='d')",
         [("x", True, "d"), ("slr", False, "d"), ("slr", True, "")],
         defaults=(("slr", True), {"detail": ""})),
    Case(Report, ("title", "results", "notes", "bounded"),
         ("t", [CheckResult("a", True)], ["n"], True),
         "Report(title='t', results=[CheckResult(name='a', passed=True, detail='')], "
         "notes=['n'], bounded=True)",
         [("u", [CheckResult("a", True)], ["n"], True), ("t", [], ["n"], True),
          ("t", [CheckResult("a", True)], [], True), ("t", [CheckResult("a", True)], ["n"], False)],
         defaults=(("t",), {"results": [], "notes": [], "bounded": False})),
    Case(TriangleResult, ("ok", "witness", "method"), (False, P, "exhaustive"),
         "TriangleResult(ok=False, witness=Point(0, 1), method='exhaustive')",
         [(True, P, "exhaustive"), (False, None, "exhaustive"), (False, P, "bounded")]),
    Case(LabeledPoint, ("point", "scenario"), (P, "a"), "Point(0, 1)@'a'",
         [(Q, "a"), (P, "b")]),
    Case(EventClass, ("point", "labels", "representative"), (P, frozenset("ab"), "a"),
         "EventClass(Point(0, 1), {'a','b'})",
         [(Q, frozenset("ab"), "a"), (P, frozenset("abc"), "a")],
         same=[(P, frozenset("ab"), "b")], compared=("point", "labels")),
    Case(History, ("scenario",), ("a",), "History(scenario='a')", [("b",)]),
    Case(ChainSample, ("points", "declared_infimum"), ((P, R), S),
         "ChainSample(points=(Point(0, 1), Point(1, 1)), declared_infimum=Point(-1, 1))",
         [((P,), S), ((P, R), None)], defaults=(((P, R),), {"declared_infimum": None}),
         same=[([P, R], S)]),
    Case(SamplerConfig, ("seed", "cases", "box", "step"), (1, 2, BOX, F(1, 4)),
         "SamplerConfig(seed=1, cases=2, box=((Fraction(0, 1), Fraction(1, 1)), "
         "(Fraction(0, 1), Fraction(1, 1))), step=Fraction(1, 4))",
         [(0, 2, BOX, F(1, 4)), (1, 3, BOX, F(1, 4)), (1, 2, None, F(1, 4)), (1, 2, BOX, F(1, 8))],
         defaults=((), {"seed": 0, "cases": 1000, "box": None, "step": F(1, 16)})),
    Case(GridSpec, ("box", "step", "truncate"), (BOX, F(1, 2), 7),
         "GridSpec(box=((Fraction(0, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(1, 1))), "
         "step=Fraction(1, 2), truncate=7)",
         [(((0, 2), (0, 1)), F(1, 2), 7), (BOX, F(1, 4), 7), (BOX, F(1, 2), 8)],
         defaults=((BOX, F(1, 2)), {"truncate": 1000}), same=[(((0, 1), ("0", 1)), "1/2", 7)]),
    Case(OverlapScan, ("grid_points", "kept", "adequate", "note", "members"),
         ((P, Q), (True, False), True, "n", "m"),
         "OverlapScan(grid_points=(Point(0, 1), Point(0, 2)), kept=(True, False), "
         "adequate=True, note='n', members='m')",
         [((P, R), (True, False), True, "n", "m"), ((P, Q), (True, True), True, "n", "m"),
          ((P, Q), (True, False), False, "n", "m"), ((P, Q), (True, False), True, "o", "m"),
          ((P, Q), (True, False), True, "n", "o")]),
    Case(ChoiceScan, ("candidates", "overlap", "is_candidate", "is_flagged"),
         ((P,), SCAN, (True, False), (False, True)),
         "ChoiceScan(candidates=(Point(0, 1),), overlap=OverlapScan(grid_points=(Point(0, 1), "
         "Point(0, 2)), kept=(True, False), adequate=True, note='n', members='m'), "
         "is_candidate=(True, False), is_flagged=(False, True))",
         [((), SCAN, (True, False), (False, True)), ((P,), None, (True, False), (False, True)),
          ((P,), SCAN, (False, False), (False, True)), ((P,), SCAN, (True, False), (True, True))]),
    Case(PlotCell, ("t", "x", "location", "in_region", "choice_point"),
         (F(0), F(1), P, True, False),
         "PlotCell(t=Fraction(0, 1), x=Fraction(1, 1), location=Point(0, 1), in_region=True, "
         "choice_point=False)",
         [(F(1), F(1), P, True, False), (F(0), F(2), P, True, False), (F(0), F(1), Q, True, False),
          (F(0), F(1), P, False, False), (F(0), F(1), P, True, True)]),
    Case(ZeroSetScenario, ("zeros",), (frozenset({3, 1}),), "ZeroSetScenario({1, 3})",
         [(frozenset({1}),)], same=[([1, 3, 3],)]),
    Case(PrefixZeroScenarios, ("depth",), (3,), "PrefixZeroScenarios(depth=3)", [(4,)]),
]


@pytest.fixture(params=CASES, ids=[case.cls.__name__ for case in CASES])
def case(request):
    return request.param


def test_the_contract_covers_every_value_class():
    assert len({case.cls for case in CASES}) == 19


def test_construction_by_position_keyword_and_default(case):
    value = case.make()
    assert value == case.cls(**dict(zip(case.params, case.args)))
    if case.defaults is not None:
        args, filled = case.defaults
        bare = case.cls(*args)
        assert {name: getattr(bare, name) for name in filled} == filled
        assert bare == case.cls(*args, *(filled[name] for name in case.params[len(args):]))


def test_equality_reads_exactly_the_compared_fields(case):
    value = case.make()
    assert value == case.make() and not value != case.make()
    for args in case.variants:
        assert value != case.make(args) and not value == case.make(args)
    for args in case.same:
        assert value == case.make(args)
        if case.cls is not Report:
            assert hash(value) == hash(case.make(args))


def test_an_instance_equals_only_its_own_class(case):
    value = case.make()
    subclass = type("Sub", (case.cls,), {"__slots__": ("extra",)})
    assert value != subclass(*case.args) and subclass(*case.args) != value
    # the base's __init__ fills the base's fields, whatever slots a subclass adds
    assert all(getattr(subclass(*case.args), name) == getattr(value, name)
               for name in case.params)
    assert value != object() and not value == "text" and value != None  # noqa: E711
    assert (value == 0) is False


def test_equal_values_hash_equal(case):
    if case.cls is Report:
        with pytest.raises(TypeError):
            hash(case.make())
    else:
        value = case.make()
        assert hash(value) == hash(case.make())
        assert hash(value) == hash(tuple(getattr(value, name) for name in case.compared))
        assert len({value, case.make()}) == 1


def test_repr_is_unchanged(case):
    assert repr(case.make()) == case.repr_text


def test_fields_cannot_be_set_or_deleted(case):
    value = case.make()
    for name in case.params if case.cls is not Point else ("form",):
        if case.cls is Report:
            setattr(value, name, getattr(value, name))
            continue
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == case.make()


def test_pickle_round_trip(case):
    value = case.make()
    assert pickle.loads(pickle.dumps(value)) == value


def test_cached_point_sets_still_work():
    assert SCAN.points == frozenset({P}) and SCAN.points is SCAN.points
    choice = ChoiceScan((P,), SCAN, (True, False), (False, True))
    assert choice.flagged == frozenset({Q}) and choice.flagged is choice.flagged
    assert SCAN.points == frozenset(compress(SCAN.grid_points, SCAN.kept))
