import random
from fractions import Fraction as F

import pytest

import minkbranch as mb
from minkbranch.errors import DimensionMismatch, MissingFamily, UnknownScenario
from minkbranch.minkowski import point
from minkbranch.model import (
    TRIANGLE_TRUNCATION,
    triangle_check,
    validate_model,
)

from conftest import (
    build_random_battery,
    overlap_inclusion_counterexample,
    reference_difference_triangle,
)


def check_names(report):
    return {r.name: r.passed for r in report.results}


def test_two_scenario_model_validates(two_scenario_model):
    report = validate_model(two_scenario_model)
    assert report.passed
    assert check_names(report) == {
        "labels": True,
        "dimension": True,
        "symmetry": True,
        "difference-consistency": True,
        "slr": True,
        "nonempty": True,
        "triangle": True,
    }


def test_model_construction_errors():
    fam = mb.FiniteFamily((point(0, 0),))
    with pytest.raises(ValueError):
        mb.Model(2, (), {})
    with pytest.raises(ValueError):
        mb.Model(2, ("a", "a"), {})
    with pytest.raises(ValueError):
        mb.Model(2, ("a",), {("a", "a"): fam})
    with pytest.raises(ValueError):
        mb.Model(1, ("a",), {})


def test_in_overlap_basics(two_scenario_model):
    m = two_scenario_model
    assert m.in_overlap("s1", "s2", point(-1, 0))
    assert m.in_overlap("s1", "s2", point(0, 0))       # the member itself
    assert m.in_overlap("s1", "s2", point(0, 5))       # space-like to it
    assert not m.in_overlap("s1", "s2", point(1, 0))
    assert not m.in_overlap("s1", "s2", point(1, 1))   # lightlike above
    assert m.in_overlap("s1", "s1", point(99, 0))      # same scenario
    with pytest.raises(UnknownScenario):
        m.in_overlap("s1", "nope", point(0, 0))
    with pytest.raises(DimensionMismatch):
        m.in_overlap("s1", "s2", point(0, 0, 0))


def test_in_overlap_checks_each_label_once(two_scenario_model):
    checked = []

    class Counting(mb.Model):
        def has_scenario(self, label):
            checked.append(label)
            return super().has_scenario(label)

    m = Counting(2, ("s1", "s2"), two_scenario_model.entries)
    assert not m.in_overlap("s1", "s2", point(1, 0))
    assert checked == []        # a pair-table hit proves both labels declared
    # the same-scenario shortcut still checks its label, before the dimension
    with pytest.raises(UnknownScenario):
        m.in_overlap("nope", "nope", point(0, 0, 0))
    with pytest.raises(UnknownScenario):
        m.in_overlap("s1", "nope", point(0, 0, 0))


def test_family_lookup_is_symmetric_and_first_wins():
    fam1 = mb.FiniteFamily((point(0, 0),))
    fam2 = mb.FiniteFamily((point(0, 1),))
    m = mb.Model(2, ("a", "b"), [(("a", "b"), fam1), (("b", "a"), fam2)])
    assert m.family("a", "b") is fam1
    assert m.family("b", "a") is fam1
    report = validate_model(m)
    assert not report.passed
    assert not check_names(report)["symmetry"]


# (a, b) -> the outcome of family(a, b) and of in_overlap(a, b, (1, 0)): the exception's
# type name and text, or "ok", on a model whose second entry names an undeclared label
LOOKUP_OUTCOMES = [
    (("nope", "a"), ("UnknownScenario", "unknown scenario 'nope'"),
     ("UnknownScenario", "unknown scenario 'nope'")),
    (("a", "nope"), ("UnknownScenario", "unknown scenario 'nope'"),
     ("UnknownScenario", "unknown scenario 'nope'")),
    (("nope", "nope"), ("UnknownScenario", "unknown scenario 'nope'"),
     ("UnknownScenario", "unknown scenario 'nope'")),
    (("a", "a"), ("ValueError", "a scenario has no splitting family with itself"), "ok"),
    (("b", "zz"), ("UnknownScenario", "unknown scenario 'zz'"),
     ("UnknownScenario", "unknown scenario 'zz'")),
    (("zz", "b"), ("UnknownScenario", "unknown scenario 'zz'"),
     ("UnknownScenario", "unknown scenario 'zz'")),
    (("a", "c"), ("MissingFamily", "no splitting family declared for 'a', 'c'"),
     ("MissingFamily", "no splitting family declared for 'a', 'c'")),
    (("c", "a"), ("MissingFamily", "no splitting family declared for 'c', 'a'"),
     ("MissingFamily", "no splitting family declared for 'c', 'a'")),
    ((["x"], "a"), ("TypeError", "unhashable type: 'list'"),
     ("TypeError", "unhashable type: 'list'")),
    (("a", ["x"]), ("TypeError", "unhashable type: 'list'"),
     ("TypeError", "unhashable type: 'list'")),
    # the first label is checked first, as before the pair table
    (("nope", ["x"]), ("UnknownScenario", "unknown scenario 'nope'"),
     ("UnknownScenario", "unknown scenario 'nope'")),
    ((["x"], ["x"]), ("TypeError", "unhashable type: 'list'"),
     ("TypeError", "unhashable type: 'list'")),
    (({}, "nope"), ("TypeError", "unhashable type: 'dict'"),
     ("TypeError", "unhashable type: 'dict'")),
    (("a", "b"), "ok", "ok"),
    (("b", "a"), "ok", "ok"),
    ((1, "b"), "ok", "ok"),
    ((True, "b"), "ok", "ok"),      # equal labels hash equal
]


@pytest.mark.parametrize("pair, family_outcome, overlap_outcome", LOOKUP_OUTCOMES,
                         ids=[repr(pair) for pair, _, _ in LOOKUP_OUTCOMES])
def test_family_and_in_overlap_raise_the_checked_paths_errors(pair, family_outcome,
                                                              overlap_outcome):
    fam = mb.FiniteFamily((point(0, 0),))
    m = mb.Model(2, ("a", "b", "c", 1), [(("a", "b"), fam), (("b", "zz"), fam), ((1, "b"), fam)])
    for call, expected in ((lambda: m.family(*pair), family_outcome),
                           (lambda: m.in_overlap(*pair, point(1, 0)), overlap_outcome)):
        try:
            call()
            outcome = "ok"
        except Exception as exc:    # noqa: BLE001 - the outcome under test is any exception
            outcome = (type(exc).__name__, str(exc))
        assert outcome == expected


def test_unhashable_entry_labels_fail_construction():
    fam = mb.FiniteFamily((point(0, 0),))
    for entries in ([(("zz", ["x"]), fam)], [((["x"], "a"), fam)],
                    [(("a", "zz"), fam), (("b", ["x"]), fam)]):
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            mb.Model(2, ("a", "b"), entries)


def test_missing_family_raises():
    fam = mb.FiniteFamily((point(0, 0),))
    m = mb.Model(2, ("a", "b", "c"), {("a", "b"): fam})
    with pytest.raises(MissingFamily):
        m.family("a", "c")
    report = validate_model(m)
    assert not report.passed


def test_slr_check_fails_on_ordered_members():
    bad = mb.FiniteFamily((point(0, 0), point(2, 1)))
    m = mb.Model(2, ("a", "b"), {("a", "b"): bad})
    report = validate_model(m)
    assert not check_names(report)["slr"]


def test_nonempty_check_fails_on_empty_family():
    m = mb.Model(2, ("a", "b"), {("a", "b"): mb.FiniteFamily(())})
    report = validate_model(m)
    assert not check_names(report)["nonempty"]


def test_triangle_counterexample_model(triangle_violation_model):
    m = triangle_violation_model
    result = triangle_check(m, "a", "b", "c")
    assert not result.ok
    assert result.witness == point(0, 1)

    report = validate_model(m)
    assert not report.passed
    assert not check_names(report)["triangle"]

    # overlap containment genuinely fails at (1/2, 1)
    x = point(F(1, 2), 1)
    assert m.in_overlap("a", "b", x)
    assert m.in_overlap("b", "c", x)
    assert not m.in_overlap("a", "c", x)
    found = overlap_inclusion_counterexample(
        m, "a", "b", "c", [point(0, 5), x])
    assert found == x


def test_triangle_passes_on_nested_differences():
    # families built from symmetric differences always satisfy the triangle
    zeros = {
        "a": frozenset({0, 1}),
        "b": frozenset({1, 2}),
        "c": frozenset({2, 3}),
    }
    m = mb.Model(2, ("a", "b", "c"), {
        (s, t): mb.DifferenceRow(zeros[s], zeros[t])
        for s, t in (("a", "b"), ("b", "c"), ("a", "c"))
    })
    result = triangle_check(m, "a", "b", "c")
    assert result.ok and result.method == "exhaustive"
    assert validate_model(m).passed


def test_triangle_check_matches_position_containment_on_difference_rows():
    rng = random.Random(2007)

    def row():
        return mb.DifferenceRow(frozenset(rng.sample(range(8), rng.randint(0, 4))),
                                frozenset(rng.sample(range(8), rng.randint(0, 4))))

    verdicts = {True: 0, False: 0}
    for _ in range(1000):
        ab, bc, ac = row(), row(), row()
        m = mb.Model(2, ("a", "b", "c"), {("a", "b"): ab, ("b", "c"): bc, ("a", "c"): ac})
        result = triangle_check(m, "a", "b", "c", truncate=1)
        witness = reference_difference_triangle(ab, bc, ac)
        assert (result.ok, result.witness) == (witness is None, witness), (ab, bc, ac)
        assert result.method == "exhaustive"
        verdicts[result.ok] += 1
    assert min(verdicts.values()) > 100


def test_difference_consistency_check():
    m = mb.Model(2, ("a", "b", "c"), {
        ("a", "b"): mb.DifferenceRow(frozenset({0}), frozenset({1})),
        ("b", "c"): mb.DifferenceRow(frozenset({5}), frozenset({2})),
        ("a", "c"): mb.DifferenceRow(frozenset({0}), frozenset({2})),
    })
    report = validate_model(m)
    assert not check_names(report)["difference-consistency"]


def test_triangle_check_needs_three_distinct():
    fam = mb.FiniteFamily((point(0, 0),))
    m = mb.Model(2, ("a", "b"), {("a", "b"): fam})
    with pytest.raises(ValueError):
        triangle_check(m, "a", "b", "a")


def test_truncation_below_one_is_rejected():
    # the (a, c) member at (0, 500 + 1/2) is beside every member of the two
    # rows; a truncation below 1 used to enumerate nothing and pass
    m = mb.Model(2, ("a", "b", "c"), {
        ("a", "b"): mb.IntegerRow(0),
        ("b", "c"): mb.IntegerRow(0),
        ("a", "c"): mb.HarmonicPair(point(0, 500)),
    })
    for truncate in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            validate_model(m, truncate=truncate)
        with pytest.raises(ValueError, match="at least 1"):
            triangle_check(m, "a", "b", "c", truncate=truncate)
    report = validate_model(m, truncate=200)
    assert not check_names(report)["triangle"]
    assert "uncovered at Point(0, 1001/2)" in report.render()


BOUNDED_NOTES = [f"triangle {t} holds on members up to index 1 only; bounded, not proved"
                 for t in ("('b','a','c')", "('a','b','c')", "('a','c','b')")]


def test_validate_notes_each_triangle_verdict_bounded_by_truncation(rows_under_harmonic_model):
    report = validate_model(rows_under_harmonic_model, truncate=1)
    assert report.notes == BOUNDED_NOTES
    # a pass that rests on a bounded triple never reads as a plain PASS
    assert report.passed and report.lines()[0] == "[validate] PASS (bounded)"
    # at the default the (a, c) triple fails on a witness, which no bound qualifies
    report = validate_model(rows_under_harmonic_model)
    assert not check_names(report)["triangle"]
    assert report.notes == [BOUNDED_NOTES[0].replace("index 1", f"index {TRIANGLE_TRUNCATION}"),
                            BOUNDED_NOTES[2].replace("index 1", f"index {TRIANGLE_TRUNCATION}")]


def test_validate_adds_no_note_on_finite_triples(triangle_violation_model, random_battery):
    for m in [triangle_violation_model] + random_battery:
        report = validate_model(m, truncate=1)
        assert report.notes == [] and not report.bounded
        assert report.lines()[0] == f"[validate] {'PASS' if report.passed else 'FAIL'}"


def test_infinite_families_validate_with_truncation(harmonic_model, integer_row_model):
    assert validate_model(harmonic_model).passed
    assert validate_model(integer_row_model, truncate=TRIANGLE_TRUNCATION).passed


def test_random_battery_validates():
    for m in build_random_battery():
        report = validate_model(m)
        assert report.passed, report.render()


def test_overlap_intersection_contained_in_validated_models():
    # on validated models the pairwise overlap regions nest correctly
    lattice = [point(F(t, 4), F(x, 4)) for t in range(-8, 9) for x in range(-8, 9)]
    for m in build_random_battery():
        labels = m.scenarios
        if len(labels) < 3:
            continue
        a, b, c = labels[0], labels[1], labels[2]
        w = overlap_inclusion_counterexample(m, a, b, c, lattice)
        assert w is None, (m, w)


def test_dimension_check_names_the_off_dimension_family():
    model = mb.Model(2, ("a", "b"), {("a", "b"): mb.FiniteFamily((point(0, 0, 0),))})
    report = validate_model(model)
    assert not report.passed
    assert "  dimension: FAIL (('a', 'b') is finite of dimension 3)" in report.lines()


def test_triples_over_families_of_different_dimensions_are_skipped_not_raised():
    model = mb.Model(3, ["a", "b", "c"], {
        ("a", "b"): mb.FiniteFamily((point(0, 0),)),
        ("b", "c"): mb.FiniteFamily((point(0, 0, 0),)),
        ("a", "c"): mb.FiniteFamily((point(0, 5, 0),)),
    })
    lines = validate_model(model).lines()
    assert "  dimension: FAIL (('a', 'b') is finite of dimension 2)" in lines
    assert "  triangle: ok (3 triple(s) skipped for families of different dimensions)" in lines
    gate = mb.run_axiom_suite(model).lines()
    assert "  validation-gate: FAIL (model fails validation (dimension); suite not run)" in gate
    # the missing-family text is unchanged
    partial = mb.Model(2, ["a", "b", "c"], {("a", "b"): mb.FiniteFamily((point(0, 0),))})
    assert ("  triangle: ok (3 triple(s) skipped for missing families)"
            in validate_model(partial).lines())
