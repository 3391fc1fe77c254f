"""Acceptance battery.

Every check here is exact: rational arithmetic end to end, zero-failure
thresholds, no numeric tolerances.  Each test prints one summary line so a
plain `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

import minkbranch as mb
from minkbranch import events, minkowski
from minkbranch.events import LabeledPoint
from minkbranch.histories import (
    ChainSample,
    History,
    common_scenarios,
    is_choice_point,
    is_generated_choice_point,
    run_axiom_suite,
)
from minkbranch.minkowski import Point, point
from minkbranch.oracle import GridSpec, oracle_choice_points, oracle_cross_check
from minkbranch.sampling import SamplerConfig

from conftest import build_random_battery, history_order_agrees
from test_oracle import (
    FiniteSkippingFirst,
    HarmonicSkippingLargest,
    IntegerRowDroppingLightlike,
)


def report_line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {num} ({name}): {status} [{detail}]")
    assert ok, f"acceptance {num} ({name}): {detail}"


def rational_point(rng, dimension):
    return Point(tuple(F(rng.randint(-64, 64), 16) for _ in range(dimension)))


def causal_bump(rng, dimension):
    # spatial 1-norm at most dt keeps the displacement inside the cone
    k = rng.randint(1, 16)
    remaining = k
    spatial = []
    for _ in range(dimension - 1):
        s = rng.randint(-remaining, remaining)
        spatial.append(F(s, 16))
        remaining -= abs(s)
    return (F(k, 16),) + tuple(spatial)


@pytest.fixture(scope="module")
def presets():
    two = mb.Model(2, ("s1", "s2"), {("s1", "s2"): mb.FiniteFamily((point(0, 0),))})
    harmonic = mb.Model(2, ("u", "v"), {("u", "v"): mb.HarmonicPair(point(0, 0))})
    row = mb.Model(2, ("p", "q"), {("p", "q"): mb.IntegerRow(0)})
    return two, harmonic, row


@pytest.fixture(scope="module")
def battery():
    return build_random_battery()


def test_acceptance_1_order_laws():
    pair_failures = 0
    triple_failures = 0
    pairs_checked = 0
    triples_checked = 0
    for dimension in (2, 4):
        rng = random.Random(100 + dimension)
        for _ in range(50_000):
            x = rational_point(rng, dimension)
            y = rational_point(rng, dimension)
            pairs_checked += 1
            if not minkowski.leq(x, x):
                pair_failures += 1
            if minkowski.leq(x, y) and minkowski.leq(y, x) and x != y:
                pair_failures += 1
            states = [x == y, minkowski.lt(x, y), minkowski.lt(y, x),
                      minkowski.slr(x, y)]
            if states.count(True) != 1:
                pair_failures += 1
        for i in range(50_000):
            x = rational_point(rng, dimension)
            if i % 2 == 0:
                y = x.translated(causal_bump(rng, dimension))
                z = y.translated(causal_bump(rng, dimension))
            else:
                y = rational_point(rng, dimension)
                z = rational_point(rng, dimension)
            triples_checked += 1
            if minkowski.leq(x, y) and minkowski.leq(y, z) and not minkowski.leq(x, z):
                triple_failures += 1
    ok = pair_failures == 0 and triple_failures == 0
    report_line(1, "order laws", ok,
                f"{pairs_checked} pairs, {triples_checked} triples over d=2,4; "
                f"{pair_failures + triple_failures} failures")


def quotient_law_failures(model, seed, samples):
    rng = random.Random(seed)
    labels = model.scenarios
    failures = 0

    def labeled():
        return LabeledPoint(
            Point((F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4))),
            rng.choice(labels))

    budget = samples
    while budget > 0:
        a = labeled()
        b = labeled()
        budget -= 2
        # equivalence: reflexive, symmetric
        if not events.glued(model, a, a):
            failures += 1
        if events.glued(model, a, b) != events.glued(model, b, a):
            failures += 1
        # equivalence: transitive through a shared location
        sa, sb, sc = (rng.choice(labels) for _ in range(3))
        pa, pb, pc = (LabeledPoint(a.point, s) for s in (sa, sb, sc))
        if events.glued(model, pa, pb) and events.glued(model, pb, pc):
            if not events.glued(model, pa, pc):
                failures += 1
        # order: reflexive and antisymmetric
        if not events.leq(model, a, a):
            failures += 1
        if events.leq(model, a, b) and events.leq(model, b, a):
            if not events.same_event(model, a, b):
                failures += 1
        # order: transitive along a constructed ascent
        mid = LabeledPoint(a.point.translated(causal_bump(rng, 2)), rng.choice(labels))
        top = LabeledPoint(mid.point.translated(causal_bump(rng, 2)), rng.choice(labels))
        if events.leq(model, a, mid) and events.leq(model, mid, top):
            if not events.leq(model, a, top):
                failures += 1
    return failures


def test_acceptance_2_quotient_laws(presets, battery):
    two = presets[0]
    models = [two, *battery]
    assert len(models) >= 6
    total = 0
    failures = 0
    for i, model in enumerate(models):
        failures += quotient_law_failures(model, seed=200 + i, samples=10_000)
        total += 10_000

    # a model that breaks the triangle condition must show a concrete
    # sampled transitivity failure of the gluing relation
    broken = mb.Model(2, ("a", "b", "c"), {
        ("a", "b"): mb.FiniteFamily((point(0, 0),)),
        ("b", "c"): mb.FiniteFamily((point(0, 2),)),
        ("a", "c"): mb.FiniteFamily((point(0, 1),)),
    })
    witness = None
    for t in range(-8, 9):
        for x in range(-8, 9):
            p = Point((F(t, 4), F(x, 4)))
            pa, pb, pc = (LabeledPoint(p, s) for s in ("a", "b", "c"))
            if (events.glued(broken, pa, pb) and events.glued(broken, pb, pc)
                    and not events.glued(broken, pa, pc)):
                witness = p
                break
        if witness is not None:
            break

    ok = failures == 0 and witness is not None
    report_line(2, "quotient laws", ok,
                f"{len(models)} specs x 10000 labeled samples, {failures} failures; "
                f"transitivity breaks at {witness!r} without the triangle condition")


def test_acceptance_3_axiom_suite(presets, battery):
    failed = []
    models = [*presets, *battery]
    for i, model in enumerate(models):
        report = run_axiom_suite(model, SamplerConfig(seed=300 + i, cases=1000))
        if not report.passed:
            failed.append(report.render())
    report_line(3, "order axioms", not failed,
                f"{len(models)} validated specs x 1000 cases"
                + ("" if not failed else f"; first failure:\n{failed[0]}"))


def test_acceptance_4_finite_choice_collapse(presets, battery):
    two = presets[0]
    models = [two, *battery]
    grid = GridSpec(((-2, 2), (-2, 2)), F(1, 4))
    disagreements = 0
    points_checked = 0
    pairs_checked = 0
    for model in models:
        for a, b in combinations(model.scenarios, 2):
            scan = oracle_choice_points(model, a, b, grid)
            cand = set(scan.candidates)
            pairs_checked += 1
            for x in grid.points():
                if x in scan.flagged:
                    continue
                points_checked += 1
                if is_choice_point(model, a, b, x) != (x in cand):
                    disagreements += 1
    report_line(4, "finite-family choice points", disagreements == 0,
                f"{len(models)} explicit specs, {pairs_checked} pairs, "
                f"{points_checked} unflagged grid points, {disagreements} disagreements")


def test_acceptance_5_emergent_choice_point(presets):
    harmonic = presets[1]
    analytic_choice = is_choice_point(harmonic, "u", "v", point(0, 0))
    analytic_generated = is_generated_choice_point(harmonic, "u", "v", point(0, 0))
    grid = GridSpec(((F(-1, 2), F(1, 2)), (F(-1, 2), F(1, 2))), F(1, 8),
                    truncate=1000)
    scan = oracle_choice_points(harmonic, "u", "v", grid)
    listed = point(0, 0) in scan.candidates
    unflagged = point(0, 0) not in scan.flagged
    ok = analytic_choice and not analytic_generated and listed and unflagged
    report_line(5, "emergent choice point", ok,
                "harmonic center: choice point, not generated, oracle candidate "
                "on the 1/8 grid (members capped at 1000)")


def test_acceptance_6_noncompact_chain():
    model = mb.BinaryRowModel()
    chain_ok = mb.verify_chain(50)

    witness_failures = 0
    scenarios = 0
    for bits in range(2 ** 10):
        zeros = frozenset(i for i in range(10) if not (bits >> i) & 1)
        scenario = mb.ZeroSetScenario(zeros)
        scenarios += 1
        k = mb.exclusion_witness(scenario, model)
        chain_label = mb.ZeroSetScenario.leading_zeros(k + 1)
        z_next = mb.chain_points(k + 1)[k]
        verified = (
            scenario.bit(k) == 1
            and all(scenario.bit(j) == 0 for j in range(k))
            and model.family(scenario, chain_label).contains(point(0, k))
            and not model.in_overlap(scenario, chain_label, z_next)
        )
        if not verified:
            witness_failures += 1

    intersection_failures = 0
    for depth in range(1, 51):
        member = mb.ZeroSetScenario.leading_zeros(depth)
        for i in range(1, depth + 1):
            if not mb.binaryrow.scenarios_at_chain_point(i).contains(member):
                intersection_failures += 1
    # closed form backed by the real gluing queries
    report = mb.centred_family_report(50, support_bound=10)

    ok = (chain_ok and witness_failures == 0 and intersection_failures == 0
          and report.passed)
    report_line(6, "non-compact chain", ok,
                f"chain of 50 verified; {scenarios} zero-sets excluded with exact "
                f"witnesses; finite intersections nonempty to depth 50")


def test_acceptance_7_common_scenarios_nonempty(presets, battery):
    models = [presets[0], presets[1], presets[2], *battery]
    rng = random.Random(700)
    failures = 0
    for i in range(1000):
        model = models[i % len(models)]
        scenario = rng.choice(model.scenarios)
        start = Point((F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4)))
        pts = [start]
        for _ in range(rng.randint(2, 4)):
            pts.append(pts[-1].translated(causal_bump(rng, 2)))
        chain = ChainSample.from_points(pts)
        shared = common_scenarios(model, History(scenario), chain)
        if scenario not in shared:
            failures += 1
    report_line(7, "histories keep their label", failures == 0,
                f"1000 random (spec, history, chain) triples, {failures} empty")


def test_acceptance_8_history_isomorphism(presets, battery):
    models = [*presets, *battery]
    failures = 0
    pairs_per_spec = 10_000
    for i, model in enumerate(models):
        rng = random.Random(800 + i)
        pairs = []
        for _ in range(pairs_per_spec):
            x = Point((F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4)))
            if rng.random() < 0.5:
                y = x.translated(causal_bump(rng, 2))
            else:
                y = Point((F(rng.randint(-8, 8), 4), F(rng.randint(-8, 8), 4)))
            pairs.append((x, y))
        for scenario in model.scenarios:
            if not history_order_agrees(model, History(scenario), pairs):
                failures += 1
    report_line(8, "histories mirror the causal order", failures == 0,
                f"{len(models)} specs x {pairs_per_spec} location pairs, "
                f"both orientations, {failures} disagreements")


def test_acceptance_9_oracle_sensitivity():
    grid = GridSpec(((-2, 2), (-2, 2)), F(1, 4))
    mutants = [
        ("harmonic closed form skipping n=1",
         mb.Model(2, ("a", "b"), {("a", "b"): HarmonicSkippingLargest(point(0, 0))})),
        ("integer row dropping lightlike edges",
         mb.Model(2, ("a", "b"), {("a", "b"): IntegerRowDroppingLightlike(0)})),
        ("finite family skipping its first member",
         mb.Model(2, ("a", "b"), {("a", "b"): FiniteSkippingFirst((point(0, -1), point(0, 1)))})),
    ]
    undetected = []
    for name, model in mutants:
        report = oracle_cross_check(model, grid, order_samples=60)
        if report.passed:
            undetected.append(name)
    report_line(9, "oracle sensitivity", not undetected,
                f"{len(mutants)} mutated closed forms, each caught"
                if not undetected else f"missed: {', '.join(undetected)}")
