"""Tests of the benchmark itself.

Each workload runs one round on the real package, and every output check
is shown to fail once the value it expects is corrupted.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import AxiomBattery, CliSession, OracleHarmonic  # noqa: E402

SEED = 5


def one_round(workload, in_process):
    workload.setup()
    loop = run.Loop(workload, in_process)
    loop.run(0)
    assert loop.failed == 0
    return loop.outputs


@pytest.fixture(scope="module")
def oracle_run():
    workload = OracleHarmonic(SEED)
    return workload, one_round(workload, True)


@pytest.fixture(scope="module")
def axiom_run():
    workload = AxiomBattery(SEED)
    return workload, one_round(workload, True)


@pytest.fixture(scope="module")
def cli_run():
    workload = CliSession(SEED)
    try:
        yield workload, one_round(workload, False)
    finally:
        workload.close()


def problems(workload, outputs):
    return [p for label, out in outputs for p in workload.check(label, out)]


def test_oracle_harmonic_operation_passes(oracle_run):
    workload, outputs = oracle_run
    assert len(outputs) == 1
    assert problems(workload, outputs) == []
    assert workload.deep_check() == []


def test_oracle_harmonic_checks_catch_corruption(oracle_run, monkeypatch):
    workload, outputs = oracle_run
    monkeypatch.setattr(workload, "order_samples", workload.order_samples + 1)
    assert problems(workload, outputs)
    monkeypatch.undo()
    monkeypatch.setattr(workload, "xs", workload.xs[:-1])
    assert problems(workload, outputs)
    monkeypatch.undo()
    some = next(iter(workload.expected_overlap))
    monkeypatch.setattr(workload, "expected_overlap", workload.expected_overlap - {some})
    monkeypatch.setattr(workload, "expected_flagged", workload.expected_flagged | {some})
    corner = (workload.ts[0], workload.xs[0])   # flagged, so never an unflagged candidate
    monkeypatch.setattr(workload, "expected_candidates", workload.expected_candidates | {corner})
    found = " ".join(workload.deep_check())
    for what in ("overlap set", "flagged set", "unflagged candidates"):
        assert what in found


def test_axiom_battery_operation_passes(axiom_run):
    workload, outputs = axiom_run
    assert len(outputs) == 1 and len(outputs[0][1]) == 7
    assert max(len(m.scenarios) for m, _ in workload.battery) >= 5
    assert problems(workload, outputs) == []
    assert workload.deep_check() == []


def test_axiom_battery_checks_catch_corruption(axiom_run, monkeypatch):
    workload, outputs = axiom_run
    monkeypatch.setattr(workload, "cases", workload.cases + 1)
    assert problems(workload, outputs)
    monkeypatch.undo()
    monkeypatch.setattr(workload, "suite_lines", workload.suite_lines[1:])
    assert problems(workload, outputs)
    monkeypatch.undo()
    monkeypatch.setattr(ref, "finite_triangle_holds", lambda *args: True)
    corrupted = AxiomBattery(SEED)
    corrupted.setup()
    assert corrupted.deep_check()


def test_cli_session_round_passes(cli_run):
    workload, outputs = cli_run
    assert [label for label, _ in outputs] == [label for label, _ in workload.script()]
    assert 0 < workload.peak_kib < 200 * 1024
    assert 0 < workload.last_cpu_s < 10
    assert problems(workload, outputs) == []
    assert workload.deep_check() == []


def test_cli_session_exit_code_checks_catch_corruption(cli_run, monkeypatch):
    workload, outputs = cli_run
    for label, out in outputs:
        monkeypatch.setitem(workload.expected_rc, label, workload.expected_rc[label] + 3)
        assert workload.check(label, out), label
        monkeypatch.undo()


def test_cli_session_query_checks_catch_corruption(cli_run, monkeypatch):
    workload, outputs = cli_run
    answers = workload.query_answers()
    monkeypatch.setattr(workload, "query_answers", lambda: {k: not v for k, v in answers.items()})
    failing = {label for label, out in outputs if workload.check(label, out)}
    assert failing == set(answers)


@pytest.mark.parametrize("name, labels", [
    ("split_at_origin_in_region", {"oracle"}),
    ("harmonic_in_overlap", {"plot"}),
    ("harmonic_choice_point", {"choice-points", "plot"}),
    ("boundary_flagged", {"oracle"}),
    ("finite_triangle_holds", {"validate-violation"}),
    ("first_one", {"counterexample"}),
])
def test_cli_session_output_checks_catch_corruption(cli_run, monkeypatch, name, labels):
    workload, outputs = cli_run
    answers = workload.query_answers()
    original = getattr(ref, name)
    if name == "first_one":
        monkeypatch.setattr(ref, name, lambda bits: original(bits) + 1)
    else:
        monkeypatch.setattr(ref, name, lambda *args: not original(*args))
    corrupted = CliSession(SEED)
    corrupted.tmp = workload.tmp
    corrupted.query_answers = lambda: answers
    failing = {label for label, out in outputs if corrupted.check(label, out)}
    assert failing == labels


def test_cli_session_catches_changed_bytes(cli_run):
    workload, outputs = cli_run
    label, (rc, stdout, stderr, files) = outputs[0]
    assert workload.check(label, (rc, stdout + b" ", stderr, files))


def test_integer_reference_matches_enumeration():
    q = 16
    for a in range(-4, 20):
        for b in range(-20, 21):
            below = a > 0 and any(abs(b * n - s * q) <= a * n
                                  for n in range(1, 2000) for s in (1, -1))
            assert ref.harmonic_in_overlap(a, b, q) == (not below), (a, b)
            row = a > 0 and any(abs(b - n * q) <= a for n in range(0, 10))
            assert ref.integer_row_in_overlap(a, b, q) == (not row), (a, b)


def test_tracer_counts_nested_calls_and_restores():
    from minkbranch import families, minkowski, point
    original = minkowski.lt
    tracer = Tracer()
    tracer.install([(minkowski, "lt", "minkowski.lt"), (minkowski, "leq", "minkowski.leq")], [])
    try:
        assert families.lt is not original
        with tracer.operation("probe"):
            assert minkowski.lt(point(0, 0), point(1, 0))
    finally:
        tracer.uninstall()
    assert minkowski.lt is original and families.lt is original
    assert tracer.calls("minkowski.lt") == tracer.calls("minkowski.leq") == 1
    assert 0 <= tracer.self_ns("minkowski.lt") <= tracer.inclusive_ns("minkowski.lt")
    assert [s[3] for s in tracer.spans] == ["minkowski.leq", "minkowski.lt", "op:probe"]


def test_trace_targets_cover_every_layer():
    functions, methods, generators = run.trace_targets()
    names = {name for _, _, name in functions + methods}
    for kind in ("finite", "integer_row", "harmonic_pair", "difference_row"):
        assert {f"families.{kind}.{q}" for q in run.CONE_QUERIES} <= names
    assert {"minkowski.lt", "model.in_overlap", "model.validate_model", "events.leq",
            "histories.is_choice_point", "sampling.Sampler.point", "oracle.oracle_overlap",
            "oracle.GridSpec.points"} <= names
    assert len(generators) == 4


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli-session",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
