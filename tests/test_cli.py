import json
from fractions import Fraction as F

import pytest

import minkbranch as mb
from minkbranch.cli import main
from minkbranch.minkowski import point


@pytest.fixture
def two_path(tmp_path, two_scenario_model):
    path = tmp_path / "two.mbs"
    mb.dump(two_scenario_model, path)
    return str(path)


@pytest.fixture
def harmonic_path(tmp_path, harmonic_model):
    path = tmp_path / "harmonic.mbs"
    mb.dump(harmonic_model, path)
    return str(path)


@pytest.fixture
def triangle_path(tmp_path, triangle_violation_model):
    path = tmp_path / "triangle.mbs"
    mb.dump(triangle_violation_model, path)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_pass(capsys, two_path):
    code, out, _ = run(capsys, ["validate", "--model", two_path])
    assert code == 0
    assert out.startswith("[validate] PASS")


def test_validate_failure_lists_witness(capsys, triangle_path):
    code, out, _ = run(capsys, ["validate", "--model", triangle_path])
    assert code == 1
    assert "[validate] FAIL" in out
    assert "triangle: FAIL" in out
    assert "Point(0, 1)" in out


def test_query_order(capsys, two_path):
    code, out, _ = run(capsys, [
        "query", "order", "--model", two_path,
        "--a", '{"point": ["-2/1", "0/1"], "scenario": "s1"}',
        "--b", '{"point": ["-1/1", "0/1"], "scenario": "s2"}',
    ])
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, [
        "query", "order", "--model", two_path,
        "--a", '{"point": ["1/1", "0/1"], "scenario": "s1"}',
        "--b", '{"point": ["2/1", "0/1"], "scenario": "s2"}',
    ])
    assert (code, out.strip()) == (0, "false")


def test_query_equiv_and_overlap_and_history(capsys, two_path):
    code, out, _ = run(capsys, [
        "query", "equiv", "--model", two_path,
        "--a", '{"point": ["-1/1", "0/1"], "scenario": "s1"}',
        "--b", '{"point": ["-1/1", "0/1"], "scenario": "s2"}',
    ])
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, [
        "query", "overlap", "--model", two_path,
        "--pair", "s1,s2", "--point", '["1/2", "0/1"]',
    ])
    assert (code, out.strip()) == (0, "false")
    code, out, _ = run(capsys, [
        "query", "history", "--model", two_path,
        "--a", '{"point": ["1/1", "0/1"], "scenario": "s1"}',
        "--history", "s2",
    ])
    assert (code, out.strip()) == (0, "false")


def test_choice_points_command(capsys, harmonic_path):
    code, out, _ = run(capsys, [
        "choice-points", "--model", harmonic_path,
        "--pair", "u,v", "--point", '["0/1", "0/1"]',
    ])
    assert code == 0
    assert out == "generated: false\nchoice-point: true (emergent)\n"


def test_axioms_command_deterministic(capsys, two_path):
    argv = ["axioms", "--model", two_path, "--seed", "5", "--cases", "60"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "[axiom-suite] PASS" in out1


def test_counterexample_command(capsys):
    code, out, _ = run(capsys, ["counterexample", "--depth", "3", "--support", "2"])
    assert code == 0
    assert "binary-row chain to depth 3" in out
    assert "[centred-family] PASS" in out
    assert "first 1 at position" in out


def test_oracle_command_with_csv(capsys, tmp_path, two_path):
    csv_path = tmp_path / "scan.csv"
    code, out, _ = run(capsys, [
        "oracle", "--model", two_path,
        "--box", "-1,1", "-1,1", "--step", "1/2", "--csv", str(csv_path),
    ])
    assert code == 0
    assert "[oracle-cross-check] PASS" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x,in_region,choice_point"
    assert len(lines) == 26


def test_oracle_refine_below_one_is_usage_error(capsys, two_path):
    for factor in ("0", "-1"):
        code, out, err = run(capsys, [
            "oracle", "--model", two_path, "--box", "-1,1", "-1,1", "--step", "1/2",
            "--refine", factor,
        ])
        assert (code, out) == (2, "")
        assert "refinement factor must be at least 1" in err


def test_float_coordinates_are_usage_errors(capsys, two_path):
    for text in ('[1.5, 0]', '["1/2", 0.0]', '[true, 0]'):
        code, out, err = run(capsys, [
            "query", "overlap", "--model", two_path, "--pair", "s1,s2", "--point", text,
        ])
        assert (code, out) == (2, ""), text
        assert "bad coordinate" in err
    code, out, err = run(capsys, [
        "query", "order", "--model", two_path,
        "--a", '{"point": [-1.5, 0], "scenario": "s1"}',
        "--b", '{"point": ["0/1", "0/1"], "scenario": "s2"}',
    ])
    assert (code, out) == (2, "")
    assert "bad coordinate" in err
    # integers stay accepted
    code, out, _ = run(capsys, [
        "query", "overlap", "--model", two_path, "--pair", "s1,s2", "--point", "[-1, 0]",
    ])
    assert (code, out.strip()) == (0, "true")


def test_plot_command(capsys, tmp_path, harmonic_path):
    svg_path = tmp_path / "region.svg"
    csv_path = tmp_path / "region.csv"
    code, out, _ = run(capsys, [
        "plot", "--model", harmonic_path, "--pair", "u,v",
        "--box", "-1/2,1/2", "-1/2,1/2", "--step", "1/8",
        "--svg", str(svg_path), "--csv", str(csv_path),
    ])
    assert code == 0
    assert "<svg" in svg_path.read_text()
    assert csv_path.read_text().startswith("t,x,in_region,choice_point\n")


def test_parse_error_exit_codes(capsys, tmp_path, two_path):
    bad = tmp_path / "bad.mbs"
    bad.write_text('{"dimension": 2, "scenarios": ["a"], "families": [], "x": 1}')
    code, _, err = run(capsys, ["validate", "--model", str(bad)])
    assert code == 2
    assert "parse error at $.x" in err

    code, _, err = run(capsys, ["validate", "--model", str(tmp_path / "missing.mbs")])
    assert code == 2
    assert "not found" in err

    code, _, err = run(capsys, [
        "query", "order", "--model", two_path,
        "--a", "notjson", "--b", '{"point": ["0/1", "0/1"], "scenario": "s1"}',
    ])
    assert code == 2
    assert "bad labeled-point JSON" in err

    code, _, err = run(capsys, [
        "query", "order", "--model", two_path,
        "--a", '{"point": ["0/1", "0/1"], "scenario": "s1"}',
    ])
    assert code == 2
    assert "needs --b" in err

    code, _, err = run(capsys, [
        "query", "overlap", "--model", two_path,
        "--pair", "s1,zz", "--point", '["0/1", "0/1"]',
    ])
    assert code == 2
    assert "unknown scenario" in err

    code, _, err = run(capsys, [
        "query", "overlap", "--model", two_path,
        "--pair", "s1,s2", "--point", '["0/1", "0/1", "0/1"]',
    ])
    assert code == 2

    code, _, err = run(capsys, [
        "oracle", "--model", two_path, "--box", "-1,1", "--step", "1/2",
    ])
    assert code == 2

    code, _, err = run(capsys, [
        "oracle", "--model", two_path, "--box", "1,-1", "-1,1", "--step", "1/2",
    ])
    assert code == 2


def test_argparse_usage_error_is_exit_2(two_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["query", "nonsense", "--model", two_path])
    assert exit_info.value.code == 2
