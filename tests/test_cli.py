import io
import json
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import minkbranch as mb
from minkbranch import oracle
from minkbranch.binaryrow import SUPPORT_BUDGET
from minkbranch.cli import build_parser, main
from minkbranch.errors import _quoted
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


def test_validate_prints_bounded_triangle_notes(capsys, tmp_path, rows_under_harmonic_model):
    path = tmp_path / "rows.mbs"
    mb.dump(rows_under_harmonic_model, path)
    code, out, _ = run(capsys, ["validate", "--model", str(path), "--truncate", "1"])
    assert code == 0
    assert out.splitlines()[0] == "[validate] PASS (bounded)"
    assert out.splitlines()[-3:] == [
        f"  note: triangle {t} holds on members up to index 1 only; bounded, not proved"
        for t in ("('b','a','c')", "('a','b','c')", "('a','c','b')")]


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


@pytest.mark.parametrize("flags, message", [
    (["--box", "1,-1", "-1,1"], "box bounds out of order"),
    (["--box", "-1,1"], "box has 1 coordinate ranges, model needs 2"),
    (["--step", "0"], "sampler step must be positive"),
])
def test_axioms_bad_box_or_step_is_usage_error(capsys, two_path, flags, message):
    code, out, err = run(capsys, ["axioms", "--model", two_path, "--cases", "5"] + flags)
    assert code == 2 and out == ""
    assert message in err


def test_oracle_notes_inadequate_truncation(capsys):
    model = str(Path(__file__).resolve().parents[1] / "demos" / "models" / "harmonic.mbs")
    code, out, _ = run(capsys, ["oracle", "--model", model, "--box", "-1/2,1/2", "-1/2,1/2",
                                "--step", "1/8", "--truncate", "7"])
    assert code == 1
    assert ("  note: u|v: truncation not provably adequate: "
            "member indices up to 8 reachable, cap 7") in out.splitlines()


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


def test_oracle_csv_scans_each_pair_once(capsys, monkeypatch, tmp_path, harmonic_path,
                                         triangle_path):
    scanned = []
    scan = oracle.oracle_overlap

    def counting(model, a, b, grid):
        scanned.append((a, b))
        return scan(model, a, b, grid)

    monkeypatch.setattr(oracle, "oracle_overlap", counting)
    csv_path = tmp_path / "scan.csv"
    code, out, _ = run(capsys, [
        "oracle", "--model", harmonic_path, "--box", "-1/2,1/2", "-1/2,1/2",
        "--step", "1/8", "--csv", str(csv_path),
    ])
    assert code == 0
    assert scanned == [("u", "v")]
    assert "wrote oracle scan for pair u,v" in out

    scanned.clear()
    run(capsys, ["oracle", "--model", triangle_path, "--box", "-1,1", "-1,3",
                 "--step", "1/2", "--csv", str(csv_path)])
    assert sorted(scanned) == [("a", "b"), ("a", "c"), ("b", "c")]


def test_oracle_refine_is_gone(capsys, two_path):
    with pytest.raises(SystemExit) as exit_info:
        main(["oracle", "--model", two_path, "--box", "-1,1", "-1,1", "--step", "1/2",
              "--refine", "8"])
    out, err = capsys.readouterr()
    assert (exit_info.value.code, out) == (2, "")
    assert "--refine" in err


def test_float_coordinates_are_usage_errors(capsys, two_path):
    for text, location in (('[1.5, 0]', "--point[0]"), ('["1/2", 0.0]', "--point[1]"),
                           ('[true, 0]', "--point[0]")):
        code, out, err = run(capsys, [
            "query", "overlap", "--model", two_path, "--pair", "s1,s2", "--point", text,
        ])
        assert (code, out) == (2, ""), text
        assert err == f"parse error at {location}: rationals are 'p/q' strings (or integers)\n"
    code, out, err = run(capsys, [
        "query", "order", "--model", two_path,
        "--a", '{"point": [-1.5, 0], "scenario": "s1"}',
        "--b", '{"point": ["0/1", "0/1"], "scenario": "s2"}',
    ])
    assert (code, out) == (2, "")
    assert err.startswith("parse error at --a.point[0]: rationals are")
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


def test_plot_writes_each_member_marker_once(capsys, tmp_path):
    # 200,000 harmonic members fall inside the box, on a few hundred pixel positions
    model = str(Path(__file__).resolve().parents[1] / "demos" / "models" / "harmonic.mbs")
    svg_path = tmp_path / "region.svg"
    code, out, _ = run(capsys, [
        "plot", "--model", model, "--pair", "u,v", "--box", "-1/2,1/2", "-1/2,1/2",
        "--step", "1/4", "--truncate", "100000", "--svg", str(svg_path),
    ])
    assert code == 0
    lines = svg_path.read_text().splitlines()
    assert len(lines) == len(set(lines))
    assert sum('r="3.00"' in line for line in lines) > 300
    assert svg_path.stat().st_size < 100_000


def test_parse_error_exit_codes(capsys, tmp_path, two_path):
    bad = tmp_path / "bad.mbs"
    bad.write_text('{"dimension": 2, "scenarios": ["a"], "families": [], "x": 1}')
    code, _, err = run(capsys, ["validate", "--model", str(bad)])
    assert code == 2
    assert "parse error at $.x" in err

    code, _, err = run(capsys, ["validate", "--model", str(tmp_path / "missing.mbs")])
    assert code == 2
    assert "not found" in err

    code, out, err = run(capsys, [
        "query", "order", "--model", two_path,
        "--a", "notjson", "--b", '{"point": ["0/1", "0/1"], "scenario": "s1"}',
    ])
    assert (code, out) == (2, "")
    assert err.startswith("parse error at --a: not valid JSON: ")

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


@pytest.mark.parametrize("argv", [
    ["counterexample", "--depth", "0"],
    ["counterexample", "--support", "0"],
    ["counterexample", "--support", "-1"],
    ["axioms", "--model", "MODEL", "--cases", "-3"],
    ["validate", "--model", "MODEL", "--truncate", "-5"],
    ["oracle", "--model", "MODEL", "--box", "-1,1", "-1,1", "--truncate", "0"],
    ["plot", "--model", "MODEL", "--pair", "s1,s2", "--box", "-1,1", "-1,1",
     "--svg", "unused.svg", "--truncate", "0"],
    ["counterexample", "--depth", "two"],
], ids=" ".join)
def test_numeric_flags_take_positive_integers(capsys, two_path, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([two_path if arg == "MODEL" else arg for arg in argv])
    out, err = capsys.readouterr()
    assert (exit_info.value.code, out) == (2, "")
    assert "positive integer" in err or "at least 1" in err


def test_non_string_scenario_is_usage_error(capsys, two_path):
    for label in ("[1]", "1", "null"):
        code, out, err = run(capsys, [
            "query", "order", "--model", two_path,
            "--a", f'{{"point": ["0/1", "0/1"], "scenario": {label}}}',
            "--b", '{"point": ["0/1", "0/1"], "scenario": "s1"}',
        ])
        assert (code, out) == (2, ""), label
        assert err.startswith("parse error at --a.scenario: expected a scenario label string")


LONG = "x" * 20_000
DIGITS = "1" * 20_000
HUGE = "7" * 4_000      # under the interpreter's int digit limit
VALIDATE = ["validate", "--model", "MODEL"]


def _edited_model(path, tmp_path, edit):
    """A copy of the model file at `path`, with `edit` applied to its JSON document."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    edit(doc)
    out = tmp_path / "edited.mbs"
    out.write_text(json.dumps(doc), encoding="utf-8")
    return str(out)


@pytest.mark.parametrize("edit, argv", [
    (lambda doc: doc["families"][0]["data"]["points"][0].__setitem__(0, LONG), VALIDATE),
    (lambda doc: doc["families"][0]["pair"].__setitem__(0, LONG), VALIDATE),
    (lambda doc: doc["scenarios"].extend(["s1" + LONG] * 2), VALIDATE),
    (lambda doc: doc.update(families=[dict(doc["families"][0], kind=LONG)]), VALIDATE),
    (None, ["query", "overlap", "--model", "MODEL", "--pair", "s1,s2",
            "--point", f'["{DIGITS}/", "0"]']),
    (None, ["query", "overlap", "--model", "MODEL", "--pair", f"s1,{LONG}",
            "--point", '["0", "0"]']),
    (None, ["query", "overlap", "--model", "MODEL", "--pair", f"s1,s2,{LONG}",
            "--point", '["0", "0"]']),
    (None, ["query", "overlap", "--model", "MODEL", "--pair", "s1,s2", "--point", "[" * 20_000]),
    (None, ["oracle", "--model", "MODEL", "--box", f"-1,1,{DIGITS}", "-1,1"]),
    (None, ["oracle", "--model", "MODEL", "--box", "-1,1", "-1,1", "--truncate", LONG]),
    (None, ["query", "order", "--model", "MODEL",
            "--a", '{"point": ["0", "0"], "scenario": [%s]}' % ",".join(["1"] * 5000),
            "--b", '{"point": ["0", "0"], "scenario": "s1"}']),
    (None, ["plot", "--model", "MODEL", "--pair", "s1,s2", "--box", "-1,1", "-1,1",
            "--svg", "OUT", "--fix", LONG]),
    (None, ["plot", "--model", "MODEL", "--pair", "s1,s2", "--box", "-1,1", "-1,1",
            "--svg", "OUT", "--fix", f"{LONG}=1"]),
    (lambda doc: doc.update({LONG: 1}), VALIDATE),
    (lambda doc: doc.update({chr(0x100 + i): 1 for i in range(10_000)}), VALIDATE),
    (None, ["query", "history", "--model", "MODEL", "--history", "s1",
            "--a", json.dumps({"point": ["0", "0"], "scenario": "s1", LONG: 1})]),
    (None, ["validate", "--model", f"MODEL{LONG}"]),
    (None, ["plot", "--model", "MODEL", "--pair", "s1,s2", "--box", "-1,1", "-1,1",
            "--svg", f"OUT/no/{LONG}"]),
    (None, ["plot", "--model", "MODEL", "--pair", "s1,s2", "--box", "-1,1", "-1,1",
            "--svg", "OUT", "--axis", HUGE]),
    (None, ["counterexample", "--depth", f"-{HUGE}"]),
], ids=["mbs-rational", "mbs-undeclared-label", "mbs-duplicate-label", "mbs-kind", "point",
        "pair-label", "pair", "point-json", "box", "truncate", "scenario", "fix", "fix-axis",
        "mbs-key", "mbs-keys", "labeled-key", "model-path", "svg-path", "axis", "depth"])
def test_long_input_is_quoted_bounded(capsys, tmp_path, two_path, edit, argv):
    paths = {"MODEL": _edited_model(two_path, tmp_path, edit) if edit else two_path,
             "OUT": str(tmp_path / "region.svg")}
    try:
        code = main([re.sub("^(MODEL|OUT)", lambda m: paths[m[0]], arg) for arg in argv])
    except SystemExit as exc:           # argparse's own usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.endswith("\n") and len(err.encode()) < 300, err[:400]


@pytest.mark.parametrize("argv", [
    [LONG],
    ["axioms", "--model", "MODEL", "--seed", LONG],
    ["validate", "--model", "MODEL", LONG, LONG],
], ids=["command", "seed", "unrecognized"])
def test_argparse_errors_are_cut(capsys, two_path, argv):
    # argparse quotes an argument whole; the CLI cuts its message to 200 characters
    with pytest.raises(SystemExit) as exit_info:
        main([two_path if arg == "MODEL" else arg for arg in argv])
    out, err = capsys.readouterr()
    assert (exit_info.value.code, out) == (2, "")
    assert err.endswith("x...\n") and len(err.encode()) < 600, err[:600]


def test_quoted_input_is_repr_up_to_sixty_characters():
    for value in ("", "s1", "x" * 60, "\x00" * 60, [1], None, list(range(17))):
        assert _quoted(value) == repr(value), value
    assert _quoted("x" * 61) == repr("x" * 60) + "..."
    assert _quoted(list(range(30))) == repr(list(range(30)))[:60] + "..."
    # the cut is in characters of the value: escaping may spell each in up to ten
    tag = "\U000e0001"
    assert _quoted(tag * 20_000) == repr(tag * 60) + "..."
    assert len(_quoted(tag * 20_000)) == 10 * 60 + 5


@pytest.mark.parametrize("value, reason", [
    ("1/0", "Fraction(1, 0)"), ("1" * 61 + "/0", "zero denominator"),
    ("1/x", "Invalid literal for Fraction: '1/x'"),
    ("1" * 61 + "/x", "Invalid literal for Fraction"),
    (f"{DIGITS}/1", "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["zero", "long-zero", "literal", "long-literal", "digits"])
def test_bad_mbs_rational_keeps_its_reason_when_cut(capsys, tmp_path, two_path, value, reason):
    path = _edited_model(two_path, tmp_path,
                         lambda doc: doc["families"][0]["data"]["points"][0].__setitem__(0, value))
    code, out, err = run(capsys, ["validate", "--model", path])
    assert (code, out) == (2, "")
    assert err.endswith(f"...: {reason}\n" if len(value) > 60 else f"{value!r}: {reason}\n"), err


def test_unknown_keys_are_named_by_the_first_one_and_a_count(capsys, tmp_path, two_path):
    keys = {chr(0x100 + i): 1 for i in range(10_000)}
    path = _edited_model(two_path, tmp_path, lambda doc: doc.update(keys))
    code, out, err = run(capsys, ["validate", "--model", path])
    assert (code, out) == (2, "")
    assert err == "parse error at $.\u0100: unknown key(s): \u0100 and 9999 more\n"


def _finite_model(point_json: str, extra: str = "") -> str:
    return ('{"dimension": 2, "scenarios": ["s1", "s2"], "families": [{"pair": ["s1", "s2"], '
            '"kind": "finite", "data": {"points": [%s]}}]%s}' % (point_json, extra))


def _bad_coordinate(value: str, file_location: str, arg_location: str):
    return (_finite_model(f'[{value}, "0"]'),
            ["query", "overlap", "--pair", "s1,s2", "--point", f'[{value}, "0"]'],
            file_location, arg_location)


@pytest.mark.parametrize("text, argv, file_location, arg_location", [
    *(_bad_coordinate(value, "$.families[0].data.points[0][0]", "--point[0]")
      for value in ('"1/x"', "1.5", "true", '"1/0"')),
    ('{"dimension": %s, "scenarios": ["a"], "families": []}' % DIGITS[:5000],
     ["query", "overlap", "--pair", "s1,s2", "--point", f'[{DIGITS[:5000]}, "0"]'], "$", "--point"),
    (_finite_model('["0", "0"]', f', "{LONG}": 1'),
     ["query", "history", "--history", "s1",
      "--a", json.dumps({"point": ["0", "0"], "scenario": "s1", LONG: 1})],
     f"$.{LONG[:60]}...", f"--a.{LONG[:60]}..."),
], ids=["literal", "float", "bool", "zero", "digits", "key"])
def test_a_bad_value_reads_the_same_in_a_file_and_an_argument(
        capsys, tmp_path, two_path, text, argv, file_location, arg_location):
    path = tmp_path / "bad.mbs"
    path.write_text(text, encoding="utf-8")
    errs = []
    for location, call in ((file_location, ["validate", "--model", str(path)]),
                           (arg_location, argv[:1] + ["--model", two_path] + argv[1:])):
        code, out, err = run(capsys, call)
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error at {location}: ") and len(err.encode()) < 300, err
        errs.append(err[len(f"parse error at {location}: "):])
    assert errs[0] == errs[1]


@pytest.mark.parametrize("support", [SUPPORT_BUDGET + 1, 64])
def test_counterexample_support_is_capped(capsys, support):
    code, out, err = run(capsys, ["counterexample", "--depth", "2", "--support", str(support)])
    assert (code, out) == (2, "")
    assert err == (f"error: support bound {support} exceeds {SUPPORT_BUDGET}: "
                   f"2**{support} scenarios\n")


def test_counterexample_depth_is_capped(capsys):
    # one row is printed per depth; past the cap nothing is printed
    depth = mb.binaryrow.DEPTH_BUDGET + 1
    code, out, err = run(capsys, ["counterexample", "--depth", str(depth), "--support", "2"])
    assert (code, out) == (2, "")
    assert err == (f"error: depth {depth} exceeds {depth - 1}: "
                   "one row is printed per depth\n")


def test_counterexample_bounds_are_quoted_bounded(capsys):
    huge = "1" + "0" * 4000
    for argv in (["--depth", huge], ["--support", huge]):
        code, out, err = run(capsys, ["counterexample", *argv])
        assert (code, out) == (2, "") and len(err.encode()) < 300, err


@pytest.mark.parametrize("fix", ["--fix=5=1", "--fix=-1=1/3", "--fix=0=0"])
def test_plot_fix_outside_spatial_axes_is_usage_error(capsys, tmp_path, harmonic_path, fix):
    svg_path = tmp_path / "region.svg"
    code, out, err = run(capsys, [
        "plot", "--model", harmonic_path, "--pair", "u,v",
        "--box", "-1/2,1/2", "-1/2,1/2", "--svg", str(svg_path), fix,
    ])
    assert (code, out) == (2, "")
    assert err.startswith("error: fixed axis")
    assert not svg_path.exists()


def test_unreadable_or_unwritable_files_are_usage_errors(capsys, tmp_path, two_path):
    code, out, err = run(capsys, ["validate", "--model", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read model file")

    missing_dir = tmp_path / "no" / "such"
    code, out, err = run(capsys, [
        "plot", "--model", two_path, "--pair", "s1,s2", "--box", "-1,1", "-1,1",
        "--svg", str(missing_dir / "x.svg"),
    ])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write")

    code, out, err = run(capsys, [
        "oracle", "--model", two_path, "--box", "-1,1", "-1,1", "--step", "1/2",
        "--csv", str(missing_dir / "x.csv"),
    ])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write")


def test_plot_writes_nothing_when_one_target_fails(capsys, tmp_path, harmonic_path):
    svg_path = tmp_path / "ok.svg"
    code, out, err = run(capsys, [
        "plot", "--model", harmonic_path, "--pair", "u,v", "--box", "-1/2,1/2", "-1/2,1/2",
        "--svg", str(svg_path), "--csv", str(tmp_path / "no" / "such" / "x.csv"),
    ])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write")
    assert not svg_path.exists()

    code, out, err = run(capsys, [
        "plot", "--model", harmonic_path, "--pair", "u,v", "--box", "-1/2,1/2", "-1/2,1/2",
        "--svg", str(svg_path), "--csv", str(tmp_path),
    ])
    assert (code, out) == (2, "")
    assert not svg_path.exists()


def _readme_command_sections():
    """The README's "Command line" section, split at its `### command` headings."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    intro, *parts = re.split(r"^### ", section, flags=re.M)
    return intro, [part.split("\n", 1) for part in parts]


def test_readme_flags_are_accepted():
    subparsers = next(action for action in build_parser()._actions
                      if action.dest == "command").choices
    accepted = {name: set(sub._option_string_actions) for name, sub in subparsers.items()}
    intro, sections = _readme_command_sections()
    assert {name for name, _ in sections} == set(accepted)
    for flag in re.findall(r"--[a-z][a-z-]*", intro):
        assert any(flag in flags for flags in accepted.values()), flag
    for name, body in sections:
        for flag in re.findall(r"--[a-z][a-z-]*", body):
            assert flag in accepted[name], (name, flag)


def test_deeply_nested_json_is_a_parse_or_usage_error(capsys, tmp_path, harmonic_path):
    deep = tmp_path / "deep.mbs"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, ["validate", "--model", str(deep)])
    assert (code, out) == (2, "")
    assert err.startswith("parse error at $: not valid JSON")
    code, out, err = run(capsys, ["query", "overlap", "--model", harmonic_path,
                                  "--pair", "u,v", "--point", "[" * 100_000])
    assert (code, out) == (2, "")
    assert err.startswith("parse error at --point: not valid JSON")


@pytest.mark.parametrize("text", ["[" * 20_000, '["1/2", ' + '"0/1" ' * 5_000],
                         ids=["deep", "long"])
def test_bad_json_message_quotes_a_bounded_prefix(capsys, harmonic_path, text):
    code, out, err = run(capsys, ["query", "overlap", "--model", harmonic_path,
                                  "--pair", "u,v", "--point", text])
    assert (code, out) == (2, "")
    assert err.startswith("parse error at --point: not valid JSON: ")
    assert len(err) < 300


def test_bad_json_message_quotes_a_short_argument_whole(capsys, two_path):
    code, out, err = run(capsys, ["query", "overlap", "--model", two_path,
                                  "--pair", "s1,s2", "--point", "[1,"])
    assert (code, out) == (2, "")
    assert err.startswith("parse error at --point: not valid JSON: Expecting value")


def test_closed_stdout_ends_quietly(monkeypatch, capsys, two_path):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["validate", "--model", two_path]) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err == ""
