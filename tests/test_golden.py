"""Golden output: the demo scripts and CLI calls keep printing the same bytes.

Each case's expected output is `tests/golden/<case>.txt`: a first line
`exit <code>`, then the exact stdout.  Files a call writes (the plot's CSV
and SVG, the oracle's scan CSV) follow under a `--- <name>` line each.
After an intended output change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from minkbranch.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
MODELS = REPO / "demos" / "models"
DEMOS = ("01_causal_order", "02_two_scenarios", "03_emergent_choice_point",
         "04_noncompact_chain")


def _model(name: str) -> str:
    return str(MODELS / f"{name}.mbs")


def _labeled(t: str, x: str, scenario: str) -> str:
    return f'{{"point": ["{t}", "{x}"], "scenario": "{scenario}"}}'


CLI_CASES = {
    **{f"validate_{name}": ["validate", "--model", _model(name)]
       for name in ("two_scenarios", "harmonic", "integer_row", "triangle_violation")},
    "query_order": ["query", "order", "--model", _model("two_scenarios"),
                    "--a", _labeled("-1/2", "0", "s1"), "--b", _labeled("0", "0", "s2")],
    "query_equiv": ["query", "equiv", "--model", _model("two_scenarios"),
                    "--a", _labeled("1", "0", "s1"), "--b", _labeled("1", "0", "s2")],
    "query_overlap": ["query", "overlap", "--model", _model("integer_row"),
                      "--pair", "p,q", "--point", '["1/2", "7/2"]'],
    "query_history": ["query", "history", "--model", _model("two_scenarios"),
                      "--history", "s2", "--a", _labeled("0", "0", "s1")],
    "choice_points_generated": ["choice-points", "--model", _model("harmonic"),
                                "--pair", "u,v", "--point", '["0", "1/3"]'],
    "choice_points_emergent": ["choice-points", "--model", _model("harmonic"),
                               "--pair", "u,v", "--point", '["0", "0"]'],
    "counterexample": ["counterexample", "--depth", "4", "--support", "3"],
    "oracle_two_scenarios": ["oracle", "--model", _model("two_scenarios"),
                             "--box", "-1,1", "-1,1", "--step", "1/4"],
    "oracle_harmonic": ["oracle", "--model", _model("harmonic"),
                        "--box", "-1/2,1/2", "-1/2,1/2", "--step", "1/4"],
    **{f"axioms_{name}": ["axioms", "--model", _model(name), "--seed", "3", "--cases", "200"]
       for name in ("harmonic", "integer_row")},
}

# Calls that write files: the argv without the output options, and per
# option the name its file is recorded under.
FILE_CASES = {
    "plot": (["plot", "--model", _model("harmonic"), "--pair", "u,v",
              "--box", "-1/2,1/2", "-1/2,1/2", "--step", "1/8", "--truncate", "16"],
             [("--svg", "region.svg"), ("--csv", "region.csv")]),
    "plot_integer_row": (["plot", "--model", _model("integer_row"), "--pair", "p,q",
                          "--box", "-1,2", "-1,4", "--step", "1/2", "--truncate", "8"],
                         [("--svg", "region.svg"), ("--csv", "region.csv")]),
    **{f"oracle_csv_{name}{suffix}": (
        ["oracle", "--model", _model(name), "--box", "-1/2,1/2", "-1/2,1/2", "--step", "1/8",
         *truncate], [("--csv", "scan.csv")])
       for name in ("harmonic", "integer_row")
       for suffix, truncate in (("", []), ("_truncate_7", ["--truncate", "7"]))},
    # a fine grid: most columns take their height from a nearest member
    "oracle_csv_harmonic_step_32": (
        ["oracle", "--model", _model("harmonic"), "--box", "-1/2,1/2", "-1/2,1/2",
         "--step", "1/32"], [("--csv", "scan.csv")]),
}


def _record(code: int, stdout: str, files=()) -> str:
    text = f"exit {code}\n{stdout}"
    for name, content in files:
        text += f"--- {name}\n{content}"
    return text


def _run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(REPO / "demos" / f"{name}.py")],
                          cwd=REPO, env=env, capture_output=True, text=True)
    return _record(done.returncode, done.stdout)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _run_writing(argv: list[str], outputs: list[tuple[str, str]]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        paths = [(option, Path(tmp) / name) for option, name in outputs]
        code, stdout = _run_cli(argv + [arg for option, path in paths
                                        for arg in (option, str(path))])
        stdout = stdout.replace(tmp, "<tmp>")
        return _record(code, stdout, sorted((path.name, path.read_text()) for _, path in paths))


def produce(case: str) -> str:
    if case.startswith("demo_"):
        return _run_demo(case[len("demo_"):])
    if case in FILE_CASES:
        return _run_writing(*FILE_CASES[case])
    return _record(*_run_cli(CLI_CASES[case]))


CASES = [f"demo_{name}" for name in DEMOS] + list(CLI_CASES) + list(FILE_CASES)


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert produce(case) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --regenerate")
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.txt").write_text(produce(case), encoding="utf-8")
        print(f"wrote {GOLDEN / case}.txt")
