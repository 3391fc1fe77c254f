"""Hostile input: no command-line call ends in a traceback or an unbounded message.

Each example mutates a demo model or a valid argv (long and astral strings,
deep nesting, huge integers and rationals, wrong types, extra and missing
keys and arguments) and calls `cli.main` in-process twice.  Both calls must
exit 0, 1 or 2, print no traceback and under `STDERR_BYTES` bytes of
standard error, and give the same bytes.

Numeric flags are drawn small, and a grid is either tiny or past
`oracle.GRID_BUDGET`, which is rejected before any point is enumerated:
a grid just under the budget would enumerate up to ten million points.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minkbranch.cli import main

MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"
STDERR_BYTES = 2048

LONG = "x" * 20_000
ASTRAL = "\U000e0001" * 5_000          # each character's repr is ten characters
DIGITS = "1" * 5_000                   # past the interpreter's int digit limit
HUGE = "7" * 4_000                     # under it
HOSTILE_TEXT = ["", "-", "--", "--bogus", ",", "=", LONG, ASTRAL, DIGITS, "\ud800", "\n"]

# JSON texts that no generated value spells: past the digit limit, too deep, not JSON
RAW_JSON = [DIGITS, f'"{DIGITS}/3"', f'"{HUGE}/3"', f'["{HUGE}", "-1/{HUGE}"]',
            "[" * 5_000, "[" * 3_000 + "]" * 3_000, '{"a": ' * 3_000, "NaN", "-Infinity",
            '"\\ud800"', "", "[1,", "{}"]
leaves = (st.none() | st.booleans() | st.integers(-10, 10)
          | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
          | st.sampled_from(["0", "1/2", "-1/2", "1/0", "1/x", "0/1", "s1", "u", "p",
                             LONG, ASTRAL, f"{HUGE}/3"]))
json_values = st.recursive(
    leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4) | st.sampled_from([LONG, ASTRAL]),
                                     inner, max_size=3)),
    max_leaves=6)
json_texts = json_values.map(json.dumps) | st.sampled_from(RAW_JSON)

NUMERIC_FLAGS = ("--depth", "--support", "--cases", "--truncate", "--seed", "--axis")
# Small, or rejected before any work; never a large valid count.
NUMBERS = ["0", "-1", "1", "2", "3", "17", "64", "two", "1.5", "1/2", "-" + HUGE, DIGITS,
           LONG, ASTRAL, ""]
# With a step of 1/2 or coarser every range here is tiny or past the budget; with the
# finest step only a range of width 0 stays under it.
STEPS = ["1/2", "1", "2", "0", "-1/2", "1/0", "x", "0.5", "1/10000000", f"1/{HUGE}",
         f"1/{DIGITS}", LONG]
RANGES = ["-1,1", "-1/2,1/2", "0,0", "1,-1", "-1,1,2", "-1", ",", "-1,x", "-1,1/0",
          "-1,1000000000", f"-1,{HUGE}", f"{DIGITS},1", LONG, ASTRAL]
PAIRS = ["s1,s2", "u,v", "p,q", "s1,s1", "s1", "s1,s2,s3", ",", f"s1,{LONG}", f"u,{ASTRAL}"]


def _model(name: str) -> str:
    return str(MODELS / f"{name}.mbs")


def _labeled(t: str, x: str, scenario: str) -> str:
    return json.dumps({"point": [t, x], "scenario": scenario})


BASE_ARGV = [
    ["validate", "--model", _model("harmonic"), "--truncate", "3"],
    ["query", "order", "--model", _model("two_scenarios"),
     "--a", _labeled("-1/2", "0", "s1"), "--b", _labeled("0", "0", "s2")],
    ["query", "equiv", "--model", _model("two_scenarios"),
     "--a", _labeled("1", "0", "s1"), "--b", _labeled("1", "0", "s2")],
    ["query", "overlap", "--model", _model("integer_row"), "--pair", "p,q",
     "--point", '["1/2", "7/2"]'],
    ["query", "history", "--model", _model("two_scenarios"), "--history", "s2",
     "--a", _labeled("0", "0", "s1")],
    ["choice-points", "--model", _model("harmonic"), "--pair", "u,v", "--point", '["0", "0"]'],
    ["axioms", "--model", _model("two_scenarios"), "--seed", "3", "--cases", "3",
     "--box", "-1,1", "-1,1", "--step", "1/2"],
    ["counterexample", "--depth", "3", "--support", "2"],
    ["oracle", "--model", _model("harmonic"), "--box", "-1/2,1/2", "-1/2,1/2",
     "--step", "1/2", "--truncate", "8", "--pair", "u,v", "--csv", "OUT/scan.csv"],
    ["plot", "--model", _model("integer_row"), "--pair", "p,q", "--box", "-1,1", "-1,1",
     "--step", "1/2", "--truncate", "4", "--fix", "2=0", "--svg", "OUT/region.svg"],
]
DEMO_MODELS = [_model(name) for name in
               ("two_scenarios", "harmonic", "integer_row", "triangle_violation")]
MODEL_COMMANDS = [
    ["validate", "--truncate", "3"],
    ["query", "overlap", "--pair", "s1,s2", "--point", '["1", "0"]'],
    ["oracle", "--box", "-1/2,1/2", "-1/2,1/2", "--step", "1/2", "--truncate", "5"],
    ["axioms", "--cases", "2", "--box", "-1,1", "-1,1", "--step", "1/2"],
]


def _paths(node, path=()):
    """The path of every value in a decoded JSON document, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_json(draw, doc):
    """The JSON text of `doc` with one to three values replaced, removed or added."""
    doc = json.loads(json.dumps(doc))
    raw = {}
    for n in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["replace", "remove", "add"]))
        marker = f"@hostile{n}@"
        raw[json.dumps(marker)] = draw(json_texts)
        if not path:
            doc = marker
            break
        *head, key = path
        parent = doc
        for step in head:
            parent = parent[step]
        if op == "remove":
            del parent[key]
        elif op == "add" and isinstance(parent[key], dict):
            parent[key][draw(st.text(max_size=4) | st.sampled_from([LONG, ASTRAL]))] = marker
        else:
            parent[key] = marker
    text = json.dumps(doc)
    for marker, value in raw.items():
        text = text.replace(marker, value)
    return text


def _value_for(flag: str, value: str):
    if flag in NUMERIC_FLAGS:
        return st.sampled_from(NUMBERS)
    if flag == "--step":
        return st.sampled_from(STEPS)
    if flag == "--box":
        return st.sampled_from(RANGES)
    if flag == "--pair":
        return st.sampled_from(PAIRS) | st.text(max_size=6)
    if flag in ("--a", "--b", "--point"):
        try:
            return mutated_json(json.loads(value)) | json_texts
        except (ValueError, RecursionError):    # an earlier mutation spoilt it
            return json_texts
    if flag in ("--model", "--svg", "--csv"):
        return st.sampled_from(["OUT", "OUT/no/such/x", f"OUT/{LONG}", f"OUT/{ASTRAL[:40]}",
                                "OUT/scan.csv", ""])
    if flag == "--fix":
        return st.sampled_from(["2=1", "5=1", "0=0", "1=1/2", f"{DIGITS}=1", f"{HUGE}=1",
                                f"2={HUGE}", "2=1/0", LONG, "=", ""])
    return st.sampled_from(HOSTILE_TEXT) | st.text(max_size=8)


@st.composite
def mutated_argv(draw):
    argv = list(draw(st.sampled_from(BASE_ARGV)))
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["replace", "replace", "remove", "insert"]))
        i = draw(st.integers(0, len(argv) - 1))
        if op == "remove":
            del argv[i]
        elif op == "insert":
            argv.insert(i, draw(st.sampled_from(HOSTILE_TEXT + ["--box", "--model", "--fix",
                                                                "--support", "--a"])))
        else:
            flag = argv[i - 1] if i and argv[i - 1].startswith("--") else \
                "--box" if "," in argv[i] else ""
            argv[i] = draw(_value_for(flag, argv[i]))
        if not argv:
            break
    return argv


@st.composite
def mutated_model_calls(draw):
    doc = json.loads(Path(draw(st.sampled_from(DEMO_MODELS))).read_text(encoding="utf-8"))
    return draw(mutated_json(doc)), draw(st.sampled_from(MODEL_COMMANDS))


def _call(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr bytes of one call, the streams encoded as a UTF-8
    terminal's are: stdout strictly, stderr with backslash escapes."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse's own usage errors
            code = exc.code
    out.flush()
    err.flush()
    return code, out.buffer.getvalue(), err.buffer.getvalue()


def _check(argv: list[str]) -> None:
    first = _call(argv)
    code, _, err = first
    assert code in (0, 1, 2), (code, err[:400])
    assert b"Traceback" not in err, err[:400]
    assert len(err) < STDERR_BYTES, err[:400]
    assert _call(argv) == first


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


HOSTILE = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@HOSTILE
@given(argv=mutated_argv())
def test_hostile_arguments_exit_bounded(out_dir, argv):
    _check([arg.replace("OUT", str(out_dir)) for arg in argv])


@HOSTILE
@given(call=mutated_model_calls())
def test_hostile_model_files_exit_bounded(out_dir, call):
    text, command = call
    path = out_dir / "hostile.mbs"
    path.write_text(text, encoding="utf-8")
    _check(command[:1] + ["--model", str(path)] + command[1:])
