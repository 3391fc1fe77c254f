"""Model files: a JSON dialect with rationals as "p/q" strings.

The command line reads its point, labeled-point and rational arguments with
the same parsers, at a location that names the flag (`--a.point[0]`).

Schema (all keys required unless noted):

    {
      "dimension": 2,
      "scenarios": ["a", "b"],
      "families": [
        {"pair": ["a", "b"], "kind": "finite",
         "data": {"points": [["0/1", "0/1"]]}},
        {"pair": ["a", "b"], "kind": "integer_row",     "data": {"t0": "0/1"}},
        {"pair": ["a", "b"], "kind": "harmonic_pair",   "data": {"center": ["0/1", "0/1"]}},
        {"pair": ["a", "b"], "kind": "difference_row",
         "data": {"zeros_a": [0, 1], "zeros_b": [0]}}
      ],
      "state": anything        (optional; carried verbatim, never interpreted)
    }

Each kind's "data" layout is spelled once, in the table `_DATA`: `loads`
builds a family from it and `dumps` writes one.

Unknown kinds and unknown keys are rejected with the location of the
offense.  Loading is total over the schema, not over model semantics:
a file that parses but fails validation loads fine and then fails
`validate_model`, which is what the validate subcommand reports.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import _QUOTED_CHARS, ModelFormatError, _cut, _quoted
from .families import KIND_NAMES, DifferenceRow, FiniteFamily, HarmonicPair, IntegerRow, family_kind
from .minkowski import Point, format_rational, rational
from .model import Model


def _fail(message: str, location: str):
    raise ModelFormatError(message, location)


def _expect(value, types, what: str, location: str):
    if not isinstance(value, types):
        _fail(f"expected {what}, got {type(value).__name__}", location)
    return value


def _expect_keys(mapping: dict, required: set[str], optional: set[str], location: str):
    missing = required - mapping.keys()
    if missing:
        _fail(f"missing key(s): {', '.join(sorted(missing))}", location)
    unknown = sorted(mapping.keys() - required - optional)
    if unknown:
        key = _cut(unknown[0])          # unquoted, as the location spells it
        more = f" and {len(unknown) - 1} more" if len(unknown) > 1 else ""
        _fail(f"unknown key(s): {key}{more}", f"{location}.{key}")


def _decode(text: str, location: str):
    """The JSON value `text` spells.  Invalid JSON, nesting too deep and an integer
    past the interpreter's digit limit are ModelFormatErrors at `location`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        _fail(f"not valid JSON: {exc}", location)


def _parse_rational(value, location: str) -> Fraction:
    try:
        return rational(value)
    except TypeError:
        _fail("rationals are 'p/q' strings (or integers)", location)
    except ValueError as exc:
        # Fraction names the fault before a colon, then repeats the value or its length
        reason = exc if len(value) <= _QUOTED_CHARS else str(exc).partition(":")[0]
        _fail(f"bad rational {_quoted(value)}: {reason}", location)
    except ZeroDivisionError as exc:
        # its message is 'Fraction(numerator, 0)'
        reason = exc if len(value) <= _QUOTED_CHARS else "zero denominator"
        _fail(f"bad rational {_quoted(value)}: {reason}", location)


def _parse_point(value, dimension: int, location: str) -> Point:
    coords = _expect(value, list, "a coordinate array", location)
    if len(coords) != dimension:
        _fail(f"point has {len(coords)} coordinates, model dimension is {dimension}", location)
    return Point(tuple(
        _parse_rational(c, f"{location}[{i}]") for i, c in enumerate(coords)))


def _parse_points(value, dimension: int, location: str) -> tuple[Point, ...]:
    raw = _expect(value, list, "an array of points", location)
    return tuple(_parse_point(p, dimension, f"{location}[{i}]") for i, p in enumerate(raw))


def _parse_zero_set(value, dimension: int, location: str) -> frozenset[int]:
    items = _expect(value, list, "an array of integers", location)
    out = set()
    for i, k in enumerate(items):
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            _fail("zero positions are nonnegative integers", f"{location}[{i}]")
        out.add(k)
    return frozenset(out)


def _format_point(p: Point) -> list[str]:
    return [format_rational(c) for c in p.coords]


#: Each kind's "data" keys in constructor order, each with its reader (value, model
#: dimension, location) and its writer of the family attribute of the key's name.
_DATA = {
    FiniteFamily: {"points": (_parse_points, lambda pts: [_format_point(p) for p in pts])},
    IntegerRow: {"t0": (lambda value, _, loc: _parse_rational(value, loc), format_rational)},
    HarmonicPair: {"center": (_parse_point, _format_point)},
    DifferenceRow: {"zeros_a": (_parse_zero_set, sorted), "zeros_b": (_parse_zero_set, sorted)},
}
_KINDS = {name: cls for cls, name in KIND_NAMES.items()}


def _parse_family(entry, dimension: int, scenarios: set, index: int):
    loc = f"$.families[{index}]"
    _expect(entry, dict, "a family object", loc)
    _expect_keys(entry, {"pair", "kind", "data"}, set(), loc)

    pair = _expect(entry["pair"], list, "a two-element scenario array", f"{loc}.pair")
    if len(pair) != 2:
        _fail("pair must have exactly two scenario labels", f"{loc}.pair")
    for i, label in enumerate(pair):
        _expect(label, str, "a scenario label string", f"{loc}.pair[{i}]")
        if label not in scenarios:
            _fail(f"undeclared scenario {_quoted(label)}", f"{loc}.pair[{i}]")
    if pair[0] == pair[1]:
        _fail("a pair needs two distinct scenarios", f"{loc}.pair")

    kind = _expect(entry["kind"], str, "a kind string", f"{loc}.kind")
    if kind not in _KINDS:
        _fail(f"unknown kind {_quoted(kind)}; known kinds: {', '.join(_KINDS)}", f"{loc}.kind")
    data = _expect(entry["data"], dict, "a data object", f"{loc}.data")
    cls = _KINDS[kind]
    if cls is not FiniteFamily and dimension != 2:
        _fail("this family kind requires model dimension 2", f"{loc}.kind")
    fields = _DATA[cls]
    _expect_keys(data, set(fields), set(), f"{loc}.data")
    family = cls(*[read(data[key], dimension, f"{loc}.data.{key}")
                   for key, (read, _) in fields.items()])

    return (pair[0], pair[1]), family


def loads(text: str) -> Model:
    doc = _expect(_decode(text, "$"), dict, "a model object", "$")
    _expect_keys(doc, {"dimension", "scenarios", "families"}, {"state"}, "$")

    dimension = doc["dimension"]
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 2:
        _fail("dimension must be an integer >= 2", "$.dimension")

    raw_scenarios = _expect(doc["scenarios"], list, "an array of labels", "$.scenarios")
    if not raw_scenarios:
        _fail("at least one scenario is required", "$.scenarios")
    labels = []
    for i, label in enumerate(raw_scenarios):
        _expect(label, str, "a scenario label string", f"$.scenarios[{i}]")
        if label in labels:
            _fail(f"duplicate scenario {_quoted(label)}", f"$.scenarios[{i}]")
        labels.append(label)

    raw_families = _expect(doc["families"], list, "an array of families", "$.families")
    entries = [
        _parse_family(entry, dimension, set(labels), i)
        for i, entry in enumerate(raw_families)
    ]
    return Model(dimension, labels, entries, state=doc.get("state"))


def load(path) -> Model:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def dumps(model: Model) -> str:
    doc = {
        "dimension": model.dimension,
        "scenarios": list(model.scenarios),
        "families": [
            {"pair": [a, b], "kind": family_kind(fam), "data": {
                key: write(getattr(fam, key)) for key, (_, write) in _DATA[type(fam)].items()}}
            for (a, b), fam in model.entries
        ],
    }
    if model.state is not None:
        doc["state"] = model.state
    return json.dumps(doc, indent=2) + "\n"


def dump(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(model))
