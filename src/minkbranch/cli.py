"""Command line interface.

Exit codes: 0 all executed checks passed (queries count as data, not
checks), 1 at least one check failed (witnesses are printed) or stdout was
closed early, 2 parse or usage errors (with the location in the model file
or the argument).

Each subcommand, and each kind of `query`, imports the modules it runs, so
a call loads only those: `query overlap` needs neither events nor histories.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import re
import sys
from fractions import Fraction

from . import modelfile
from .errors import (MissingFamily, ModelFormatError, ScenariosNotEnumerable, UnknownScenario,
                     _cut, _quoted)
from .minkowski import format_rational
from .modelfile import _decode, _expect, _expect_keys, _parse_point, _parse_rational
from .model import TRIANGLE_TRUNCATION, Model, validate_model


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse quotes an offending argument whole; its own text fits in 200 characters
        super().error(message if len(message) <= 200 else f"{message[:200]}...")


def _load_model(path: str) -> Model:
    try:
        return modelfile.load(path)
    except FileNotFoundError:
        raise UsageError(f"model file not found: {_cut(path)}")
    except OSError as exc:
        raise UsageError(f"cannot read model file {_cut(path)}: {exc.strerror}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {_cut(path)}: {exc.strerror}")


def _check_writable(path: str) -> None:
    """Raise the usage error that writing `path` would meet, before anything is written."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {_cut(path)}: {os.strerror(code)}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid positive integer: {_quoted(text)}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {_quoted(value)}")
    return value


def _parse_labeled(text: str, flag: str, model: Model):
    from .events import LabeledPoint
    raw = _expect(_decode(text, flag), dict, "a labeled-point object", flag)
    _expect_keys(raw, {"point", "scenario"}, set(), flag)
    label = _expect(raw["scenario"], str, "a scenario label string", f"{flag}.scenario")
    return LabeledPoint(_parse_point(raw["point"], model.dimension, f"{flag}.point"), label)


def _parse_pair(text: str) -> tuple[str, str]:
    parts = text.split(",")
    if len(parts) != 2 or not all(parts):
        raise UsageError(f"bad pair {_quoted(text)} (write a,b)")
    return parts[0], parts[1]


def _parse_box(parts: list[str]) -> tuple[tuple[Fraction, Fraction], ...]:
    box = []
    for i, part in enumerate(parts):
        bounds = part.split(",")
        if len(bounds) != 2:
            raise UsageError(f"bad box range {_quoted(part)} (write lo,hi)")
        box.append(tuple(_parse_rational(bound, f"--box[{i}]") for bound in bounds))
    return tuple(box)


def _bool_word(value: bool) -> str:
    return "true" if value else "false"


def _print_report(report) -> int:
    print(report.render())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    model = _load_model(args.model)
    return _print_report(validate_model(model, truncate=args.truncate))


def _cmd_query(args) -> int:
    model = _load_model(args.model)
    if args.what in ("order", "equiv"):
        from . import events
        a = _parse_labeled(args.a, "--a", model)
        b = _parse_labeled(args.b, "--b", model)
        print(_bool_word((events.leq if args.what == "order" else events.glued)(model, a, b)))
    elif args.what == "overlap":
        pair = _parse_pair(args.pair)
        x = _parse_point(_decode(args.point, "--point"), model.dimension, "--point")
        print(_bool_word(model.in_overlap(pair[0], pair[1], x)))
    else:  # history
        from . import histories
        a = _parse_labeled(args.a, "--a", model)
        print(_bool_word(histories.in_history(model, a, histories.History(args.history))))
    return 0


def _cmd_choice_points(args) -> int:
    from . import histories
    model = _load_model(args.model)
    a, b = _parse_pair(args.pair)
    x = _parse_point(_decode(args.point, "--point"), model.dimension, "--point")
    generated = histories.is_generated_choice_point(model, a, b, x)
    choice = histories.is_choice_point(model, a, b, x)
    print(f"generated: {_bool_word(generated)}")
    suffix = " (emergent)" if choice and not generated else ""
    print(f"choice-point: {_bool_word(choice)}{suffix}")
    return 0


def _cmd_axioms(args) -> int:
    from . import histories
    from .sampling import SamplerConfig
    model = _load_model(args.model)
    config = SamplerConfig(
        seed=args.seed,
        cases=args.cases,
        box=_parse_box(args.box) if args.box else None,
        step=_parse_rational(args.step, "--step"),
    )
    return _print_report(histories.run_axiom_suite(model, config))


def _cmd_counterexample(args) -> int:
    from . import binaryrow
    depth = args.depth
    # the report refuses a depth or support past its cap before anything is printed
    report = binaryrow.centred_family_report(depth, support_bound=args.support)
    scenarios = binaryrow._all_scenarios_with_support(args.support)
    print(f"binary-row chain to depth {depth}")
    print("declared infimum (-1/1, 0/1): below the whole row, glued for every scenario")
    for i, z in enumerate(binaryrow.chain_points(depth), start=1):
        sset = binaryrow.scenarios_at_chain_point(i)
        samples = ", ".join(str(s) for s in sset.samples(2))
        print(f"  depth {i}: z = ({format_rational(z.coords[0])}, 0/1)  "
              f"glued scenarios: {sset}  e.g. {samples}")
    print()
    print(f"exclusion witnesses (zero support inside 0..{args.support - 1}):")
    # the report has verified each scenario's exclusion witness
    for scenario in scenarios:
        k = scenario.first_one()
        print(f"  {scenario}: first 1 at position {k}; "
              f"splits from the chain label at (0/1, {k}/1), below z_{k + 1}")
    print()
    return _print_report(report)


def _cmd_oracle(args) -> int:
    from . import oracle, plotting
    model = _load_model(args.model)
    grid = oracle.GridSpec(_parse_box(args.box), _parse_rational(args.step, "--step"),
                           truncate=args.truncate)
    pairs = [_parse_pair(p) for p in args.pair] if args.pair else None
    if args.csv:
        if grid.dimension != 2:
            raise UsageError("CSV scans take a 2-D grid")
        _check_writable(args.csv)
    report, scans = oracle.cross_check_scans(model, grid, pairs=pairs)
    if args.csv:
        if not scans:
            raise UsageError("CSV scans need a scenario pair")
        (a, b), scan = next(iter(scans.items()))
        cells = [plotting.PlotCell(*x.coords, x, kept, cand)
                 for x, kept, cand in zip(scan.overlap.grid_points, scan.overlap.kept,
                                          scan.is_candidate)]
        _write_text(args.csv, plotting.render_csv(cells))
        print(f"wrote oracle scan for pair {a},{b} to {args.csv}")
    return _print_report(report)


def _cmd_plot(args) -> int:
    from . import plotting
    from .oracle import GridSpec
    model = _load_model(args.model)
    a, b = _parse_pair(args.pair)
    grid = GridSpec(_parse_box(args.box), _parse_rational(args.step, "--step"),
                    truncate=args.truncate)
    fixed = {}
    for item in args.fix or []:
        if "=" not in item:
            raise UsageError(f"bad --fix {_quoted(item)} (write axis=p/q)")
        axis_text, value = item.split("=", 1)
        try:
            axis = int(axis_text)
        except ValueError:
            raise UsageError(f"bad --fix axis {_quoted(axis_text)}")
        fixed[axis] = _parse_rational(value, "--fix")
    cells = plotting.region_cells(model, a, b, grid, axis=args.axis, fixed=fixed)
    outputs = [(args.svg, plotting.render_svg(model, a, b, grid, cells,
                                              axis=args.axis, fixed=fixed))]
    if args.csv:
        outputs.append((args.csv, plotting.render_csv(cells)))
    for path, _ in outputs:
        _check_writable(path)
    for path, text in outputs:
        _write_text(path, text)
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="minkbranch",
        description="Branching space-times over the exact Minkowski causal order.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural validation of a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--truncate", type=_positive_int, default=TRIANGLE_TRUNCATION,
                   help="member enumeration depth for infinite families")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("query", help="point and order queries against a model")
    p.add_argument("what", choices=("order", "equiv", "overlap", "history"))
    p.add_argument("--model", required=True)
    p.add_argument("--a", help='labeled point {"point": [...], "scenario": "s"}')
    p.add_argument("--b", help="labeled point (order/equiv)")
    p.add_argument("--pair", help="scenario pair a,b (overlap)")
    p.add_argument("--point", help='point ["p/q", ...] (overlap)')
    p.add_argument("--history", help="history scenario label (history)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("choice-points", help="choice-point status of a point for a pair")
    p.add_argument("--model", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_choice_points)

    p = sub.add_parser("axioms", help="sampled order-axiom suite")
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_positive_int, default=1000)
    p.add_argument("--box", nargs="+", help="per-axis lo,hi (default -2,2 per axis)")
    p.add_argument("--step", default="1/16")
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("counterexample",
                       help="the binary-row chain that no history can represent")
    p.add_argument("--depth", type=_positive_int, default=10)
    p.add_argument("--support", type=_positive_int, default=4,
                   help="zero-support bound for the exclusion table")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("oracle", help="brute-force agreement cross-check")
    p.add_argument("--model", required=True)
    p.add_argument("--box", nargs="+", required=True)
    p.add_argument("--step", default="1/4")
    p.add_argument("--truncate", type=_positive_int, default=1000)
    p.add_argument("--pair", action="append",
                   help="scenario pair a,b (repeatable; default all pairs)")
    p.add_argument("--csv", help="write the first pair's scan as CSV")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("plot", help="SVG/CSV picture of an overlap region")
    p.add_argument("--model", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--box", nargs="+", required=True,
                   help="time lo,hi then plotted-axis lo,hi")
    p.add_argument("--step", default="1/4")
    p.add_argument("--truncate", type=_positive_int, default=1000)
    p.add_argument("--axis", type=int, default=1, help="spatial axis to plot")
    p.add_argument("--fix", action="append", help="fix another axis, e.g. 2=0/1")
    p.add_argument("--svg", required=True)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_plot)

    # Box ranges like -1,1 and -1/2,1/2 start with a dash; widen the
    # negative-number matcher so argparse reads them as values, not flags.
    matcher = re.compile(r"^-\d[\d,/-]*$")
    parser._negative_number_matcher = matcher
    for child in sub.choices.values():
        child._negative_number_matcher = matcher

    return parser


def _check_required(args) -> None:
    if args.command == "query":
        needed = {
            "order": ("a", "b"),
            "equiv": ("a", "b"),
            "overlap": ("pair", "point"),
            "history": ("a", "history"),
        }[args.what]
        missing = [f"--{name}" for name in needed if getattr(args, name) is None]
        if missing:
            raise UsageError(f"query {args.what} needs {', '.join(missing)}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_required(args)
        return args.func(args)
    except ModelFormatError as exc:
        print(f"parse error at {exc.location}: {exc.reason}", file=sys.stderr)
        return 2
    except (UsageError, UnknownScenario, MissingFamily, ScenariosNotEnumerable,
            ValueError) as exc:
        # DimensionMismatch and GridBudgetExceeded are ValueErrors.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  As the Python docs advise for
        # SIGPIPE, point the descriptor at devnull so that the flush at exit
        # does not raise again, and exit 1.
        with contextlib.suppress(OSError, ValueError):   # a stream with no descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
