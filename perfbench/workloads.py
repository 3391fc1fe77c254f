"""The three workloads: inputs made from a seed, one round of operations,
and checks of every output against `reference`.

A workload object is built from the seed alone.  `setup()` is the timed
set-up (package calls that build the inputs); `round()` returns the
operations of one round as (label, callable) pairs, every round identical;
`check(label, output)` returns the problems found in one output, and
`deep_check()` the problems of the heavier checks made once per run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from fractions import Fraction
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODELS = ROOT / "demos" / "models"
OUT = ROOT / ".perfbench"

#: Environment of every child interpreter: the package from source, fixed hashing.
CHILD_ENV = dict(os.environ,
                 PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
                 PYTHONHASHSEED="0")
CHILD_TIMEOUT_S = 120


def _lattice_ints(points, q: int) -> set[tuple[int, ...]]:
    """Program points as integer numerators over 1/q; non-lattice points raise."""
    out = set()
    for p in points:
        scaled = tuple(c * q for c in p.coords)
        if any(c.denominator != 1 for c in scaled):
            raise ValueError(f"{p!r} is off the 1/{q} lattice")
        out.add(tuple(int(c) for c in scaled))
    return out


def _mismatch(what: str, got, expected) -> list[str]:
    return [] if got == expected else [f"{what}: got {got!r}, expected {expected!r}"]


def _csv_cells(text: str, q: int) -> list[tuple[int, int, str, str]]:
    lines = text.splitlines()
    if not lines or lines[0] != "t,x,in_region,choice_point":
        raise ValueError("missing CSV header")
    cells = []
    for line in lines[1:]:
        t, x, region, choice = line.split(",")
        cells.append((int(Fraction(t) * q), int(Fraction(x) * q), region, choice))
    return cells


class OracleHarmonic:
    """`oracle_cross_check` on the harmonic demo pair over a 17 x 17 lattice.

    The seed translates the model and the box by whole units in time and
    space, so every seed does the same work on different coordinates.
    """

    name = "oracle-harmonic"
    in_process = True
    step = Fraction(1, 16)
    truncate = 1000
    order_samples = 200

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.centre = (rng.randint(-4, 4), rng.randint(-4, 4))
        q = self.q = 16
        ct, cx = (c * q for c in self.centre)
        half = q // 2
        self.ts = list(range(ct - half, ct + half + 1))
        self.xs = list(range(cx - half, cx + half + 1))
        self.expected_overlap = {(t, x) for t in self.ts for x in self.xs
                                 if ref.harmonic_in_overlap(t - ct, x - cx, q)}
        self.expected_flagged = {(t, x) for t in self.ts for x in self.xs
                                 if ref.boundary_flagged(t, x, self.ts[-1], self.xs[0], self.xs[-1])}
        self.expected_candidates = {(t, x) for t in self.ts for x in self.xs
                                    if (t, x) not in self.expected_flagged
                                    and ref.harmonic_choice_point(t - ct, x - cx, q)}
        self.setup_problems: list[str] = []

    def setup(self) -> None:
        from minkbranch import modelfile, oracle, validate_model
        doc = json.loads((MODELS / "harmonic.mbs").read_text(encoding="utf-8"))
        doc["families"][0]["data"]["center"] = [f"{c}/1" for c in self.centre]
        self.model = modelfile.loads(json.dumps(doc))
        report = validate_model(self.model)
        self.setup_problems = [] if report.passed else ["harmonic model fails validation"]
        box = tuple((Fraction(v[0], self.q), Fraction(v[-1], self.q)) for v in (self.ts, self.xs))
        self.grid = oracle.GridSpec(box, self.step, truncate=self.truncate)

    def round(self, in_process: bool = True):
        from minkbranch import oracle
        return [("cross-check",
                 lambda: oracle.oracle_cross_check(self.model, self.grid,
                                                   order_samples=self.order_samples))]

    def check(self, label: str, report) -> list[str]:
        total = len(self.ts) * len(self.xs)
        unflagged = total - len(self.expected_flagged)
        lines = [(r.name, r.passed, r.detail) for r in report.results]
        expected = [
            ("overlap u|v", True, f"{total} grid points"),
            ("choice-points u|v", True, f"{unflagged} unflagged grid points"),
            ("order u|v", True, f"{self.order_samples} sampled pairs"),
        ]
        return _mismatch("report lines", lines, expected) + _mismatch("notes", report.notes, [])

    def deep_check(self) -> list[str]:
        from minkbranch import oracle
        scan = oracle.oracle_choice_points(self.model, "u", "v", self.grid)
        candidates = _lattice_ints(scan.candidates, self.q) - self.expected_flagged
        return (self.setup_problems
                + _mismatch("overlap set", _lattice_ints(scan.overlap.points, self.q),
                            self.expected_overlap)
                + _mismatch("flagged set", _lattice_ints(scan.flagged, self.q),
                            self.expected_flagged)
                + _mismatch("unflagged candidates", candidates, self.expected_candidates))


class AxiomBattery:
    """`run_axiom_suite` at a fixed case count on every model of a battery.

    The battery: the three valid demo models (harmonic_pair, integer_row,
    finite), three `random_model` draws, and a fixed 4-scenario
    difference_row model.  The seed drives the random draws and the
    sampler seeds.  A draw is kept only at a fixed shape (scenarios,
    distinct splitting points, family members summed over pairs), so that
    every seed does about the same work.  The search for a draw of each
    shape is made once, untimed; set-up repeats only the kept draws.
    """

    name = "axiom-battery"
    in_process = True
    cases = 200
    demo_files = ("harmonic.mbs", "integer_row.mbs", "two_scenarios.mbs")
    random_shapes = ((5, 5, 26), (4, 4, 14), (3, 3, 6))
    zero_sets = ((), (0,), (0, 1, 2), (1, 3, 4, 5))
    suite_lines = ("validation-gate", "density", "no-maximal", "chain-infima",
                   "chain-suprema", "prior-choice")

    def __init__(self, seed: int):
        self.seed = seed
        self.draw_seeds = [self._find_draw(slot, *shape)
                           for slot, shape in enumerate(self.random_shapes)]
        self.setup_problems: list[str] = []
        self.violation_failures = [] if triangle_violation_holds() else ["triangle"]

    def _find_draw(self, slot: int, scenarios: int, points: int, members: int) -> str:
        """The first RNG seed string whose `random_model` draw has the given shape."""
        from minkbranch import sampling
        for k in itertools.count():
            draw_seed = f"{self.seed}/{slot}/{k}"
            model = sampling.random_model(random.Random(draw_seed))
            shape = (len(model.scenarios), len({p for _, f in model.entries for p in f.points}),
                     sum(len(f.points) for _, f in model.entries))
            if shape == (scenarios, points, members):
                return draw_seed

    def setup(self) -> None:
        from minkbranch import DifferenceRow, Model, SamplerConfig, modelfile, random_model
        from minkbranch import validate_model
        battery = [modelfile.load(MODELS / name) for name in self.demo_files]
        battery += [random_model(random.Random(s)) for s in self.draw_seeds]
        rows = {f"z{i}": frozenset(zeros) for i, zeros in enumerate(self.zero_sets)}
        battery.append(Model(2, list(rows), [
            ((a, b), DifferenceRow(rows[a], rows[b])) for a, b in itertools.combinations(rows, 2)]))
        problems = [f"battery model {i} fails validation"
                    for i, m in enumerate(battery) if not validate_model(m).passed]
        violation = validate_model(modelfile.load(MODELS / "triangle_violation.mbs"))
        failed = [r.name for r in violation.failures()]
        problems += _mismatch("triangle_violation.mbs failing checks", failed,
                              self.violation_failures)
        self.setup_problems = problems
        self.battery = [(m, SamplerConfig(seed=self.seed * 100 + i, cases=self.cases))
                        for i, m in enumerate(battery)]

    def round(self, in_process: bool = True):
        from minkbranch import run_axiom_suite
        return [("suites", lambda: [run_axiom_suite(m, cfg) for m, cfg in self.battery])]

    def check(self, label: str, reports) -> list[str]:
        problems = []
        for i, report in enumerate(reports):
            names = [r.name for r in report.results]
            problems += _mismatch(f"model {i} suite lines", names, list(self.suite_lines))
            for r in report.results:
                want = "model validates" if r.name == "validation-gate" else f"{self.cases} cases"
                if not r.passed or not r.detail.startswith(want):
                    problems.append(f"model {i} {r.name}: {r.line()}")
        return problems

    def deep_check(self) -> list[str]:
        return list(self.setup_problems)


def triangle_violation_holds() -> bool:
    """Does triangle_violation.mbs meet the triangle condition, decided from the file alone?"""
    doc = json.loads((MODELS / "triangle_violation.mbs").read_text(encoding="utf-8"))
    fams = {}
    for f in doc["families"]:
        points = [tuple(int(Fraction(c)) for c in p) for p in f["data"]["points"]]
        fams[tuple(f["pair"])] = fams[tuple(reversed(f["pair"]))] = points
    a, b, c = doc["scenarios"]
    return all(ref.finite_triangle_holds(fams[x, m], fams[m, y], fams[x, y])
               for x, m, y in ((b, a, c), (a, b, c), (a, c, b)))


class CliSession:
    """`python -m minkbranch` subprocesses from a fixed script of all seven subcommands.

    The seed picks the query points and the axiom-suite seed.  Expected
    exit codes and answers are derived from each model's definition; a
    repeated invocation must also repeat its first bytes exactly.
    """

    name = "cli-session"
    in_process = False
    axiom_cases = 20
    oracle_q = 4       # oracle --step 1/4 on two_scenarios.mbs, box [-1,1]^2
    plot_q = 8         # plot --step 1/8 on harmonic.mbs, box [-1/2,1/2]^2

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.query = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(4)]
        self.row_point = (rng.randint(0, 8), rng.randint(-4, 12))
        self.choice_point = (rng.choice((0, 0, 1)), rng.randint(-8, 8))
        self.first_bytes: dict[str, tuple] = {}
        self.tmp = OUT / f"cli-{os.getpid()}-{id(self):x}"   # made in setup(), removed in close()
        self.launcher: subprocess.Popen | None = None          # started by the first subprocess call
        self.peak_kib = 0                                      # peak RSS over the calls, from the launcher
        self.last_cpu_s = 0.0                                  # CPU time of the last subprocess call
        self.violation_failures = [] if triangle_violation_holds() else ["triangle"]
        self.expected_rc = {label: 0 for label, _ in self.script()}
        self.expected_rc["validate-violation"] = 1 if self.violation_failures else 0

    # -- script ------------------------------------------------------------

    def _paths(self):
        return {k: str(self.tmp / f) for k, f in
                (("oracle_csv", "oracle.csv"), ("svg", "region.svg"), ("plot_csv", "region.csv"))}

    def script(self) -> list[tuple[str, list[str]]]:
        two = str(MODELS / "two_scenarios.mbs")
        harmonic = str(MODELS / "harmonic.mbs")
        p = self._paths()

        def pt(x, q=4):
            return json.dumps([f"{c}/{q}" for c in x])

        def labeled(x, s):
            return '{"point": %s, "scenario": "%s"}' % (pt(x), s)

        (x1, x2, x3, x4) = self.query
        return [
            ("validate", ["validate", "--model", two]),
            ("validate-violation", ["validate", "--model", str(MODELS / "triangle_violation.mbs")]),
            ("query-order", ["query", "order", "--model", two,
                             "--a", labeled(x1, "s1"), "--b", labeled(x2, "s2")]),
            ("query-equiv", ["query", "equiv", "--model", two,
                             "--a", labeled(x2, "s1"), "--b", labeled(x2, "s2")]),
            ("query-overlap", ["query", "overlap", "--model", two, "--pair", "s1,s2",
                               "--point", pt(x3)]),
            ("query-history", ["query", "history", "--model", two, "--history", "s2",
                               "--a", labeled(x4, "s1")]),
            ("query-overlap-row", ["query", "overlap", "--model", str(MODELS / "integer_row.mbs"),
                                   "--pair", "p,q", "--point", pt(self.row_point)]),
            ("choice-points", ["choice-points", "--model", harmonic, "--pair", "u,v",
                               "--point", pt(self.choice_point, 8)]),
            ("axioms", ["axioms", "--model", harmonic, "--seed", str(self.seed),
                        "--cases", str(self.axiom_cases)]),
            ("counterexample", ["counterexample", "--depth", "4", "--support", "3"]),
            ("oracle", ["oracle", "--model", two, "--box", "-1,1", "-1,1", "--step", "1/4",
                        "--csv", p["oracle_csv"]]),
            ("plot", ["plot", "--model", harmonic, "--pair", "u,v", "--box", "-1/2,1/2",
                      "-1/2,1/2", "--step", "1/8", "--svg", p["svg"], "--csv", p["plot_csv"]]),
        ]

    # -- running -----------------------------------------------------------

    def _files(self, label):
        p = self._paths()
        return {"oracle": [p["oracle_csv"]], "plot": [p["svg"], p["plot_csv"]]}.get(label, [])

    def _run(self, label, argv, in_process):
        files = self._files(label)
        for f in files:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(f)
        if in_process:
            from minkbranch import cli
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            stdout, stderr = out.getvalue().encode(), err.getvalue().encode()
        else:
            reply = self._launch([sys.executable, "-m", "minkbranch", *argv])
            rc = reply["rc"]
            stdout, stderr = reply["stdout"].encode("latin-1"), reply["stderr"].encode("latin-1")
            self.peak_kib = reply["peak_kib"]
            self.last_cpu_s = reply["cpu_s"]
        contents = []
        for f in files:
            try:
                contents.append(Path(f).read_bytes())
            except FileNotFoundError:
                contents.append(None)
        return rc, stdout, stderr, tuple(contents)

    def _launch(self, argv) -> dict:
        """Run one command line through launcher.py (see there for why)."""
        if self.launcher is None:
            self.launcher = subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py")], cwd=ROOT, env=CHILD_ENV,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.launcher.stdin.write(json.dumps({"argv": argv, "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.launcher.wait()}")
        return json.loads(line)

    def setup(self) -> None:
        """Scratch directory for the files the script writes."""
        self.tmp.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        if self.launcher is not None:
            try:
                self.launcher.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.launcher.kill()
                self.launcher.communicate()
            self.launcher = None
        shutil.rmtree(self.tmp, ignore_errors=True)

    def round(self, in_process: bool = False):
        return [(label, (lambda label=label, argv=argv: self._run(label, argv, in_process)))
                for label, argv in self.script()]

    # -- checks ------------------------------------------------------------

    def failed(self, output) -> bool:
        rc, _, stderr, _ = output
        return rc < 0 or b"Traceback (most recent call last)" in stderr

    def check(self, label: str, output) -> list[str]:
        rc, stdout, _, files = output
        problems = self._expect(label, rc, stdout.decode(), files)
        first = self.first_bytes.setdefault(label, (rc, stdout, files))
        if first != (rc, stdout, files):
            problems.append(f"{label}: bytes differ from its first invocation")
        return [f"{label}: {p}" for p in problems]

    def deep_check(self) -> list[str]:
        return []

    def _expect(self, label, rc, out, files) -> list[str]:
        return (_mismatch("rc", rc, self.expected_rc[label])
                + self._expect_output(label, out.splitlines(), out, files))

    def _expect_output(self, label, lines, out, files) -> list[str]:
        word = {True: "true", False: "false"}
        if label == "validate":
            return _mismatch("header", lines[:1], ["[validate] PASS"])
        if label == "validate-violation":
            failing = [ln.split(":")[0].strip() for ln in lines[1:] if ": FAIL" in ln]
            verdict = "FAIL" if self.violation_failures else "PASS"
            return (_mismatch("header", lines[:1], [f"[validate] {verdict}"])
                    + _mismatch("failing checks", failing, self.violation_failures))
        answers = self.query_answers()
        if label in answers:
            return _mismatch("answer", out, word[answers[label]] + "\n")
        if label == "choice-points":
            t, x = self.choice_point
            generated = ref.harmonic_member(t, x, 8)
            choice = ref.harmonic_choice_point(t, x, 8)
            want = (f"generated: {word[generated]}\nchoice-point: {word[choice]}"
                    + (" (emergent)" if choice and not generated else "") + "\n")
            return _mismatch("answer", out, want)
        if label == "axioms":
            want = ["[axiom-suite] PASS", "  validation-gate: ok (model validates)"]
            cases = [ln for ln in lines[2:] if f": ok ({self.axiom_cases} cases" in ln]
            return _mismatch("head", lines[:2], want) + _mismatch("case lines", len(cases), 5)
        if label == "counterexample":
            return self._expect_counterexample(lines)
        if label == "oracle":
            return self._expect_oracle(lines, files)
        if label == "plot":
            return self._expect_plot(out, files)
        return [f"no expectation for {label}"]

    def query_answers(self) -> dict[str, bool]:
        """The answer each `query` invocation must print, from the models' definitions."""
        in_region = ref.split_at_origin_in_region
        x1, x2, x3, x4 = self.query
        return {
            "query-order": ref.causal_leq(x1, x2) and in_region(*x1),
            "query-equiv": in_region(*x2),
            "query-overlap": in_region(*x3),
            "query-history": in_region(*x4),
            "query-overlap-row": ref.integer_row_in_overlap(*self.row_point, 4),
        }

    def _expect_counterexample(self, lines) -> list[str]:
        problems = _mismatch("title", lines[:1], ["binary-row chain to depth 4"])
        depths = [ln for ln in lines if ln.startswith("  depth ")]
        want = [f"  depth {i}: z = ({2 * i - 1}/2, 0/1)" for i in range(1, 5)]
        problems += _mismatch("chain", [ln.split("  glued")[0] for ln in depths], want)
        witnesses = [ln for ln in lines if "first 1 at position" in ln]
        problems += _mismatch("witness count", len(witnesses), 2 ** 3)
        for ln in witnesses:
            bits = ln.split(":")[0].strip()
            k = ref.first_one(bits)
            if f"first 1 at position {k};" not in ln or not ln.endswith(f"below z_{k + 1}"):
                problems.append(f"witness line {ln!r}")
        tail = lines[lines.index("[centred-family] PASS"):] if "[centred-family] PASS" in lines else []
        return problems + _mismatch("report", len(tail), 4)

    def _expect_oracle(self, lines, files) -> list[str]:
        q = self.oracle_q
        axis = list(range(-q, q + 1))
        flagged = {(t, x) for t in axis for x in axis if ref.boundary_flagged(t, x, q, -q, q)}
        want = [f"wrote oracle scan for pair s1,s2 to {self._paths()['oracle_csv']}",
                "[oracle-cross-check] PASS",
                f"  overlap s1|s2: ok ({len(axis) ** 2} grid points)",
                f"  choice-points s1|s2: ok ({len(axis) ** 2 - len(flagged)} unflagged grid points)",
                "  order s1|s2: ok (200 sampled pairs)"]
        problems = _mismatch("stdout", lines, want)
        if files[0] is None:
            return problems + ["no CSV written"]
        cells = _csv_cells(files[0].decode(), q)
        problems += _mismatch("cells", [(t, x) for t, x, _, _ in cells],
                              [(t, x) for t in axis for x in axis])
        bad = [(t, x) for t, x, region, choice in cells
               if region != "01"[ref.split_at_origin_in_region(t, x)]
               or ((t, x) not in flagged and choice != "01"[(t, x) == (0, 0)])]
        return problems + _mismatch("cells off the rule", bad, [])

    def _expect_plot(self, out, files) -> list[str]:
        p = self._paths()
        problems = _mismatch("stdout", out, f"wrote {p['svg']}\nwrote {p['plot_csv']}\n")
        svg, csv = files
        if svg is None or csv is None:
            return problems + ["SVG or CSV not written"]
        try:
            root = ElementTree.fromstring(svg)
        except ElementTree.ParseError as exc:
            return problems + [f"SVG does not parse: {exc}"]
        problems += _mismatch("SVG root", root.tag, "{http://www.w3.org/2000/svg}svg")
        q = self.plot_q
        axis = list(range(-q // 2, q // 2 + 1))
        cells = _csv_cells(csv.decode(), q)
        problems += _mismatch("cells", [(t, x) for t, x, _, _ in cells],
                              [(t, x) for t in axis for x in axis])
        bad = [(t, x) for t, x, region, choice in cells
               if region != "01"[ref.harmonic_in_overlap(t, x, q)]
               or choice != "01"[ref.harmonic_choice_point(t, x, q)]]
        return problems + _mismatch("cells off the rule", bad, [])


WORKLOADS = {w.name: w for w in (OracleHarmonic, AxiomBattery, CliSession)}
