#!/usr/bin/env python3
"""minkbranch benchmark: three workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload oracle-harmonic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere; the package is imported from the `src/` directory next
to this one.  One closed-loop client, no threads.  A run is: set-up
(repeated, median reported), one untimed warm-up round whose outputs and
heavier checks must pass, then whole rounds until `--seconds` have passed.
Operations and set-up are timed in CPU seconds of the process that does
the work (see `Loop`), so time spent waiting for a core does not count.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 1` the metrics are the
per-layer ones of BENCHMARK.json, taken from wrapped calls (see tracer.py),
and the span log is written to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up repeats per run; setup_s is their median.
SETUP_REPEATS = 7
#: Repeats of each single-call layer probe in a traced run.
PROBE_REPEATS = 5


def _median_ms(samples) -> float:
    return statistics.median(samples) * 1000.0


def _child_wall(code: str) -> float:
    """Wall seconds of `python -c code` in the benchmark's child environment."""
    from workloads import CHILD_ENV, CHILD_TIMEOUT_S
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV,
                   capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def timed_setup(workload) -> float:
    """One set-up: execute the package's modules afresh, then build the workload's inputs.

    In-process, so interpreter start and the standard-library modules the
    package needs are not counted: their cost moved with the host's load
    far more than the package's own work did.  A fresh interpreter's
    import is the per-layer `cli.import_ms`, and every `cli-session`
    operation pays interpreter start.
    """
    for name in [n for n in sys.modules if n == "minkbranch" or n.startswith("minkbranch.")]:
        del sys.modules[name]
    gc.collect()   # the previous copy of the modules, so peak RSS does not hold them all
    start = time.process_time()
    importlib.import_module("minkbranch")
    workload.setup()
    return time.process_time() - start


class Loop:
    """Closed-loop rounds of one workload, with per-operation times and outputs.

    `cpu` holds each operation's CPU seconds: this process's for an
    in-process call, the child interpreter's for a subprocess call (as the
    launcher reports it).  Wall time is not kept, because on a shared host
    it follows the other tenants' load.  With two busy loops beside it on
    two cores, an `oracle-harmonic` operation took 33 to 58 % longer in
    wall time and 0 to 2 % longer in CPU time.
    """

    def __init__(self, workload, in_process: bool):
        self.workload = workload
        self.ops = workload.round(in_process)
        self.in_process = in_process
        self.cpu: list[float] = []
        self.outputs: list[tuple] = []
        self.failed = 0

    def run(self, seconds: float, around=None) -> None:
        """Whole rounds until `seconds` have passed (at least one round)."""
        start = time.perf_counter()
        while True:
            for label, call in self.ops:
                if self.in_process:
                    gc.collect()
                c0 = time.process_time()
                try:
                    if around is None:
                        output = call()
                    else:
                        with around(label):
                            output = call()
                except Exception as exc:   # a failed operation is counted, not fatal
                    self.failed += 1
                    self._record(c0)
                    print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    continue
                self._record(c0)
                if getattr(self.workload, "failed", lambda out: False)(output):
                    self.failed += 1
                else:
                    self.outputs.append((label, output))
            if time.perf_counter() - start >= seconds:
                break

    def _record(self, c0: float) -> None:
        if self.in_process:
            self.cpu.append(time.process_time() - c0)
        else:
            self.cpu.append(self.workload.last_cpu_s)

    def problems(self) -> list[str]:
        out = []
        for label, output in self.outputs:
            out += self.workload.check(label, output)
        return out


def warm_up(workload, in_process: bool) -> list[str]:
    """One untimed round; its outputs and the once-per-run checks must pass."""
    loop = Loop(workload, in_process)
    loop.run(0)
    problems = loop.problems() + workload.deep_check()
    if loop.failed:
        problems.append(f"{loop.failed} warm-up operation(s) failed")
    return problems


def end_to_end(workload, seconds: float, setup_s: float) -> tuple[dict, Loop]:
    loop = Loop(workload, workload.in_process)
    loop.run(seconds)
    if workload.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kib = workload.peak_kib
    metrics = {
        "ops_per_cpu_s": (len(loop.cpu) / sum(loop.cpu), "1/s"),
        "op_cpu_ms_p50": (_median_ms(loop.cpu), "ms"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, loop


def trace_targets():
    """(functions, methods, generators) to wrap, named module.attribute."""
    import minkbranch as mb
    from minkbranch import events, histories, minkowski, model, oracle, sampling

    def fns(module, *names):
        return [(module, n, f"{module.__name__.split('.')[-1]}.{n}")
                for n in names if hasattr(module, n)]

    def meths(cls, prefix, *names):
        return [(cls, n, f"{prefix}.{n}") for n in names if hasattr(cls, n)]

    functions = (fns(minkowski, "leq", "lt", "slr", "interval")
                 + fns(model, "validate_model")
                 + fns(events, "leq", "lt", "glued", "same_event")
                 + fns(histories, "is_choice_point", "is_generated_choice_point",
                       "run_axiom_suite", "prior_choice_witness", "scenarios_at",
                       "in_history", "common_scenarios")
                 + fns(sampling, "random_model")
                 + fns(oracle, "oracle_overlap", "oracle_choice_points", "oracle_cross_check"))
    methods = (meths(model.BranchingModel, "model", "in_overlap")
               + meths(sampling.Sampler, "sampling.Sampler", "point", "causal_delta", "choice",
                       "point_above", "ascending_chain")
               + meths(oracle.GridSpec, "oracle.GridSpec", "points"))
    generators = []
    kinds = {"finite": mb.FiniteFamily, "integer_row": mb.IntegerRow,
             "harmonic_pair": mb.HarmonicPair, "difference_row": mb.DifferenceRow}
    for kind, cls in kinds.items():
        methods += meths(cls, f"families.{kind}", *CONE_QUERIES)
        generators += meths(cls, "families", "members")
    return functions, methods, generators


CONE_QUERIES = ("contains", "any_strictly_below", "any_weakly_below", "first_strictly_below")


def layer_metrics(tracer, ops: int) -> dict:
    """Per-operation counts and self times from the traced calls."""
    def names(*prefixes):
        return [n for n in tracer.stats if n.startswith(prefixes)]

    def count(*prefixes):
        return (tracer.calls(*names(*prefixes)) / ops, "count")

    def self_ms(*prefixes):
        return (tracer.self_ns(*names(*prefixes)) / 1e6 / ops, "ms")

    order = tuple(f"minkowski.{n}" for n in ("leq", "lt", "slr", "interval"))
    events_order = tuple(f"events.{n}" for n in ("leq", "lt", "glued", "same_event"))
    choice = ("histories.is_choice_point", "histories.is_generated_choice_point")
    kinds = ("finite", "integer_row", "harmonic_pair", "difference_row")
    metrics = {
        "minkowski.order_calls": count(*order),
        "minkowski.order_self_ms": self_ms(*order),
        "families.cone_calls": count(*(f"families.{kind}." for kind in kinds)),
    }
    for kind in kinds:
        metrics[f"families.{kind}.cone_self_ms"] = self_ms(f"families.{kind}.")
    metrics.update({
        "families.members_yielded": (sum(tracer.yielded.values()) / ops, "count"),
        "model.in_overlap_calls": count("model.in_overlap"),
        "model.in_overlap_self_ms": self_ms("model.in_overlap"),
        "model.validate_ms": (tracer.inclusive_ns(*names("model.validate_model")) / 1e6 / ops, "ms"),
        "events.order_calls": count(*events_order),
        "events.order_self_ms": self_ms(*events_order),
        "histories.choice_point_calls": count(*choice),
        "histories.self_ms": self_ms("histories."),
        "sampling.draws": (tracer.calls("sampling.Sampler.point", "sampling.Sampler.causal_delta",
                                        "sampling.Sampler.choice") / ops, "count"),
        "sampling.self_ms": self_ms("sampling."),
        "oracle.overlap_scans": count("oracle.oracle_overlap"),
        "oracle.grid_builds": count("oracle.GridSpec.points"),
        "oracle.overlap_scan_self_ms": self_ms("oracle.oracle_overlap"),
        "oracle.choice_scan_self_ms": self_ms("oracle.oracle_choice_points"),
        "oracle.cross_check_self_ms": self_ms("oracle.oracle_cross_check"),
    })
    return metrics


def layer_probes(seed: int) -> dict:
    """Single-call timings of the layers a CLI call goes through, medians of repeats."""
    from fractions import Fraction

    from minkbranch import binaryrow, modelfile, plotting
    from minkbranch.oracle import GridSpec
    from workloads import MODELS, CliSession

    def median_ms(call, repeats=PROBE_REPEATS):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            samples.append(time.perf_counter() - start)
        return _median_ms(samples)

    files = sorted(MODELS.glob("*.mbs"))
    harmonic = modelfile.load(MODELS / "harmonic.mbs")
    half = Fraction(1, 2)
    grid = GridSpec(((-half, half), (-half, half)), Fraction(1, 8))
    bare = _median_ms([_child_wall("pass") for _ in range(PROBE_REPEATS)])
    imported = _median_ms([_child_wall("import minkbranch") for _ in range(PROBE_REPEATS)])

    session = CliSession(seed)
    session.setup()
    try:
        commands = [median_ms(call, 1) for _, call in session.round(in_process=True)]
    finally:
        session.close()
    return {
        "modelfile.load_ms": (median_ms(lambda: [modelfile.load(f) for f in files]), "ms"),
        "binaryrow.report_ms": (median_ms(lambda: binaryrow.centred_family_report(4, 3)), "ms"),
        "plotting.region_cells_ms": (
            median_ms(lambda: plotting.region_cells(harmonic, "u", "v", grid)), "ms"),
        "cli.import_ms": (imported - bare, "ms"),
        "cli.command_ms": (statistics.median(commands), "ms"),
    }


def traced(workload, seconds: float, seed: int) -> tuple[dict, list[Loop]]:
    """Half the time untraced, half traced; per-layer metrics and the overhead."""
    from tracer import Tracer
    from workloads import OUT

    plain = Loop(workload, in_process=True)
    plain.run(seconds / 2)
    tracer = Tracer()
    tracer.install(*trace_targets())
    try:
        loop = Loop(workload, in_process=True)
        loop.run(seconds / 2, around=tracer.operation)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, tracer.operations)
    metrics.update(layer_probes(seed))
    metrics["trace.overhead_ratio"] = (
        statistics.median(loop.cpu) / statistics.median(plain.cpu), "ratio")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.jsonl")
    return metrics, [plain, loop]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    import minkbranch  # noqa: F401  (loads the standard-library modules it needs, untimed)

    workload = WORKLOADS[name](seed)
    try:
        setup_s = statistics.median(timed_setup(workload) for _ in range(SETUP_REPEATS))
        problems = warm_up(workload, workload.in_process or trace)
        if trace:
            metrics, loops = traced(workload, seconds, seed)
        else:
            metrics, loop = end_to_end(workload, seconds, setup_s)
            loops = [loop]
        for loop in loops:
            problems += loop.problems()
    finally:
        getattr(workload, "close", lambda: None)()
    for problem in problems[:20]:
        print(f"{name}: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(len(loop.cpu) for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in turn, each in its own interpreter so peak RSS is its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle-harmonic", "axiom-battery", "cli-session", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "minkbranch" / "__init__.py").is_file():
        print(f"error: no minkbranch sources under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and frozenset order of labels follows string hashing: pin it.
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    import compileall
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    from workloads import OUT
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
