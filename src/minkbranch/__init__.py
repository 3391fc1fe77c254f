"""Branching space-times over the exact Minkowski causal order.

Points live on a rational Minkowski lattice of any dimension, scenarios
are glued along splitting-point families, and every query is answered in
exact arithmetic.  The oracle module re-derives region and choice-point
answers by brute enumeration so the closed forms never get to grade
their own homework.

Importing the package loads none of its modules.  Each public name is
listed once, under its module, in `_EXPORTS`; the first access to a name
(or to a submodule, as in `minkbranch.oracle`) imports that module.  A
name is looked up in its module on every access, never copied here, so
the package always shows what the module holds.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "binaryrow": ("BinaryRowModel", "PrefixZeroScenarios", "ZeroSetScenario",
                  "centred_family_report", "chain_labeled", "chain_points",
                  "exclusion_witness", "verify_chain"),
    "errors": ("DimensionMismatch", "GridBudgetExceeded", "MissingFamily", "ModelFormatError",
               "ScenariosNotEnumerable", "UnknownScenario", "WitnessNotFound"),
    "events": ("EventClass", "LabeledPoint", "event_class", "glued", "same_event"),
    "families": ("DifferenceRow", "FiniteFamily", "HarmonicPair", "IntegerRow",
                 "SplittingFamily", "family_kind"),
    "histories": ("ChainSample", "History", "common_scenarios", "in_history", "is_choice_point",
                  "is_generated_choice_point", "prior_choice_witness", "run_axiom_suite",
                  "scenarios_at"),
    "minkowski": ("Point", "between", "common_upper_bound", "comparable", "interval", "leq",
                  "lift_above", "lt", "point", "rational", "slr"),
    "model": ("BranchingModel", "Model", "triangle_check", "validate_model"),
    "modelfile": ("dump", "dumps", "load", "loads"),
    "oracle": ("GridSpec", "oracle_choice_points", "oracle_cross_check", "oracle_overlap"),
    "reporting": ("CheckResult", "Report"),
    "sampling": ("Sampler", "SamplerConfig", "random_model"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(import_module(f".{_OWNER[name]}", __name__), name)
    if not name.startswith("_"):
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
