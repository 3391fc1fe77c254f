"""Branching space-times over the exact Minkowski causal order.

Points live on a rational Minkowski lattice of any dimension, scenarios
are glued along splitting-point families, and every query is answered in
exact arithmetic.  The oracle module re-derives region and choice-point
answers by brute enumeration so the closed forms never get to grade
their own homework.
"""

from .binaryrow import (
    BinaryRowModel,
    PrefixZeroScenarios,
    ZeroSetScenario,
    centred_family_report,
    chain_labeled,
    chain_points,
    exclusion_witness,
    verify_chain,
)
from .errors import (
    DimensionMismatch,
    GridBudgetExceeded,
    MissingFamily,
    ModelFormatError,
    ScenariosNotEnumerable,
    UnknownScenario,
    WitnessNotFound,
)
from .events import EventClass, LabeledPoint, event_class, glued, same_event
from .families import (
    DifferenceRow,
    FiniteFamily,
    HarmonicPair,
    IntegerRow,
    SplittingFamily,
    family_kind,
)
from .histories import (
    ChainSample,
    History,
    common_scenarios,
    in_history,
    is_choice_point,
    is_generated_choice_point,
    prior_choice_witness,
    run_axiom_suite,
    scenarios_at,
)
from .minkowski import (
    Point,
    between,
    common_upper_bound,
    comparable,
    interval,
    leq,
    lift_above,
    lt,
    point,
    rational,
    slr,
)
from .model import BranchingModel, Model, triangle_check, validate_model
from .modelfile import dump, dumps, load, loads
from .oracle import GridSpec, oracle_choice_points, oracle_cross_check, oracle_overlap
from .reporting import CheckResult, Report
from .sampling import Sampler, SamplerConfig, random_model

__version__ = "0.1.0"

__all__ = [
    "BinaryRowModel",
    "BranchingModel",
    "ChainSample",
    "CheckResult",
    "DifferenceRow",
    "DimensionMismatch",
    "EventClass",
    "FiniteFamily",
    "GridBudgetExceeded",
    "GridSpec",
    "HarmonicPair",
    "History",
    "IntegerRow",
    "LabeledPoint",
    "MissingFamily",
    "Model",
    "ModelFormatError",
    "Point",
    "PrefixZeroScenarios",
    "Report",
    "Sampler",
    "SamplerConfig",
    "ScenariosNotEnumerable",
    "SplittingFamily",
    "UnknownScenario",
    "WitnessNotFound",
    "ZeroSetScenario",
    "between",
    "centred_family_report",
    "chain_labeled",
    "chain_points",
    "common_scenarios",
    "common_upper_bound",
    "comparable",
    "dump",
    "dumps",
    "event_class",
    "exclusion_witness",
    "family_kind",
    "glued",
    "in_history",
    "interval",
    "is_choice_point",
    "is_generated_choice_point",
    "leq",
    "lift_above",
    "load",
    "loads",
    "lt",
    "oracle_choice_points",
    "oracle_cross_check",
    "oracle_overlap",
    "point",
    "prior_choice_witness",
    "random_model",
    "rational",
    "run_axiom_suite",
    "same_event",
    "scenarios_at",
    "slr",
    "triangle_check",
    "validate_model",
    "verify_chain",
]
