"""Exact decision tools for a probability logic with a next-time operator.

Satisfiability and validity are decided by exact rational arithmetic
(an exact simplex over `fractions.Fraction`); satisfiable
formulas come with explicit finite-model witnesses, and a canonical-model
toolkit exposes computable saturated-set prefixes, metrics and kernel
bounds.
"""

from .formula import (
    And,
    AtLeast,
    BOTTOM,
    Formula,
    IndexOutOfRange,
    Next,
    Not,
    Prop,
    TOP,
    at_most,
    conj,
    dyn_depth,
    iff,
    implies,
    lor,
    prob_depth,
    profile,
    props_of,
)
from .parser import FormulaSyntaxError, parse, render
from .enumeration import (
    enum_formula,
    enum_rational,
    formula_index,
    rational_index,
)
from .models import (
    FiniteDMM,
    UnknownWorld,
    load_model,
    model_from_dict,
    model_to_dict,
    random_model,
    save_model,
)
from .decide import Verdict, push_next, sat, sat_status, valid, witness
from .proof import (
    CheckResult,
    Derivation,
    Justification,
    axiom_instance,
    check_derivation,
    computable_sets,
    derives,
    matches_scheme,
    parse_derivation,
)
from .canonical import (
    Distance,
    ExtensionLimitExceeded,
    InconsistentSeed,
    Interval,
    NotFoundWithinBound,
    SaturatedPrefix,
    basis_intersection,
    kernel_bounds,
    lindenbaum,
    load_prefix,
    metric_dc,
    prefix_from_dict,
    prefix_to_dict,
    sat_function,
    save_prefix,
)
from .prokhorov import (
    FiniteMeasure,
    IncompatibleSupports,
    load_measure,
    measure_from_dict,
    measure_to_dict,
    prokhorov,
    save_measure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
