"""Power-of-r bracketing for van der Waerden numbers W(r, k).

Every W(r, k) sits in a unique bracket [r**n, r**(n+1)); the bracket
exponent n (digit length minus one) drives upper-bound conditions such as
W < r**(k*k), exponent windows for unknown values, and interval plans for
searching them.  The package pairs that arithmetic with an exact coloring
search for small instances, certificate verification, and DIMACS CNF export
for external SAT solvers.
"""

from .bounds import (
    ConjectureReport,
    ErdosRadoReport,
    NRange,
    VdwInstance,
    conjecture_certificate,
    erdos_rado,
    exponent_relations,
    graham_condition,
    n_range,
    plan_intervals,
    power_of_ten_bound,
)
from .cnf import (
    CnfFormula,
    decode_model,
    encode,
    parse_solver_output,
    read_dimacs,
    run_external_solver,
    write_dimacs,
)
from .errors import (
    BudgetExhausted,
    ConfigError,
    DecodeError,
    DomainError,
    InfeasibleRangeError,
    IntegrityError,
    TriviallySatisfiableError,
    WaerdenError,
)
from .numerics import (
    ApproxErrors,
    Bracket,
    DeltaReport,
    RadixExpansion,
    approx_errors,
    bracket_exponent,
    delta,
    expand,
    reconstruct,
)
from .registry import KnownValue, TableARow, known_values, lookup, report, table_a
from .search import (
    APWitness,
    Budget,
    Coloring,
    ComputeWResult,
    SearchOutcome,
    SearchStatus,
    certificate_from_json,
    certificate_to_json,
    compute_W,
    decide_colorability,
    find_mono_ap,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "APWitness",
    "ApproxErrors",
    "Bracket",
    "Budget",
    "BudgetExhausted",
    "CnfFormula",
    "Coloring",
    "ComputeWResult",
    "ConfigError",
    "ConjectureReport",
    "DecodeError",
    "DeltaReport",
    "DomainError",
    "ErdosRadoReport",
    "InfeasibleRangeError",
    "IntegrityError",
    "KnownValue",
    "NRange",
    "RadixExpansion",
    "SearchOutcome",
    "SearchStatus",
    "TableARow",
    "TriviallySatisfiableError",
    "VdwInstance",
    "WaerdenError",
    "approx_errors",
    "bracket_exponent",
    "certificate_from_json",
    "certificate_to_json",
    "compute_W",
    "conjecture_certificate",
    "decide_colorability",
    "decode_model",
    "delta",
    "encode",
    "erdos_rado",
    "expand",
    "exponent_relations",
    "find_mono_ap",
    "graham_condition",
    "known_values",
    "lookup",
    "n_range",
    "parse_solver_output",
    "plan_intervals",
    "power_of_ten_bound",
    "read_dimacs",
    "reconstruct",
    "report",
    "run_external_solver",
    "table_a",
    "verify_certificate",
    "write_dimacs",
]
