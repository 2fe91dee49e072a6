"""froblab: exact level-p Frobenius and Sylvester numbers.

Two independent routes to every quantity — closed forms where the
Fibonacci/Lucas triple families admit them, and an exact Apery-set
oracle everywhere — plus the machinery to compare the routes against
each other.
"""

from .apery import (
    AperySet,
    DegenerateTupleError,
    apery_levels,
    apery_set,
    p_frobenius,
    p_frobenius_scan,
    p_sylvester,
    p_sylvester_scan,
)
from .closed_forms import (
    BranchDiscriminant,
    CaseTag,
    Computation,
    FormulaResult,
    NotCoveredError,
    TripleParams,
    closed_g,
    closed_n,
    compute_g,
    compute_n,
    discriminant,
    gp_fib,
    gp_fib_two_gen,
    gp_lucas,
    np_fib,
    np_lucas,
    params,
    proposition_h,
    triple,
)
from .denumerant import (
    DenumerantTable,
    GeneratorTuple,
    TupleValidationError,
    denumerant,
    denumerant_table,
    largest_with_exactly_p,
)
from .sequences import SequenceKind, fib, lucas, seq
from .tables import Cell, ResidueTable, build_table, export_json, render_ascii

__version__ = "0.1.0"

__all__ = [
    "AperySet",
    "BranchDiscriminant",
    "CaseTag",
    "Cell",
    "Computation",
    "DegenerateTupleError",
    "DenumerantTable",
    "FormulaResult",
    "GeneratorTuple",
    "NotCoveredError",
    "ResidueTable",
    "SequenceKind",
    "TripleParams",
    "TupleValidationError",
    "apery_levels",
    "apery_set",
    "build_table",
    "closed_g",
    "closed_n",
    "compute_g",
    "compute_n",
    "denumerant",
    "denumerant_table",
    "discriminant",
    "export_json",
    "fib",
    "gp_fib",
    "gp_fib_two_gen",
    "gp_lucas",
    "largest_with_exactly_p",
    "lucas",
    "np_fib",
    "np_lucas",
    "p_frobenius",
    "p_frobenius_scan",
    "p_sylvester",
    "p_sylvester_scan",
    "params",
    "proposition_h",
    "render_ascii",
    "seq",
    "triple",
]
