import importlib

import froblab

MODULES = ("apery", "closed_forms", "denumerant", "sequences", "tables")

# the names the package exported when it listed them by hand
EARLIER_NAMES = {
    "AperySet", "BranchDiscriminant", "CaseTag", "Cell", "Computation",
    "DegenerateTupleError", "DenumerantTable", "FormulaResult", "GeneratorTuple",
    "NotCoveredError", "ResidueTable", "SequenceKind", "TripleParams",
    "TupleValidationError", "apery_levels", "apery_set", "build_table", "closed_g",
    "closed_n", "compute_g", "compute_n", "denumerant", "denumerant_table",
    "discriminant", "export_json", "fib", "gp_fib", "gp_fib_two_gen", "gp_lucas",
    "largest_with_exactly_p", "lucas", "np_fib", "np_lucas", "p_frobenius",
    "p_frobenius_scan", "p_sylvester", "p_sylvester_scan", "params", "proposition_h",
    "render_ascii", "seq", "triple",
}


def test_package_exports_each_module_all():
    union = []
    for name in MODULES:
        module = importlib.import_module(f"froblab.{name}")
        for attr in module.__all__:
            assert getattr(froblab, attr) is getattr(module, attr), attr
        union += module.__all__
    assert len(set(union)) == len(union)
    assert sorted(froblab.__all__) == sorted(union)


def test_package_keeps_every_earlier_name():
    assert len(EARLIER_NAMES) == 42
    assert EARLIER_NAMES <= set(froblab.__all__)
    assert {"MAX_INDEX", "VALUE_BUDGET"} <= set(froblab.__all__)


def test_package_denumerant_is_the_function():
    assert froblab.denumerant(6, (2, 3)) == 2  # 3*2 and 2*3
