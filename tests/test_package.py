import ast
import importlib
from pathlib import Path

import froblab

MODULES = ("apery", "closed_forms", "denumerant", "generators", "route", "sequences", "tables")

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


# ------------------------------------------------------------ import graph

ROUTES = {"apery", "closed_forms", "denumerant"}


def _import_graph() -> dict[str, set[str]]:
    """The froblab modules each source file imports, read with ``ast``.

    Importing any submodule runs ``froblab/__init__.py``, which imports every
    module, so ``sys.modules`` cannot show what a module itself depends on.
    """
    graph = {}
    for path in Path(froblab.__file__).parent.glob("*.py"):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module else [a.name for a in node.names])
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("froblab."):
                deps.add(node.module)
            elif isinstance(node, ast.Import):
                deps.update(a.name for a in node.names if a.name.startswith("froblab."))
        graph[path.stem] = {d.removeprefix("froblab.").split(".")[0] for d in deps}
    return graph


def _reach(graph: dict[str, set[str]], name: str) -> set[str]:
    seen, todo = set(), [name]
    while todo:
        for dep in graph[todo.pop()] - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_routes_import_none_of_each_other():
    graph = _import_graph()
    assert ROUTES | {"generators", "route", "cli", "tables"} <= set(graph)
    for name in ROUTES:
        assert not _reach(graph, name) & ROUTES, name
    assert not graph["generators"] and not graph["sequences"]
    # Besides the package, only the router and the two front ends that set the
    # routes side by side (verify compares them; table draws the walk of a
    # family triple) import both the closed forms and the walk.
    both = {name for name, deps in graph.items() if {"apery", "closed_forms"} <= deps}
    assert both == {"__init__", "route", "cli", "tables"}
    assert "denumerant" not in _reach(graph, "cli") | _reach(graph, "tables")
