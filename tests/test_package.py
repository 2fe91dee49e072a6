import ast
import importlib
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

import froblab
from froblab import cli

MODULES = ("apery", "closed_forms", "denumerant", "generators", "route", "sequences", "tables")

# the names the package exported when it listed them by hand
EARLIER_NAMES = {
    "AperySet", "CaseTag", "Cell", "Computation",
    "DegenerateTupleError", "DenumerantTable", "FormulaResult", "GeneratorTuple",
    "NotCoveredError", "ResidueTable", "SequenceKind", "TripleParams",
    "TupleValidationError", "apery_levels", "build_table", "closed_g", "closed_n",
    "denumerant", "denumerant_table", "export_json", "fib",
    "gp_fib_two_gen", "largest_with_exactly_p", "lucas",
    "p_frobenius_scan", "p_sylvester_scan", "params", "proposition_h",
    "render_ascii", "seq",
}

# wrappers over apery_levels, route.compute and params, removed with their callers,
# and the family entries and branch record that closed_g and closed_n replace
REMOVED_NAMES = (
    "apery_set", "p_frobenius", "p_sylvester", "compute_g", "compute_n", "triple",
    "BranchDiscriminant", "discriminant", "gp_fib", "gp_lucas", "np_fib", "np_lucas",
)


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
    assert len(EARLIER_NAMES) == 30
    assert EARLIER_NAMES <= set(froblab.__all__)
    assert {"MAX_INDEX", "VALUE_BUDGET"} <= set(froblab.__all__)


def test_removed_wrappers_are_gone():
    for name in REMOVED_NAMES:
        assert not hasattr(froblab, name), name
        for module in MODULES:
            assert not hasattr(importlib.import_module(f"froblab.{module}"), name), (module, name)
    assert not hasattr(froblab.GeneratorTuple, "of")
    assert not hasattr(froblab.GeneratorTuple, "a2")
    assert not hasattr(froblab.SequenceKind, "parse")
    assert not hasattr(cli, "_parse_k_span")
    # a kind is a member or its value, "fib" or "lucas"; no alias or other case
    for text in ("Fibonacci", "f", "l", "LUCAS", " lucas "):
        with pytest.raises(ValueError):
            froblab.SequenceKind(text)


def test_package_denumerant_is_the_function():
    assert froblab.denumerant(6, (2, 3)) == 2  # 3*2 and 2*3


def _literal(comment: str):
    try:
        return True, ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        return False, None


def test_readme_library_snippet_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (snippet,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(snippet).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace, checked = {}, []
    for node in ast.parse(snippet).body:
        is_literal, want = _literal(comments.get(node.end_lineno, ""))
        if not is_literal:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(node, ast.Expr), f"line {node.lineno}: only an expression can show a value"
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert got == want, f"line {node.lineno}: {got!r} != {want!r}"
        checked.append(want)
    assert checked  # the snippet shows at least one value


def test_readme_cli_block_runs_as_documented(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?```sh\n(.*?)```", readme, re.S | re.M).group(1)
    lines = block.splitlines()
    ran = 0
    for n, line in enumerate(lines):
        if not line.startswith("froblab "):
            continue
        argv = shlex.split(re.sub(r"\s*>\s*\S+$", "", line))[1:]  # the shell's redirect is not an argument
        code, out = cli.run(argv), capsys.readouterr().out
        assert code == 0, line
        # a comment right under a command shows its first line of output
        if n + 1 < len(lines) and lines[n + 1].startswith("# "):
            assert out.splitlines()[0] == lines[n + 1][2:], line
        ran += 1
    assert ran == 8


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
    # Besides the package, only the router and table (which draws the walk of a
    # family triple) import both the closed forms and the walk; verify sets them
    # side by side through the router.
    both = {name for name, deps in graph.items() if {"apery", "closed_forms"} <= deps}
    assert both == {"__init__", "route", "tables"}
    assert "denumerant" not in _reach(graph, "cli") | _reach(graph, "tables")



def _triple_params_calls(node) -> list:
    """Calls of ``TripleParams(...)`` or of a method on the class, e.g. ``TripleParams._make``."""
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call) and "TripleParams" in (
            getattr(call.func, "id", None), getattr(getattr(call.func, "value", None), "id", None)
        )
    ]


def _uses(tree) -> set[str]:
    """Names read (``closed_g``) or bound (``_QUANTITIES =``), and calls (``apery_levels(``,
    ``.frobenius()``); a ``def`` or an import binds no ``ast.Name``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id if isinstance(node.ctx, ast.Load) else f"{node.id} =")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            used.add(f".{node.func.attr}()")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            used.add(f"{node.func.id}(")
    return used


def test_only_the_router_maps_a_quantity_to_its_routes():
    users: dict[str, set[str]] = {}
    for path in Path(froblab.__file__).parent.glob("*.py"):
        for name in _uses(ast.parse(path.read_text(encoding="utf-8"))):
            users.setdefault(name, set()).add(path.stem)
    for name in ("closed_g", "closed_n", ".frobenius()", ".sylvester()", "_QUANTITIES ="):
        assert users.get(name) == {"route"}, name
    assert users["apery_levels("] == {"route", "tables"}


def test_only_params_constructs_triple_params():
    calls, in_params = [], []
    for path in Path(froblab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += _triple_params_calls(tree)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) == ("closed_forms", "params"):
                in_params += _triple_params_calls(fn)
    assert len(calls) == len(in_params) == 1
