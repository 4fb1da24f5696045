"""The surfaces other code relies on: the package namespace, the README's
library example and the names the benchmark's tracer binds; no module
imports a name it never uses, and the modules import each other without a
cycle."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
import types
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import linrep
from linrep import builder_target

ROOT = Path(__file__).resolve().parents[1]

# the names tests/test_acceptance.py imports, plus class_counts from the README
PUBLIC = {
    "DIFFERENCE_FORM",
    "GroundSet",
    "INFINITY",
    "LinearForm",
    "MixedSignRequiredError",
    "PlentifulSequence",
    "TargetFunction",
    "build",
    "build_for_target",
    "build_infinite_case",
    "build_unbounded_case",
    "check_three_rep_obstruction",
    "class_counts",
    "compute_X",
    "enumerate_multiset",
    "extract_plentiful",
    "find_nontrivial_automorphism",
    "is_partition_regular",
    "is_plentiful",
    "is_primitive",
    "rep_function",
    "window_plentiful_supply",
}


def test_package_exports_exactly_the_public_names():
    exported = {
        name
        for name, value in vars(linrep).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_tracer_names_resolve():
    # building the replacements looks up every name the tracer binds,
    # without rebinding anything in the package
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    replacements = tracer.Tracer()._replacements()
    # the step loop's seed count runs through builder_target's binding
    assert builder_target.class_counts in replacements


def test_tracer_entry_points_exist():
    # ENTRY_POINTS read as text, so the check neither imports nor edits the
    # benchmark: every name it traces must be a function of its module
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "ENTRY_POINTS"
    )
    traced = {key.id: ast.literal_eval(names) for key, names in zip(table.keys, table.values)}
    assert traced
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"linrep.{module}"), name, None))
    ]
    assert missing == []


def unused_imports(source):
    """(line, name) of every name ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports the names it exports
    modules = sorted((ROOT / "src" / "linrep").glob("*.py"))
    found = {
        path.name: unused_imports(path.read_text(encoding="utf-8"))
        for path in modules
        if path.name != "__init__.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert unused_imports("import json\nfrom typing import Mapping, Optional\nOptional") == [
        (1, "json"),
        (2, "Mapping"),
    ]


def import_graph(sources):
    """(module -> the package modules it imports at runtime, function-body
    imports included and ``if TYPE_CHECKING:`` blocks skipped; the lines of
    every function-body import) of ``{module name: source}``."""
    graph, in_functions = {}, []
    for name, source in sources.items():
        graph[name] = set()
        stack = [(node, False) for node in ast.parse(source).body]
        while stack:
            node, in_function = stack.pop()
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                stack += [(child, in_function) for child in node.orelse]
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if in_function:
                    in_functions.append(f"{name}:{node.lineno}")
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    modules = [node.module] if node.module else [a.name for a in node.names]
                    graph[name].update(modules)
            inside = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            stack += [(child, inside) for child in ast.iter_child_nodes(node)]
    return graph, sorted(in_functions)


def test_package_imports_form_no_cycle():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "linrep").glob("*.py"))
    }
    graph, in_functions = import_graph(sources)
    assert in_functions == []
    TopologicalSorter(graph).prepare()  # raises CycleError naming a cycle
    # the checks themselves: a call-time import back closes a cycle
    graph, in_functions = import_graph({
        "a": "from .b import x\nif TYPE_CHECKING:\n    from .c import y\n",
        "b": "def f():\n    from . import a\n",
        "c": "from .a import z\n",
    })
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a"}}
    assert in_functions == ["b:2"]
    with pytest.raises(CycleError):
        TopologicalSorter(graph).prepare()


def test_cli_import_pulls_in_neither_dataclasses_nor_inspect():
    # each CLI call pays for its imports, and dataclasses alone pulls in
    # inspect, ast, dis and tokenize
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import linrep.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", child], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "linrep.cli" in out
    assert {"dataclasses", "inspect"} & set(out) == set()
