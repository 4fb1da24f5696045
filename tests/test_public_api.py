"""The surfaces other code relies on: the package namespace, the README's
library example and the names the benchmark's tracer binds; and no module
imports a name it never uses."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

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
