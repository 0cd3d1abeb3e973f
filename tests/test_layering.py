"""The package's module graph, read from the source without importing it.

Every import sits at module top, the ``from .x import`` edges between the
modules of ``trialg`` form no cycle, every imported name is used in the
module that imports it, and every function or method is named somewhere in
the package.  No module imports ``dataclasses`` or runs generated code, and
importing the command line front end in a fresh interpreter loads neither
``dataclasses`` nor ``inspect``.
"""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trialg"
MODULES = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}

# Names a module imports only to keep them bound for outside code; see the
# comment at the import.
RE_EXPORTS = {("maps", "kernel_basis")}


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _local_imports(tree):
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (scope.name, node.lineno)
        for scope in ast.walk(tree)
        if isinstance(scope, scopes)
        for node in _imports(scope)
    ]


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_no_function_local_imports(module):
    assert _local_imports(MODULES[module]) == []


def test_intra_package_imports_are_acyclic():
    graph = {
        module: {node.module for node in _imports(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}
        for module, tree in MODULES.items()
    }
    assert all(dep in MODULES for deps in graph.values() for dep in deps)
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


@pytest.mark.parametrize("module", MODULES)
def test_no_dataclasses_and_no_generated_code(module):
    tree = MODULES[module]
    imported = {
        name
        for node in _imports(tree)
        for name in ([node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names])
    }
    assert "dataclasses" not in imported
    calls = {node.func.id for node in ast.walk(tree) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert calls.isdisjoint({"exec", "eval", "compile"})


def test_cli_import_loads_no_heavy_stdlib_modules():
    """A fresh ``from trialg import cli`` adds neither ``dataclasses`` nor
    ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``) to ``sys.modules``."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from trialg import cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_every_imported_name_is_used(module):
    tree = MODULES[module]
    used = _used_names(tree)
    unused = [
        alias.asname or alias.name.split(".")[0]
        for node in _imports(tree)
        if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
    ]
    assert [name for name in unused if (module, name) not in RE_EXPORTS] == []


# Public names that nothing in the package calls, each kept on purpose.
KEPT_API = {
    "GF": "the documented constructor of prime fields",
    "Subspace.full": "the whole space, the natural partner of the canonical subspaces",
    "bracket_sigma": "the paper's twisted bracket [x, y]_σ, evaluated pointwise",
    "is_generalized_pair": "the checker of the paper's generalized σ-derivation pairs",
    "compose_centralizing": "the inverse of decompose_centralizing, as for the other kinds",
}


def _definitions(tree):
    """``(qualified name, name)`` of every function and method, nested ones too."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    methods = {fn: f"{cls.name}.{fn.name}" for cls in classes for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    return [(methods.get(fn, fn.name), fn.name) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]


def test_every_definition_is_used():
    """Every non-dunder function or method of the package is referenced by
    name, as a Name or an Attribute, somewhere in its modules other than
    ``__init__``; re-exporting it does not count, and tests are not read.
    The match is by name only, so a method named like another call (``mul``,
    ``add``, ``zero``) passes."""
    modules = [tree for module, tree in MODULES.items() if module != "__init__"]
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in modules
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = {
        qualified
        for tree in modules
        for qualified, name in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in referenced
    }
    assert unused == set(KEPT_API)
