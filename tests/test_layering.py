"""The package's module graph, read from the source without importing it,
and what a fresh interpreter loads.

Every import sits at module top, the ``from .x import`` and ``from . import
x`` edges between the modules of ``trialg`` form no cycle, every imported
name is used in the module that imports it, and every function or method is
named somewhere in the package.  No module imports ``dataclasses`` or runs
generated code, and only ``__init__`` names ``importlib``, to defer
``structure`` and ``theorems``.  In a fresh interpreter, importing the front
end loads neither ``dataclasses``, ``inspect`` nor ``argparse``, a run that
only solves leaves both deferred modules unexecuted, and the package still
serves every name it re-exports.
"""

import ast
import graphlib
import json
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


def _package_imports(tree):
    """The modules of ``trialg`` a module imports: ``x`` of ``from .x import …``
    and every name of ``from . import x, y``."""
    return {
        dep
        for node in _imports(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for dep in ([node.module] if node.module else [alias.name for alias in node.names])
    }


def test_intra_package_imports_are_acyclic():
    graph = {module: _package_imports(tree) for module, tree in MODULES.items()}
    assert all(dep in MODULES for deps in graph.values() for dep in deps)
    assert {"structure", "theorems"} <= graph["cli"]
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def test_theorems_takes_only_the_description_from_structure():
    """``theorems`` reads the paper's descriptions from ``structure`` and
    nothing of its decompositions, nor the module as a whole."""
    imported = [
        alias.name
        for node in _imports(MODULES["theorems"])
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if "structure" in (node.module, alias.name)
    ]
    names = ["DESCRIPTION_KINDS", "_IDENTITIES", "_entries", "description_conditions", "description_space"]
    assert sorted(imported) == names


def _names_importlib(tree):
    return any(
        (isinstance(node, ast.Name) and node.id == "importlib")
        or (isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "importlib" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "importlib")
        for node in ast.walk(tree)
    )


def test_only_the_package_defers_modules():
    """``importlib`` appears in ``__init__`` alone, which binds exactly
    ``structure`` and ``theorems``, each under its own name, to a deferred
    module."""
    assert [module for module, tree in MODULES.items() if _names_importlib(tree)] == ["__init__"]
    deferred = [
        (target.id, node.value.args[0].value)
        for node in ast.walk(MODULES["__init__"])
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "id", None) == "_deferred"
        for target in node.targets
    ]
    assert sorted(deferred) == [("structure", "structure"), ("theorems", "theorems")]


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


def _fresh(code: str, *args: str) -> str:
    """What ``code`` prints, run with ``args`` in a fresh interpreter that imports this ``trialg``."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return done.stdout.strip()


def test_cli_import_loads_no_heavy_stdlib_modules():
    """A fresh ``from trialg import cli`` adds neither ``dataclasses``,
    ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``) nor
    ``argparse`` to ``sys.modules``."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from trialg import cli\n"
        "print(sorted({'argparse', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    assert _fresh(code) == "[]"


# Runs one config through ``run_config`` in a fresh interpreter and prints
# which deferred modules have executed and whether ``argparse`` is loaded.
RUN_AND_REPORT_LOADS = """
import json, sys, types
from trialg import cli
report, code = cli.run_config(json.loads(sys.argv[1]))
assert code == 0 and all(task["status"] in ("ok", "pass") for task in report["tasks"]), report
executed = [name for name in ("structure", "theorems") if type(sys.modules["trialg." + name]) is types.ModuleType]
print(json.dumps({"executed": executed, "argparse": "argparse" in sys.modules}))
"""


@pytest.mark.parametrize(
    "tasks, executed",
    [
        (["center", "solve:derivation", "solve:generalized_pair", "solve:skew_centralizing"], []),
        (["decompose:sigma_derivation"], ["structure"]),
        (["sigma_center"], ["structure"]),
        (["verify:posner"], ["structure", "theorems"]),
        (["verify:sharma_dhara"], ["structure", "theorems"]),
    ],
    ids=["solve", "decompose", "sigma-center", "verify-posner", "verify-sharma-dhara"],
)
def test_a_run_executes_only_the_modules_its_tasks_use(tasks, executed):
    config = {"field": {"prime": 7}, "algebra": {"family": "trian_trunc", "N": 2}, "sigma": {"diag_signs": [1, -1]},
              "tasks": tasks}
    out = json.loads(_fresh(RUN_AND_REPORT_LOADS, json.dumps(config)))
    assert out == {"executed": executed, "argparse": False}


# The names the package re-exported when every module was imported eagerly,
# by home module.
REEXPORTS = {
    "algebra": "Bimodule CenterData FDAlgebra TriangularAlgebra center center_subspace sigma_center_subspace "
    "trivial_idempotents",
    "errors": "AssociativityViolation BimoduleAxiomViolation ConditionFailure ConfigError HypothesisNotMet "
    "InvalidParts NotAutomorphism NotFaithful PredicateNotSatisfied ReconstructionMismatch StructuralMismatch "
    "TrialgError UnitViolation ZeroModule",
    "families": "Fixture block_algebra block_upper fixture_n3 fixture_trian_AA0 full_matrix_algebra trian_trunc "
    "trunc_poly upper_triangular",
    "fields": "GF QQ PrimeField RationalField field_from_spec",
    "linalg": "Matrix Subspace kernel_basis solve_linear",
    "maps": "CheckResult LinearEndo MapSpace Witness bracket_sigma inner_automorphism is_automorphism "
    "is_generalized_pair is_left_multiplier is_sigma_derivation predicate solve_space",
    "structure": "AutParts CentParts DerParts GenParts MultParts SigmaCenterData "
    "commuting_criterion compose_automorphism compose_centralizing compose_generalized compose_sigma_derivation "
    "decompose_automorphism decompose_centralizing decompose_generalized decompose_left_multiplier "
    "decompose_sigma_derivation sigma_center",
    "theorems": "TheoremReport verify_gd_left_mult verify_mayne verify_posner verify_sharma_dhara verify_skew_zero",
}


def test_every_reexported_name_resolves_to_its_home_object():
    """In a fresh interpreter each re-exported name, read from the package
    first, is its home module's object; an unknown name raises
    ``AttributeError``, and ``from trialg import`` of it ``ImportError``."""
    code = """
import importlib, json, sys
import trialg
table = json.loads(sys.argv[1])
served = {name: getattr(trialg, name) for names in table.values() for name in names.split()}
wrong = [name for home, names in table.items() for name in names.split()
         if served[name] is not getattr(importlib.import_module("trialg." + home), name)]
try:
    trialg.no_such_name
except AttributeError as exc:
    unknown = str(exc)
try:
    from trialg import no_such_name
except ImportError:
    imported = False
print(json.dumps([wrong, unknown, imported, hasattr(trialg, "no_such_name")]))
"""
    wrong, unknown, imported, has = json.loads(_fresh(code, json.dumps(REEXPORTS)))
    assert wrong == []
    assert unknown == "module 'trialg' has no attribute 'no_such_name'"
    assert imported is False and has is False


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


def _docstrings(tree):
    """The ids of the docstring nodes of a module and of its classes and functions."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


@pytest.mark.parametrize("phrase", ["needs a triangular algebra", "decided idempotent-free"])
def test_each_hypothesis_message_is_built_in_one_module(phrase):
    """Only the hypothesis gate (``algebra.require_hypotheses``) writes a
    hypothesis message: no string outside a docstring holds the phrase in
    any other module, so the gate cannot be copied again."""
    builders = [
        module
        for module, tree in MODULES.items()
        if any(
            isinstance(node, ast.Constant) and isinstance(node.value, str) and phrase in node.value
            and id(node) not in _docstrings(tree)
            for node in ast.walk(tree)
        )
    ]
    assert builders == ["algebra"]


def test_a_triangular_algebra_needs_no_coercion():
    """A triangular algebra is an ``FDAlgebra``, so it is passed where an
    algebra is asked for: no function of the package has a parameter named
    ``algebra_or_t``, and ``maps`` defines no ``as_algebra``."""
    coercing = [
        (module, fn.name)
        for module, tree in MODULES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if arg.arg == "algebra_or_t"
    ]
    assert coercing == []
    assert "as_algebra" not in {fn.name for fn in ast.walk(MODULES["maps"]) if isinstance(fn, ast.FunctionDef)}


def test_theorems_uses_only_public_names_of_maps():
    """The Mayne sampler stays on the public ``inner_automorphism``:
    ``theorems`` imports no underscore-prefixed name from ``maps``."""
    private = [
        alias.name
        for node in _imports(MODULES["theorems"])
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "maps"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# Public names that nothing in the package calls, each kept on purpose.
KEPT_API = {
    "GF": "the documented constructor of prime fields",
    "Subspace.full": "the whole space, the natural partner of the canonical subspaces",
    "bracket_sigma": "the paper's twisted bracket [x, y]_σ, evaluated pointwise",
    "compose_centralizing": "the inverse of decompose_centralizing, as for the other kinds",
    "compose_sigma_derivation": "the inverse of decompose_sigma_derivation, used by the README example",
    "compose_generalized": "the inverse of decompose_generalized, as for the other kinds",
    "decompose_sigma_derivation": "the per-map decomposition of the paper's σ-derivation description",
    "decompose_centralizing": "the per-map decomposition of the paper's σ-centralizing description",
    "decompose_generalized": "the per-map decomposition of a generalized σ-derivation with its partner",
    "decompose_left_multiplier": "the per-map decomposition of a left multiplier",
    "report_to_json": "the report as one string, for library callers and the benchmark's jobs",
}


def _definitions(tree):
    """``(qualified name, name, is a method)`` of every function and method, nested ones too."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    methods = {fn: f"{cls.name}.{fn.name}" for cls in classes for fn in cls.body if isinstance(fn, ast.FunctionDef)}
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    return [(methods.get(fn, fn.name), fn.name, fn in methods) for fn in functions]


def test_every_definition_is_used():
    """Every non-dunder function or method of the package is referenced
    somewhere in its modules other than ``__init__``: a function by name, as
    a Name or an Attribute, and a method only as an Attribute (``.name``), so
    a local variable of the same name does not count for it.  Re-exporting
    does not count, and tests are not read.  The match is by name only, so a
    method named like another attribute (``mul``, ``add``, ``zero``) passes."""
    modules = [tree for module, tree in MODULES.items() if module != "__init__"]
    nodes = [node for tree in modules for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    referenced = attributes | {node.id for node in nodes if isinstance(node, ast.Name)}
    unused = {
        qualified
        for tree in modules
        for qualified, name, method in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in (attributes if method else referenced)
    }
    assert unused == set(KEPT_API)
