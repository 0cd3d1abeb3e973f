"""Layer spans around trialg's public entry points, installed from outside.

The tracer wraps each layer's public functions and rebinds every name that
refers to them in any loaded ``trialg`` module, including names a module took
with ``from … import`` (for example ``maps.kernel_basis`` or
``cli.solve_space``) and the home module's own globals, so calls made inside
a module are traced too.  Nothing under ``src/`` changes.

Definitions:

- ``<layer>_s`` is self time: the time inside the layer's spans minus the
  time covered by spans nested in them.  Time the tracer spends counting is
  charged to no layer.
- ``<layer>.calls`` counts entries into the layer: calls of its functions
  that are not nested in another span of the same layer.
- ``linalg.rref.*`` shape counters sum over every ``rref`` elimination
  (``max_cells`` is the largest single input).  To count nonzeros the tracer
  copies the list of input rows (not the rows) before each call.
- ``maps.check`` includes the automorphism check ``solve_space`` makes on σ,
  because it is the same ``is_automorphism`` call.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

# layer -> (home module, patterns of the public functions it owns)
LAYERS = {
    "families.build": ("trialg.families", ("*",)),
    "algebra.center": ("trialg.algebra", ("center", "sigma_center", "*_subspace")),
    "maps.solve": ("trialg.maps", ("solve_space",)),
    "maps.check": (
        "trialg.maps",
        ("is_automorphism", "is_sigma_derivation", "is_generalized_pair", "is_left_multiplier", "predicate"),
    ),
    "linalg.rref": ("trialg.linalg", ("rref", "kernel_basis", "solve_linear")),
    "structure.decompose": (
        "trialg.structure",
        ("decompose_*", "compose_*", "centralizing_conditions", "commuting_criterion"),
    ),
    "theorems.verify": ("trialg.theorems", ("verify_*",)),
    "cli.serialize": ("trialg.cli", ("fmt_*", "report_to_json")),
    "cli.run": ("trialg.cli", ("run_config",)),
}

# Counters that take the maximum over jobs instead of the sum.
MAX_COUNTERS = ("linalg.rref.max_cells",)


def _public_functions(module, patterns):
    """Functions defined in ``module`` (not imported) whose names match."""
    found = {}
    for name, value in vars(module).items():
        if name.startswith("_") or not callable(value) or isinstance(value, type):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if any(fnmatch.fnmatchcase(name, p) for p in patterns):
            found[name] = value
    return found


class Tracer:
    """Aggregates self time per layer and exact counters, in memory."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []  # per open span: [time covered by child spans]
        self._depth: Counter = Counter()
        self._saved: list[tuple] = []  # (module, name, original)

    # -- installation ------------------------------------------------------

    def install(self) -> set[tuple[str, str]]:
        """Wrap every layer function and rebind it wherever it is bound.

        Returns the set of ``(module, name)`` bindings that now point at a
        span wrapper.  Raises if a layer matches no function.
        """
        import trialg.cli  # noqa: F401  (loads every trialg module)

        wrappers = {}  # keyed by id: module globals include unhashable values
        for layer, (home, patterns) in LAYERS.items():
            functions = _public_functions(sys.modules[home], patterns)
            if not functions:
                raise RuntimeError(f"layer {layer} matches no function in {home}")
            for name, fn in functions.items():
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        bound = set()
        for modname, module in list(sys.modules.items()):
            if modname != "trialg" and not modname.startswith("trialg."):
                continue
            for name, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._saved.append((module, name, value))
                    setattr(module, name, entry[1])
                    bound.add((modname, name))
        return bound

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    # -- spans -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        before = after = None
        if name == "rref":
            before, after = self._rref_before(fn), self._rref_after
        elif layer == "maps.solve":
            after = self._solve_after
        elif layer == "families.build":
            after = self._build_after
        elif name == "verify_mayne":
            after = self._mayne_after
        elif name == "report_to_json":
            after = self._json_after

        stack, depth, self_s = self._stack, self._depth, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                t0 = perf_counter()
                args, kwargs = before(args, kwargs)
                if stack:
                    stack[-1][0] += perf_counter() - t0
            outer = depth[layer] == 0
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                depth[layer] -= 1
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if outer:
                self.counts[layer + ".calls"] += 1
            if after is not None:
                t0 = perf_counter()
                after(result, outer)
                if stack:
                    stack[-1][0] += perf_counter() - t0
            return result

        return span

    # -- counters ----------------------------------------------------------

    def _rref_before(self, fn):
        signature = inspect.signature(fn)

        def before(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            rows = list(bound.arguments["rows"])
            ncols = bound.arguments["ncols"]
            nnz = sum(len(r) - r.count(0) for r in rows)
            cells = len(rows) * ncols
            c = self.counts
            c["linalg.rref.rows_in"] += len(rows)
            c["linalg.rref.nnz_in"] += nnz
            c["linalg.rref.cells_in"] += cells
            c["linalg.rref.max_cells"] = max(c["linalg.rref.max_cells"], cells)
            bound.arguments["rows"] = rows
            return bound.args, bound.kwargs

        return before

    def _rref_after(self, result, outer):
        self.counts["linalg.rref.rank"] += len(result[1])

    def _solve_after(self, space, outer):
        self.counts["maps.solve.unknowns"] += space.space.ambient_dim
        self.counts["maps.solve.nullity"] += space.dim

    def _build_after(self, built, outer):
        if outer:
            self.counts["families.algebra_dim"] += built.algebra.dim if hasattr(built, "algebra") else built.dim

    def _mayne_after(self, report, outer):
        self.counts["theorems.mayne.samples"] += report.dimensions["samples"]

    def _json_after(self, text, outer):
        self.counts["cli.report_bytes"] += len(text.encode())

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts)}
