"""Configuration-driven front end: a config in, a JSON report out.

``run_config`` builds an algebra instance, runs an ordered task list
(center / sigma_center / solve:<kind> / decompose:<kind> / verify:<theorem>)
and returns the report that ``report_to_json`` writes; ``trialg.__main__``
is the command line, and ``structure`` and ``theorems`` are reached through
the package's deferred modules.  Scalars are serialized as strings
("num/den" over Q) so exactness survives the wire; reports contain no
timestamps or environment data, making identical config+seed runs
byte-identical.

Exit codes: 0 when every verification task passes, 1 when any verification
task fails or errors, 2 on configuration or usage errors.
"""

from __future__ import annotations

from . import structure, theorems
from .algebra import (
    FDAlgebra,
    TriangularAlgebra,
    center,
    center_subspace,
    require_hypotheses,
    sigma_center_subspace,
    trivial_idempotents,
)
from .errors import ConfigError, NotAutomorphism, TrialgError
from .families import (
    Fixture,
    block_upper,
    fixture_n3,
    fixture_trian_AA0,
    full_matrix_algebra,
    trian_trunc,
    trunc_poly,
    upper_triangular,
)
from .fields import QQ, Field, field_from_spec, field_to_spec
from .linalg import Matrix, Subspace, vec_add, vec_scale
from .maps import SOLVE_KINDS, LinearEndo, inner_automorphism, resolve_twist, solve_space
from .records import Record
from .report import report_fragments

SCHEMA_VERSION = 1

VERIFY_TASKS = ("posner", "mayne", "skew_zero", "sharma_dhara", "gd_left_mult", "description")
DECOMPOSE_KINDS = (
    "automorphism",
    "derivation",
    "sigma_derivation",
    "centralizing",
    "commuting",
    "generalized_pair",
    "left_multiplier",
)
# every task name run_config accepts
TASKS = frozenset(
    {"center", "sigma_center"}
    | {f"solve:{kind}" for kind in SOLVE_KINDS}
    | {f"decompose:{kind}" for kind in DECOMPOSE_KINDS}
    | {f"verify:{name}" for name in VERIFY_TASKS}
)
# the keys run_config reads, and those build_instance reads for each family
# (a fixture's by its name, an inline structure-constant table's under None)
CONFIG_KEYS = frozenset({"schema_version", "field", "algebra", "sigma", "tasks", "seed", "samples"})
FAMILY_KEYS = {
    None: frozenset({"labels", "table", "unit"}),
    "Tn": frozenset({"family", "n", "split"}),
    "block": frozenset({"family", "dims", "split"}),
    "trian_trunc": frozenset({"family", "N"}),
    "trunc_poly": frozenset({"family", "N"}),
    "matrix": frozenset({"family", "n"}),
    ("fixture", "n3"): frozenset({"family", "name"}),
    ("fixture", "trian_AA0"): frozenset({"family", "name", "N"}),
}
# a sigma object names exactly one of these forms; parts take exactly these keys
SIGMA_FORMS = frozenset({"fixture_map", "diag_signs", "conjugate_by", "matrix", "parts"})
PARTS_KEYS = frozenset({"f", "g", "m_sigma", "nu"})


# ---------------------------------------------------------------------------
# serialization


def fmt_vector(field: Field, v) -> list[str]:
    """The entries as strings; every zero entry shares one string."""
    zero = field.format(field.zero)
    return [field.format(x) if x else zero for x in v]


def fmt_matrix(field: Field, m: Matrix) -> list[list[str]]:
    return [fmt_vector(field, row) for row in m.entries]


def fmt_subspace(field: Field, s: Subspace) -> dict:
    return {"dim": s.dim, "basis": [fmt_vector(field, v) for v in s.basis]}


def _record(field: Field, data, **extra) -> dict:
    """Every Subspace, Matrix and vector field of a record, formatted under
    its field name, merged with ``extra``; ``None`` fields are left out."""
    out = {}
    for name in type(data)._fields:
        value = getattr(data, name)
        if isinstance(value, Subspace):
            out[name] = fmt_subspace(field, value)
        elif isinstance(value, Matrix):
            out[name] = fmt_matrix(field, value)
        elif isinstance(value, tuple):
            out[name] = fmt_vector(field, value)
    out.update(extra)
    return out


def parse_scalar(field: Field, x):
    if isinstance(x, str):
        try:
            return field.parse(x)
        except ZeroDivisionError as exc:
            raise ConfigError("scalar", f"{x!r} has a zero denominator") from exc
        except ValueError as exc:
            form = "an integer" if field.char else 'an integer or as "num/den"'
            raise ConfigError("scalar", f"{x!r} is not a scalar of {field!r}: write it as {form}") from exc
    if isinstance(x, int) and not isinstance(x, bool):
        return field.from_int(x)
    raise ConfigError("scalar", f"expected string or integer, got {x!r}")


def parse_vector(field: Field, xs) -> tuple:
    return tuple(parse_scalar(field, x) for x in _config_list(xs, "vector"))


def parse_matrix(field: Field, rows) -> Matrix:
    return Matrix(field, [parse_vector(field, r) for r in _config_list(rows, "matrix")])


# ---------------------------------------------------------------------------
# config handling


class Instance(Record):
    """A built algebra instance: its name, its algebra (a TriangularAlgebra
    for the triangular families) and, for a fixture, the fixture itself."""

    name: str
    algebra: FDAlgebra
    fixture: Fixture | None = None


def build_instance(field: Field, spec) -> Instance:
    if not isinstance(spec, dict):
        raise ConfigError("algebra", "algebra spec must be an object")
    family = spec.get("family")
    named = {"family": family, "name": spec.get("name")} if family == "fixture" else {"family": family}
    for key, value in named.items():
        if value is not None and not isinstance(value, str):
            raise ConfigError("algebra", f"{key} must be a string, got {value!r}")
    try:
        allowed = FAMILY_KEYS.get(tuple(named.values()) if family == "fixture" else family)
        if allowed is not None:
            _reject_unknown_keys(spec, allowed, "algebra")
        if family == "Tn":
            n = _config_int(spec["n"], "n")
            split = _config_int(spec.get("split", 1), "split")
            return Instance(f"T{n}(split={split})", upper_triangular(n, field, split))
        if family == "block":
            dims = tuple(_config_int(d, "dims") for d in _config_list(spec["dims"], "dims"))
            split = _config_int(spec.get("split", 1), "split")
            return Instance(f"block{dims}(split={split})", block_upper(dims, split, field))
        if family == "trian_trunc":
            N = _config_int(spec["N"], "N")
            return Instance(f"trian_trunc({N})", trian_trunc(N, field))
        if family == "trunc_poly":
            N = _config_int(spec["N"], "N")
            return Instance(f"trunc_poly({N})", trunc_poly(N, field))
        if family == "matrix":
            n = _config_int(spec["n"], "n")
            return Instance(f"M{n}", full_matrix_algebra(n, field))
        if family == "fixture":
            name = spec.get("name")
            if name == "n3":
                fx = fixture_n3(field)
            elif name == "trian_AA0":
                fx = fixture_trian_AA0(_config_int(spec.get("N", 4), "N"), field)
            else:
                raise ConfigError("algebra", f"unknown fixture {name!r}")
            return Instance(fx.name, fx.algebra, fixture=fx)
        if family is None and "table" in spec:
            rows = _config_list(spec["table"], "table")
            labels = _config_list(spec.get("labels", []), "labels") or [f"e{i}" for i in range(len(rows))]
            table = [[parse_vector(field, v) for v in _config_list(row, "table")] for row in rows]
            unit = parse_vector(field, spec["unit"]) if spec.get("unit") is not None else None
            return Instance("inline", FDAlgebra(field, labels, table, unit))
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError("algebra", f"missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ConfigError("algebra", f"bad algebra spec: {exc}") from exc
    except (TrialgError, ValueError) as exc:
        raise ConfigError("algebra", str(exc)) from exc
    raise ConfigError("algebra", f"unknown algebra family {family!r}")


def build_sigma(instance: Instance, spec) -> LinearEndo:
    alg = instance.algebra
    field = alg.field
    if spec in (None, "identity"):
        return LinearEndo.identity(alg)
    if not isinstance(spec, dict):
        raise ConfigError("sigma", f"bad sigma spec {spec!r}")
    _reject_unknown_keys(spec, SIGMA_FORMS, "sigma")
    if len(spec) != 1:
        raise ConfigError("sigma", f"must name exactly one of {sorted(SIGMA_FORMS)}")
    try:
        if "fixture_map" in spec or "matrix" in spec:
            if "matrix" in spec:
                what, twist = "matrix", parse_matrix(field, spec["matrix"])
            else:
                if instance.fixture is None:
                    raise ConfigError("sigma", "fixture_map needs a fixture instance")
                name = spec["fixture_map"]
                if not isinstance(name, str):
                    raise ConfigError("sigma", f"fixture_map must be a string, got {name!r}")
                if name not in instance.fixture.maps:
                    raise ConfigError("sigma", f"fixture has no map {name!r}")
                what, twist = f"fixture map {name!r}", instance.fixture.maps[name]
            try:
                return resolve_twist(alg, twist)
            except NotAutomorphism as exc:
                raise ConfigError("sigma", f"{what} is not an automorphism: {exc.witness}") from exc
        if "diag_signs" in spec:
            require_hypotheses(alg, "diag_signs")
            signs = _config_list(spec["diag_signs"], "diag_signs")
            if len(signs) != 2:
                raise ConfigError("sigma", "diag_signs must give one sign per diagonal corner")
            sa, sb = (parse_scalar(field, s) for s in signs)
            if not sa or not sb:
                raise ConfigError("sigma", "diagonal signs must be invertible")
            u = vec_add(field, vec_scale(field, sa, alg.p), vec_scale(field, sb, alg.q))
            return inner_automorphism(alg, u)
        if "conjugate_by" in spec:
            u = parse_vector(field, spec["conjugate_by"])
            return inner_automorphism(alg, u)
        # the one form left: parts
        require_hypotheses(alg, "parts")
        p = spec["parts"]
        if not isinstance(p, dict):
            raise ConfigError("sigma", f"parts must be an object, got {p!r}")
        _reject_unknown_keys(p, PARTS_KEYS, "sigma.parts")
        parts = structure.AutParts(
            alg,
            parse_matrix(field, p["f"]),
            parse_matrix(field, p["g"]),
            parse_vector(field, p["m_sigma"]),
            parse_matrix(field, p["nu"]),
        )
        return structure.compose_automorphism(alg, parts)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError("sigma", f"missing key {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ConfigError("sigma", f"bad sigma spec: {exc}") from exc
    except (TrialgError, ValueError) as exc:
        raise ConfigError("sigma", str(exc)) from exc


# ---------------------------------------------------------------------------
# task execution


def _run_center(instance: Instance) -> dict:
    alg = instance.algebra
    if not isinstance(alg, TriangularAlgebra):
        return {"center": fmt_subspace(alg.field, center_subspace(alg))}
    return _record(alg.field, center(alg))


def _run_sigma_center(instance: Instance, sigma: LinearEndo) -> dict:
    alg = instance.algebra
    if not isinstance(alg, TriangularAlgebra):
        space = sigma_center_subspace(alg, resolve_twist(alg, sigma).matrix)
        return {"sigma_center": fmt_subspace(alg.field, space)}
    return _record(alg.field, structure.sigma_center(alg, sigma))


def _run_solve(instance: Instance, sigma: LinearEndo, kind: str) -> dict:
    field = instance.algebra.field
    space = solve_space(instance.algebra, sigma, kind)
    out = {"kind": kind, "dim": space.dim}
    if space.pair:
        out["basis"] = [
            {"D": fmt_matrix(field, D.matrix), "d": fmt_matrix(field, d.matrix)}
            for D, d in space.endo_pairs()
        ]
    else:
        out["basis"] = [fmt_matrix(field, e.matrix) for e in space.endos()]
    return out


def _run_decompose(instance: Instance, sigma: LinearEndo, kind: str) -> dict:
    # each decomposition and verifier gates its own hypotheses, a triangular algebra included
    t = instance.algebra
    field = t.field
    if kind == "automorphism":
        return _record(field, structure.decompose_automorphism(t, sigma), kind=kind, round_trip=True)
    members = []
    for parts in structure.decompose_space(t, sigma, kind):
        if kind in ("centralizing", "commuting"):
            extra = {
                "conditions": {label: bool(res) for label, res in parts.conditions.items()},
                "commuting_criterion": structure.commuting_criterion(parts),
            }
        elif kind == "generalized_pair":
            extra = {
                "m_d": fmt_vector(field, parts.m_d),
                "xi": fmt_matrix(field, parts.xi),
                "display_form_matches": parts.display_matches,
            }
        else:
            extra = {}
        members.append(_record(field, parts, round_trip=True, **extra))
    return {"kind": kind, "dim": len(members), "members": members}


def _run_verify(instance: Instance, sigma: LinearEndo, name: str, seed: int, samples: int) -> dict:
    t = instance.algebra
    if name == "posner":
        report = theorems.verify_posner(t, sigma)
    elif name == "mayne":
        report = theorems.verify_mayne(t, samples=samples, seed=seed)
    elif name == "skew_zero":
        report = theorems.verify_skew_zero(t, sigma)
    elif name == "sharma_dhara":
        report = theorems.verify_sharma_dhara(t)
    elif name == "gd_left_mult":
        report = theorems.verify_gd_left_mult(t)
    else:
        report = theorems.verify_description(t, sigma)
    out = {
        "theorem": report.theorem,
        "instance": instance.name,
        "passed": report.passed,
        "dimensions": report.dimensions,
        "details": report.details,
    }
    if report.witness is not None:
        out["witness"] = fmt_matrix(t.field, report.witness)
    return out


def run_config(config: dict) -> tuple[dict, int]:
    """Execute a parsed config; returns (report, exit_code)."""
    if not isinstance(config, dict):
        raise ConfigError("config", "top level must be an object")
    _reject_unknown_keys(config, CONFIG_KEYS, "config")
    version = _config_int(config.get("schema_version", SCHEMA_VERSION), "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported schema version {version!r}")
    field = _field_from_config(config)
    instance = build_instance(field, config.get("algebra"))
    sigma = build_sigma(instance, config.get("sigma"))
    tasks = config.get("tasks")
    if not isinstance(tasks, list) or not all(isinstance(x, str) for x in tasks):
        raise ConfigError("tasks", "tasks must be a list of strings")
    seed = _config_int(config.get("seed", 0), "seed")
    samples = _config_int(config.get("samples", 50), "samples", minimum=1)
    _validate_tasks(tasks)
    t = instance.algebra
    decided = None
    if isinstance(t, TriangularAlgebra):
        decided = trivial_idempotents(t.A) is not None and trivial_idempotents(t.B) is not None

    records = []
    verify_failures = 0
    for task in tasks:
        record = {"task": task}
        try:
            if task == "center":
                record.update(_run_center(instance))
                record["status"] = "ok"
            elif task == "sigma_center":
                record.update(_run_sigma_center(instance, sigma))
                record["status"] = "ok"
            elif task.startswith("solve:"):
                record.update(_run_solve(instance, sigma, task.split(":", 1)[1]))
                record["status"] = "ok"
            elif task.startswith("decompose:"):
                record.update(_run_decompose(instance, sigma, task.split(":", 1)[1]))
                record["status"] = "ok"
            elif task.startswith("verify:"):
                result = _run_verify(instance, sigma, task.split(":", 1)[1], seed, samples)
                record.update(result)
                record["status"] = "pass" if result["passed"] else "fail"
                if not result["passed"]:
                    verify_failures += 1
        except (TrialgError, ValueError) as exc:
            record["status"] = "error"
            record["error"] = f"{type(exc).__name__}: {exc}"
            if task.startswith("verify:"):
                verify_failures += 1
        records.append(record)

    report = {
        "schema_version": SCHEMA_VERSION,
        "field": field_to_spec(field),
        "instance": instance.name,
        "seed": seed,
        "idempotent_flags_certified": decided,
        "tasks": records,
    }
    return report, (1 if verify_failures else 0)


def _field_from_config(config: dict) -> Field:
    spec = config.get("field", "rational")
    if isinstance(spec, dict) and "prime" in spec:
        _config_int(spec["prime"], "field")
    try:
        return field_from_spec(spec)
    except ValueError as exc:
        raise ConfigError("field", str(exc)) from exc


def _config_int(value, where: str, minimum: int | None = None) -> int:
    """An integer config value; booleans, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(where, f"must be at least {minimum}, got {value}")
    return value


def _config_list(value, where: str) -> list:
    """A list config value; a string, read one character at a time, is rejected."""
    if not isinstance(value, list):
        raise ConfigError(where, f"expected a list, got {value!r}")
    return value


def _reject_unknown_keys(table: dict, allowed: frozenset, where: str) -> None:
    unknown = sorted(set(table) - allowed)
    if unknown:
        raise ConfigError(where, f"unknown keys {unknown}")


def _validate_tasks(tasks: list[str]) -> None:
    for task in tasks:
        if task not in TASKS:
            raise ConfigError("tasks", f"unknown task {task!r}")


# ---------------------------------------------------------------------------
# fixtures catalog


def fixtures_catalog() -> list[dict]:
    entries = []
    for fx, params in ((fixture_n3(QQ), {}), (fixture_trian_AA0(4, QQ), {"N": 4})):
        entries.append(
            {
                "name": fx.name,
                "description": fx.description,
                "params": params,
                "dim": fx.algebra.dim,
                "maps": sorted(fx.maps),
                "checks": list(fx.checks),
            }
        )
    return entries


# ---------------------------------------------------------------------------
# report text


def report_to_json(report: dict) -> str:
    """The report's JSON text, lists of scalars on one line, its fragments joined once."""
    return "".join(report_fragments(report))
