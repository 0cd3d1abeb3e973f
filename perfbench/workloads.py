"""Workload generators and the per-job correctness gate.

Each workload is a list of ``trialg.cli.run_config`` configs.  The seed only
chooses the inputs: the conjugating elements of the inner twists σ (drawn
until invertible, validated by the library itself) and the ``verify:mayne``
seed.  Every task satisfies the hypotheses it needs, so any error status is a
real failure.

The gate compares every dimension a report states with its closed form.
"""

from __future__ import annotations

import random

GF_P = {"prime": 10007}

VERIFY_MIX_N = 4
VERIFY_MIX_TASKS = [
    "center",
    "sigma_center",
    "solve:sigma_derivation",
    "solve:generalized_pair",
    "decompose:automorphism",
    "decompose:sigma_derivation",
    "decompose:centralizing",
    "decompose:generalized_pair",
    "decompose:left_multiplier",
    "verify:posner",
    "verify:mayne",
    "verify:skew_zero",
    "verify:sharma_dhara",
    "verify:gd_left_mult",
]
MAYNE_SAMPLES = 50

# Layers whose spans must record calls on a workload (the tracer binding check).
COMMON_LAYERS = ("families.build", "maps.solve", "linalg.rref", "cli.serialize", "cli.run")
REQUIRED_LAYERS = {
    "solve-gfp": COMMON_LAYERS,
    "solve-q": COMMON_LAYERS,
    "verify-mix": COMMON_LAYERS
    + ("algebra.center", "maps.check", "structure.decompose", "theorems.verify"),
}


def _solve(field, algebra, kind, sigma="identity"):
    return {"field": field, "algebra": algebra, "sigma": sigma, "tasks": [f"solve:{kind}"]}


def inner_twist(rng: random.Random, field_spec, algebra_spec, draw) -> dict:
    """Sigma spec for conjugation by a random element, redrawn until invertible."""
    from trialg.cli import build_instance, build_sigma
    from trialg.errors import ConfigError
    from trialg.fields import field_from_spec

    instance = build_instance(field_from_spec(field_spec), algebra_spec)
    while True:
        spec = {"conjugate_by": [draw(rng) for _ in range(instance.algebra.dim)]}
        try:
            build_sigma(instance, spec)
        except ConfigError:
            continue
        return spec


def solve_gfp(rng: random.Random) -> list[dict]:
    """Large untwisted solves over GF(10007); the inputs do not depend on the seed."""
    return [
        _solve(GF_P, {"family": "Tn", "n": 7}, "derivation"),
        _solve(GF_P, {"family": "Tn", "n": 6}, "generalized_pair"),
        _solve(GF_P, {"family": "Tn", "n": 6}, "commuting"),
        _solve(GF_P, {"family": "block", "dims": [2, 2, 2]}, "derivation"),
    ]


def solve_q(rng: random.Random) -> list[dict]:
    """The same solve path over Q; one solve runs under a seeded inner twist."""
    t5 = {"family": "Tn", "n": 5}
    twist = inner_twist(rng, "rational", t5, lambda r: r.randint(-2, 2))
    return [
        _solve("rational", t5, "derivation"),
        _solve("rational", t5, "sigma_derivation", twist),
        _solve("rational", {"family": "Tn", "n": 4}, "generalized_pair"),
        _solve("rational", t5, "commuting"),
    ]


def verify_mix_job(rng: random.Random, N: int) -> dict:
    algebra = {"family": "trian_trunc", "N": N}
    twist = inner_twist(rng, GF_P, algebra, lambda r: r.randrange(GF_P["prime"]))
    return {
        "field": GF_P,
        "algebra": algebra,
        "sigma": twist,
        "tasks": list(VERIFY_MIX_TASKS),
        "seed": rng.randrange(2**31),
        "samples": MAYNE_SAMPLES,
    }


def verify_mix(rng: random.Random) -> list[dict]:
    """trian_trunc(4) over GF(10007) under a seeded inner twist, every task kind."""
    return [verify_mix_job(rng, VERIFY_MIX_N)]


WORKLOADS = {"solve-gfp": solve_gfp, "solve-q": solve_q, "verify-mix": verify_mix}


def generate(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def job_name(config: dict) -> str:
    algebra = config["algebra"]
    params = ",".join(f"{k}={v}" for k, v in algebra.items() if k != "family")
    tasks = config["tasks"]
    what = tasks[0] if len(tasks) == 1 else f"{len(tasks)} tasks"
    return f"{algebra['family']}({params}) {what}"


# ---------------------------------------------------------------------------
# closed forms


def _kind_dims(algebra: dict) -> dict[str, int]:
    """Dimension of each solved map space, by kind, for the algebra.

    On T_n and the block algebras every derivation is inner and the center is
    the scalars, so Der has dimension dim − 1; an inner twist preserves the
    σ-derivation and commuting dimensions.  The trian_trunc forms for
    skew-centralizing maps and for the center come from the structure
    theorems (they are N-dimensional, like Z(T)) and were confirmed for
    N = 2..5.
    """
    family = algebra["family"]
    if family == "Tn":
        n = algebra["n"]
        tri = n * (n + 1) // 2
        return {
            "derivation": tri - 1,
            "sigma_derivation": tri - 1,
            "commuting": tri + 1,
            "generalized_pair": 2 * tri - 1,
        }
    if family == "block":
        dims = algebra["dims"]
        dim = sum(dims[i] * dims[j] for i in range(len(dims)) for j in range(i, len(dims)))
        return {"derivation": dim - 1}
    if family == "trian_trunc":
        N = algebra["N"]
        return {
            "derivation": 3 * N - 1,
            "sigma_derivation": 3 * N - 1,
            "generalized_pair": 6 * N - 1,
            "centralizing": 3 * N * N + N,
            "commuting": 3 * N * N + N,
            "left_multiplier": 3 * N,
            "skew_centralizing": N,
            "skew_commuting": 0,
            "center": N,
        }
    raise ValueError(f"no closed forms for family {family!r}")


# verify:<theorem> dimension name -> map kind whose closed form it must equal
_THEOREM_DIMS = {
    "twisted_derivations": "sigma_derivation",
    "twisted_centralizing": "centralizing",
    "skew_commuting": "skew_commuting",
    "skew_centralizing": "skew_centralizing",
    "commuting": "commuting",
    "generalized_pairs": "generalized_pair",
    "left_multipliers": "left_multiplier",
    # centralizing generalized derivations are left multiplications by Z(T)
    "centralizing_restriction": "center",
}
_CENTER_PARTS = {
    "center": ("center", "piA_center", "piB_center"),
    "sigma_center": ("sigma_center", "piA_part", "piB_part"),
}


def _task_expectations(config: dict, task: str, kinds: dict[str, int]) -> dict[str, int]:
    """Map from a dotted path in the task record to its expected value."""
    head, _, arg = task.partition(":")
    if head in _CENTER_PARTS:
        return {f"{part}.dim": kinds["center"] for part in _CENTER_PARTS[head]}
    if head in ("solve", "decompose"):
        return {} if arg == "automorphism" else {"dim": kinds[arg]}
    if arg == "mayne":
        return {"dimensions.samples": config.get("samples", 50)}
    if arg == "posner":
        names = ("twisted_derivations", "twisted_centralizing")
        return {"dimensions.intersection": 0, **{f"dimensions.{k}": kinds[_THEOREM_DIMS[k]] for k in names}}
    names = {
        "skew_zero": ("skew_commuting",),
        "sharma_dhara": ("skew_centralizing", "commuting"),
        "gd_left_mult": ("generalized_pairs", "centralizing_restriction", "left_multipliers"),
    }[arg]
    return {f"dimensions.{k}": kinds[_THEOREM_DIMS[k]] for k in names}


def _lookup(record: dict, path: str):
    value = record
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def check_job(config: dict, exit_code: int, report: dict | None) -> list[str]:
    """Problems found in one job's result, one string per failed task.

    A job passes when it exits 0, every task has status ``ok`` or ``pass``,
    and every dimension equals its closed form.  A nonzero exit or a missing
    report fails every task of the job.
    """
    tasks = config["tasks"]
    if exit_code != 0 or report is None:
        return [f"{task}: job exited with code {exit_code}" for task in tasks]
    records = report.get("tasks", [])
    kinds = _kind_dims(config["algebra"])
    problems = []
    for i, task in enumerate(tasks):
        record = records[i] if i < len(records) else None
        if record is None or record.get("task") != task:
            problems.append(f"{task}: missing from the report")
            continue
        if record.get("status") not in ("ok", "pass"):
            problems.append(f"{task}: status {record.get('status')!r} {record.get('error', '')}".rstrip())
            continue
        wrong = [
            f"{path}={_lookup(record, path)!r} (expected {want})"
            for path, want in _task_expectations(config, task, kinds).items()
            if _lookup(record, path) != want
        ]
        if wrong:
            problems.append(f"{task}: " + ", ".join(wrong))
    return problems
