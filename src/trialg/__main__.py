"""Configuration-driven command line front end.

``trialg`` and ``python -m trialg`` parse their arguments here, in the only
module that loads ``argparse``, and run the config with ``cli.run_config``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cli import FAMILY_KEYS, SCHEMA_VERSION, fixtures_catalog, run_config
from .errors import ConfigError
from .maps import SOLVE_KINDS
from .report import report_fragments


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="trialg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run tasks from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", help="write the JSON report here instead of stdout")
    p_run.add_argument("--seed", type=int, help="override the config seed")

    sub.add_parser("fixtures", help="list the built-in fixtures")

    p_solve = sub.add_parser("solve", help="solve one map space for a family")
    families = [family for family in FAMILY_KEYS if isinstance(family, str)]  # the families named by a string
    p_solve.add_argument("--family", required=True, choices=families)
    keys = sorted(set().union(*(FAMILY_KEYS[family] for family in families)) - {"family"})
    for key in keys:  # one flag per key a family takes
        takers = " / ".join(family for family in families if key in FAMILY_KEYS[family])
        if key == "dims":
            p_solve.add_argument("--dims", help=f"comma-separated dims for {takers}")
        else:
            p_solve.add_argument(f"--{key}", type=int, help=f"{key} for {takers}")
    p_solve.add_argument("--kind", required=True, choices=list(SOLVE_KINDS))
    p_solve.add_argument("--prime", type=int, help="use F_p instead of Q")
    p_solve.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        if args.command == "fixtures":
            _emit(report_fragments({"schema_version": SCHEMA_VERSION, "fixtures": fixtures_catalog()}), None)
            return 0
        if args.command == "run":
            with open(args.config) as fh:
                config = json.load(fh)
            if args.seed is not None and isinstance(config, dict):
                config["seed"] = args.seed
        else:
            config = _solve_args_to_config(args, keys)
        report, code = run_config(config)
        _emit(report_fragments(report), args.out)
        return code
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _solve_args_to_config(args, keys) -> dict:
    """The config of a ``trialg solve``: every key flag given, so that
    ``build_instance`` names the keys its family misses or does not take."""
    algebra = {"family": args.family}
    for key in keys:
        if getattr(args, key) is not None:
            algebra[key] = getattr(args, key)
    if "dims" in algebra:
        try:
            algebra["dims"] = [int(d) for d in args.dims.split(",")]
        except ValueError as exc:
            raise ConfigError("solve", f"--dims must be comma-separated integers, got {args.dims!r}") from exc
    field = {"prime": args.prime} if args.prime is not None else "rational"
    return {"field": field, "algebra": algebra, "sigma": "identity", "tasks": [f"solve:{args.kind}"]}


def _emit(fragments: list[str], out: str | None) -> None:
    """Write the report's fragments in order, never joined into one string."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(fragments)
    else:
        sys.stdout.writelines(fragments)


if __name__ == "__main__":
    sys.exit(main())
