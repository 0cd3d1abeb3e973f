"""Configuration-driven command line front end.

``trialg`` and ``python -m trialg`` parse their arguments here, in the only
module that loads ``argparse``, and run the config with ``cli.run_config``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cli import SCHEMA_VERSION, fixtures_catalog, run_config
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
    p_solve.add_argument("--family", required=True, choices=["Tn", "block", "trian_trunc", "matrix"])
    p_solve.add_argument("--n", type=int, help="size for Tn / matrix")
    p_solve.add_argument("--N", type=int, help="truncation order for trian_trunc")
    p_solve.add_argument("--dims", help="comma-separated block sizes for block")
    p_solve.add_argument("--split", type=int, default=1)
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
            config = _solve_args_to_config(args)
        report, code = run_config(config)
        _emit(report_fragments(report), args.out)
        return code
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def _solve_args_to_config(args) -> dict:
    if args.family == "Tn":
        if args.n is None:
            raise ConfigError("solve", "--n is required for Tn")
        algebra = {"family": "Tn", "n": args.n, "split": args.split}
    elif args.family == "matrix":
        if args.n is None:
            raise ConfigError("solve", "--n is required for matrix")
        algebra = {"family": "matrix", "n": args.n}
    elif args.family == "trian_trunc":
        if args.N is None:
            raise ConfigError("solve", "--N is required for trian_trunc")
        algebra = {"family": "trian_trunc", "N": args.N}
    else:
        if not args.dims:
            raise ConfigError("solve", "--dims is required for block")
        try:
            dims = [int(d) for d in args.dims.split(",")]
        except ValueError as exc:
            raise ConfigError("solve", f"--dims must be comma-separated integers, got {args.dims!r}") from exc
        algebra = {"family": "block", "dims": dims, "split": args.split}
    field = {"prime": args.prime} if args.prime else "rational"
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
