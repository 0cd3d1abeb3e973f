"""Child process of the benchmark: one job, from a fresh interpreter.

    python3 perfbench/job.py run [--trace] < config.json
    python3 perfbench/job.py setup < configs.json

``run`` executes one ``trialg.cli.run_config`` config and writes a JSON line
(peak RSS, and with ``--trace`` the layer summary) followed by the report as
``trialg.cli.report_to_json`` serializes it; it exits with the config's exit
code.  ``setup`` only builds and validates the instances and twists of a list
of configs.  Both import ``trialg`` from this checkout's ``src`` directory.
"""

from __future__ import annotations

import json
import os
import resource
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    payload = json.load(sys.stdin)
    from trialg import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"job: imported trialg from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    if argv[:1] == ["setup"]:
        for config in payload:
            instance = cli.build_instance(cli.field_from_spec(config["field"]), config["algebra"])
            cli.build_sigma(instance, config.get("sigma"))
        return 0

    tracer = None
    if "--trace" in argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        report, code = cli.run_config(payload)
    except cli.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = cli.report_to_json(report)
    meta = {
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(meta) + "\n" + text)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
