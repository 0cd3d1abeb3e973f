"""The README's library example and its example config run as written, so
the README cannot cite API or config keys that no longer exist."""

import json
import os
import re

from trialg.cli import run_config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _blocks(language: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.S)


def test_python_example_runs():
    (example,) = _blocks("python")
    exec(compile(example, "README.md", "exec"), {})


def test_config_example_runs_clean():
    (config,) = _blocks("json")
    report, code = run_config(json.loads(config))
    assert code == 0
    assert [record["status"] for record in report["tasks"]] == ["ok"] * 4 + ["pass"] * 3
