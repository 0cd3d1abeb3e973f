"""The README's library example, its example config and its ``trialg
solve`` line run as written, so the README cannot cite API, config keys or
flags that no longer exist."""

import json
import os
import re

import pytest

from trialg.__main__ import main
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


@pytest.mark.parametrize("optional", [False, True], ids=["plain", "with-options"])
def test_solve_line_runs(capsys, optional):
    """The CLI section's ``trialg solve`` line, with and without its
    bracketed options."""
    (line,) = [line for block in _blocks("sh") for line in block.splitlines() if line.startswith("trialg solve ")]
    required, _, options = line.removeprefix("trialg ").partition(" [")
    argv = required.split() + (options.rstrip("]").split() if optional else [])
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["field"] == ({"prime": 5} if optional else "rational")
    assert [task["status"] for task in report["tasks"]] == ["ok"]


def test_layout_names_every_module():
    """The Layout section has a ``- `trialg.<name>` `` bullet for every module
    of the package but ``__init__``."""
    with open(README, encoding="utf-8") as fh:
        bullets = set(re.findall(r"^- `trialg\.(\w+)`", fh.read(), flags=re.M))
    package = os.path.join(os.path.dirname(README), "src", "trialg")
    modules = {name[:-3] for name in os.listdir(package) if name.endswith(".py") and name != "__init__.py"}
    assert modules <= bullets
