"""The README's examples run and print what the README states."""

import contextlib
import io
import json
import math
import re
import shlex
from pathlib import Path

from sugeo.cli import dispatch

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_what_its_comments_say():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_library_example(), {"__name__": "readme_example"})
    norm_line, residual_line, cvp_line = out.getvalue().splitlines()
    assert float(norm_line) == math.sqrt(2)
    assert float(residual_line) < 1e-6
    value, certified = cvp_line.split()
    assert float(value) == math.pi and certified == "True"


def _cvp_min_example() -> list:
    """The worked cvp-min example as (command, output) pairs, one per `$ ` line."""
    section = README.read_text().split("Worked example", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    steps = re.split(r"^\$ ", block, flags=re.M)[1:]
    return [tuple(step.split("\n", 1)) for step in steps]


def test_cvp_min_example_prints_what_the_readme_shows(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    steps = _cvp_min_example()
    for command, output in steps[:-1]:
        assert command.startswith("cat ")
        (tmp_path / command.removeprefix("cat ")).write_text(output)
    command, output = steps[-1]
    assert command.startswith("sugeo cvp-min ")
    assert dispatch(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr().out
    assert printed == output
    assert json.loads(printed)["value"] == 3.14159
