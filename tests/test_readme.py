"""The README's library example runs and prints the values its comments state."""

import contextlib
import io
import math
import re
from pathlib import Path

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
