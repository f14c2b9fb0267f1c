"""The README's library quickstart runs and prints the values its comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:e-?\d+)?")


def _quickstart() -> str:
    match = re.search(r"## Library quickstart\s+```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no Library quickstart code block"
    return match.group(1)


def test_quickstart_prints_commented_values():
    code = _quickstart()
    expected = [line.split("#", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert expected and all(NUMBER.search(comment) for comment in expected)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        # every number a print line shows equals the first number of its comment
        want = float(NUMBER.search(comment).group())
        values = [float(v) for v in line.split()]
        assert values and all(abs(v - want) <= 1e-12 for v in values), (line, comment)
