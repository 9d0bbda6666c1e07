"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    """The first ``python`` code block of the README's Library section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert match, "no python block in the Library section"
    return match.group(1)


def test_readme_library_example_prints_its_stated_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), str(README), "exec"), {})
    pure, noisy, measure, threshold = map(float, out.getvalue().split())
    assert pure == 0.7071067811865477
    assert noisy < 0
    assert measure == 0.9428090415820637
    assert threshold == pytest.approx(9 / 17, abs=1e-12)
