"""The README's library example and CLI examples run as printed."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from gmebound.cli import main
from gmebound.reproduce import singlet_pairset

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


def _cli_lines() -> list[str]:
    """The ``gmebound ...`` lines of the code block in the README's CLI section."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    match = re.search(r"^```\n(.*?)^```$", section, flags=re.S | re.M)
    assert match, "no code block in the CLI section"
    return [line for line in match.group(1).splitlines() if line.startswith("gmebound ")]


def test_readme_cli_examples_run(tmp_path, capsys):
    """Each example exits 0, except the battery, which exits 1 on criterion 2;
    ``r.json`` stands for the singlet selection."""
    selection = tmp_path / "r.json"
    selection.write_text(json.dumps(singlet_pairset().as_strings()))
    lines = _cli_lines()
    assert len(lines) == 10
    for i, line in enumerate(lines):
        argv = [str(selection) if a == "r.json" else a for a in shlex.split(line)[1:]]
        output = tmp_path / f"out{i}"
        want = 1 if argv[0] == "reproduce-paper" else 0
        assert main(argv + ["--output", str(output)]) == want, line
        assert output.read_text(), line
        assert capsys.readouterr() == ("", ""), line
