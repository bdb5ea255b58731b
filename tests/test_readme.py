"""The README's command-line examples parse, and its Python examples run."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from segfuse import fileio
from segfuse.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _segfuse_lines():
    """Arguments of each `segfuse ...` line in the README's bash blocks.

    Backslash continuations are joined and `#` comments dropped; nothing runs.
    """
    lines = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["segfuse"]:
                lines.append(words[1:])
    return lines


_LINES = _segfuse_lines()


def test_readme_shows_every_command():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert {argv[0] for argv in _LINES} == set(commands)


@pytest.mark.parametrize("argv", _LINES, ids=" ".join)
def test_readme_line_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README line does not parse: segfuse {shlex.join(argv)}")


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    """Every ```python block runs, in order, in one namespace; files land in tmp_path."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    # the rho files it writes give the command line the library's policy
    files = sorted(str(p) for p in tmp_path.glob("rho*.json"))
    assert main(["select-policy", "certainty", "--rho", *files, "-o", "policy.json"]) == 0
    got = fileio.policy_from_json((tmp_path / "policy.json").read_text())
    assert got.assignment.tolist() == namespace["policy"].assignment.tolist()
