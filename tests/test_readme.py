"""The README's command-line examples parse, and its Python examples run."""

import argparse
import importlib
import re
import shlex
from pathlib import Path

import pytest

import segfuse
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


def test_readme_names_resolve():
    """Every backticked `name(...)` and `module.name` in the README's prose
    names an attribute of segfuse or of that segfuse module."""
    # by name: the package's `unify` attribute is the function, not the
    # module, and walking the package would run __main__
    modules = {name: importlib.import_module(f"segfuse.{name}")
               for name in ("cli", "core", "distill", "experiments", "fileio", "fusion",
                            "metrics", "policy", "propositions", "synth", "unify", "util")}
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    calls = [m[1] for s in spans if (m := re.match(r"([A-Za-z_]\w*)\(", s))]
    qualified = [s.split(".") for s in spans
                 if re.fullmatch(r"\w+\.\w+", s) and s.split(".")[0] in modules]
    assert calls and qualified
    owners = [segfuse, *modules.values()]
    assert [c for c in calls if not any(hasattr(m, c) for m in owners)] == []
    assert [f"{m}.{n}" for m, n in qualified if not hasattr(modules[m], n)] == []
