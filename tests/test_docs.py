"""The documentation runs: every demo script, and both README quickstarts.

A name removed from the package cannot silently break the docs, nor
linger in ``idcodes.__all__``.  Each
``print`` line of the README's Python quickstart carries its expected
output as a ``#`` comment; a comment ending in ``...`` is matched only up
to the ellipsis.  Each line of the CLI quickstart must exit 0.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import idcodes
from idcodes import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_output():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quickstart \(library\)\n\n```python\n(.*?)```", readme, re.S).group(1)
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(block, "README.md", "exec"), {})
    printed = buf.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if "..." in want:
            assert got.startswith(want.split("...")[0]), (got, want)
        else:
            assert got == want


def test_readme_cli_quickstart_exits_zero(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quickstart \(CLI\)\n\n```\n(.*?)```", readme, re.S).group(1)
    commands = [line.split() for line in block.splitlines()]
    assert commands and all(argv[0] == "idcodes" for argv in commands)
    monkeypatch.chdir(tmp_path)  # the commands write and read files by relative path
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr())


def test_every_exported_name_resolves():
    # a stale entry would break only `from idcodes import *`
    assert [name for name in idcodes.__all__ if not hasattr(idcodes, name)] == []
