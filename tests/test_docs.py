"""The documentation's examples run and print what they show.

Every module of the package passes its doctests.  Every ```python block
of README.md runs.  Every `$ gfp ...` line of a ```sh block, run as
`python -m gfpoly ...`, prints the stdout lines shown under it, up to the
next `$ ` line; a `...` line means the lines shown before it are a prefix.
"""

from __future__ import annotations

import doctest
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import gfpoly

SRC = str(Path(gfpoly.__file__).resolve().parents[1])
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_module_doctests():
    failed, attempted = {}, 0
    for module in pkgutil.iter_modules(gfpoly.__path__, "gfpoly."):
        result = doctest.testmod(importlib.import_module(module.name))
        attempted += result.attempted
        if result.failed:
            failed[module.name] = result.failed
    assert attempted and not failed


def test_readme_python_examples_run():
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        exec(block, {})


def test_readme_transcripts_print_what_they_show():
    seen, differs = 0, []
    for block in re.findall(r"```sh\n(.*?)```", README, re.S):
        for command, shown in re.findall(r"^\$ (gfp .*)\n((?:(?!\$ ).*\n)*)", block, re.M):
            shown = shown.splitlines()
            prefix = "..." in shown
            if prefix:
                shown = shown[:shown.index("...")]
            argv = [sys.executable, "-m", "gfpoly", *shlex.split(command)[1:]]
            out = subprocess.run(argv, capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": SRC}).stdout.splitlines()
            seen += 1
            if (out[:len(shown)] if prefix else out) != shown:
                differs.append(command)
    assert seen, "README.md shows no `$ gfp` transcript"
    assert not differs
