"""Only the command line writes to stderr.

The library reports everything through return values and exceptions, so
``cli`` decides what a run prints. This test parses every module of
``gazelab`` and reports each one other than ``cli.py`` that imports
``sys`` or ``warnings`` or calls ``print``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gazelab"

CHANNELS = {"sys", "warnings"}


def writes_to_stderr(source: str) -> set[str]:
    """The output channels a module reaches: imported ``sys`` or
    ``warnings`` modules, and ``print`` if it calls it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names} & CHANNELS
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found |= {node.module.split(".")[0]} & CHANNELS
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            found |= {node.func.id} & {"print"}
    return found


def test_only_cli_writes_to_stderr():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert len(modules) >= 10
    offenders = {name: writes_to_stderr(src) for name, src in modules.items() if name != "cli.py"}
    assert {name: found for name, found in offenders.items() if found} == {}
    assert writes_to_stderr(modules["cli.py"]) == {"sys", "print"}


def test_each_channel_is_reported():
    assert writes_to_stderr("import warnings\nwarnings.warn('x')\n") == {"warnings"}
    assert writes_to_stderr("from sys import stderr\n") == {"sys"}
    assert writes_to_stderr("import os.path, sys as system\n") == {"sys"}
    assert writes_to_stderr("def f():\n    print('x')\n") == {"print"}
    # A relative import of a package module named like one is not the module.
    assert writes_to_stderr("from .warnings import x\nfrom . import sys\n") == set()
