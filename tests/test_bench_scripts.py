"""The layer-by-layer timing scripts under ``bench/`` run against this checkout.

Each ``bench/*_kernel.py`` imports gazelab from ``src/`` (and some of
them the benchmark's input writers from ``perfbench/``, read-only) and
calls into its modules, the CLI included. One run of each, at one
repeat, keeps those calls in step with the code they time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "bench").glob("*_kernel.py"))


def test_there_are_scripts():
    assert len(SCRIPTS) >= 6


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_prints_only_json_lines(script):
    # No bytecode is written, so perfbench/ is left as it is.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(script), "--src", str(ROOT / "src"), "--repeats", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines
    for line in lines:
        assert isinstance(json.loads(line), dict), line
