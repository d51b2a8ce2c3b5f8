"""The names the benchmark in perfbench/ reads from the package still exist.

perfbench/tracing.py wraps functions by module and attribute name and
its counters read call arguments by parameter name; workloads.py reads
the concept-axis fold count and runs its stages through the command
line. A rename in src/ would break the benchmark without failing any
other test, so this test installs the tracer on this checkout's package
in a fresh interpreter (installing it rebinds module attributes), checks
each of those names and parses every stage's arguments with the CLI's
parser (``gamma --seed`` stays only because a stage passes it). It reads
perfbench/ and changes none of it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHECK = """
import dataclasses, inspect, sys
import gazelab.cli  # imports every module the tracer wraps
import tracing
import workloads
from gazelab import agreement, core, fusion, models
from gazelab.cbm import CavCvConfig

counted = {
    core.load_embeddings: {"data"},
    fusion.project: {"spans", "clips"},
    agreement.expected_disorder: {"cfg"},
    models.train_svm: {"X"},
}
for fn, params in counted.items():
    missing = params - set(inspect.signature(fn).parameters)
    assert not missing, f"{fn.__qualname__} lacks {missing}"
assert "epoch_losses" in {f.name for f in dataclasses.fields(models.MlpTrainResult)}
assert CavCvConfig().k == 10

stages = [stage for _, stages_of, *_ in workloads.WORKLOADS.values() for stage in stages_of(1)]
for name, argv in stages:
    try:
        gazelab.cli.build_parser().parse_args(argv)
    except SystemExit:
        raise AssertionError(f"stage {name}: the CLI rejects {argv}") from None

tracing.install(tracing.Tracer())
for module, attr, _ in tracing.TARGETS:
    owner = sys.modules[f"gazelab.{module}"]
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert hasattr(owner, "__wrapped__"), f"{module}.{attr} was not wrapped"
print(len(tracing.TARGETS), len(stages))
"""


def test_tracer_installs_on_this_checkout():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    targets, stages = map(int, proc.stdout.split())
    assert targets > 0 and stages > 0
