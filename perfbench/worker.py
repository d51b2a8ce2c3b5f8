"""One benchmark process: write a workload's inputs, or run its stages once.

    python3 perfbench/worker.py setup WORKLOAD SEED WORKDIR
    python3 perfbench/worker.py run WORKLOAD SEED WORKDIR TRACE

``setup`` imports gazelab, writes the seeded inputs under WORKDIR and
prints their descriptor. ``run`` runs every stage of the workload in
order through ``gazelab.cli.main`` inside WORKDIR, with tracing when
TRACE is 1, then checks and digests the outputs and prints one JSON
record: wall time, the workload's reference loop timed right before
and after the stages, peak resident memory, per-stage exit codes,
problems and sha256 digests, output quality and, when traced, the
per-layer metrics. gazelab is imported from ``src/`` of the checkout
this file sits in, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_gazelab():
    if not (SRC / "gazelab" / "__init__.py").is_file():
        sys.exit(f"error: no gazelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gazelab
    import gazelab.cli

    if Path(gazelab.__file__).resolve().parent != SRC / "gazelab":
        sys.exit(f"error: imported gazelab from {gazelab.__file__}, not from {SRC}")
    return gazelab


def digests(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def stage_record(name: str, code: int) -> dict:
    """Exit code, output problems and output digests of one finished stage."""
    out = Path("out") / name
    problems = [f"exit code {code}"] if code != 0 else workloads.check_stage(name, out)
    return {"name": name, "code": code, "problems": problems, "digests": digests(out)}


def run_stage(main, argv: list[str]) -> int:
    """Exit code of one CLI invocation; an escaping exception counts as 1."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def run(workload: str, seed: int, trace: bool) -> dict:
    import gazelab.cli

    _, stages, quality, loop = workloads.WORKLOADS[workload]
    shutil.rmtree("out", ignore_errors=True)
    tracer = None
    if trace:
        overlap = Path(workloads.OVERLAP_FILE)
        tracer = tracing.Tracer(json.loads(overlap.read_text()) if overlap.is_file() else {})
        tracing.install(tracer)

    codes = []
    loop()  # the first call in a fresh process runs slow; leave it untimed
    ref_before = reference.seconds(loop)
    t0 = time.perf_counter()
    for name, argv in stages(seed):
        main = gazelab.cli.main
        if tracer is not None:
            main = lambda a, n=name: tracer.call(f"cli.{n}", gazelab.cli.main, (a,), {})  # noqa: E731
        codes.append(run_stage(main, argv))
    wall_s = time.perf_counter() - t0
    ref_s = ref_before + reference.seconds(loop)

    record = {
        "wall_s": wall_s,
        "ref_s": ref_s,
        "stages": [stage_record(name, code) for (name, _), code in zip(stages(seed), codes)],
    }
    ok = all(not s["problems"] for s in record["stages"])
    record["quality"] = quality() if ok else {"quality": 0.0}
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        layer = tracing.layer_metrics(tracer, wall_s)
        layer["cli.out_bytes"] = sum(
            p.stat().st_size for p in Path("out").rglob("*") if p.is_file()
        )
        record["layer"] = layer
    return record


def main(argv: list[str]) -> int:
    mode, workload, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    import_gazelab()
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    if mode == "setup":
        generate = workloads.WORKLOADS[workload][0]
        descriptor = {"seed": seed, **generate(Path("."), seed)}
        descriptor["input_digests"] = digests(Path("inputs"))
        print(json.dumps(descriptor, sort_keys=True))
    else:
        print(json.dumps(run(workload, seed, argv[4] == "1"), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
