"""gazelab benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload timelines|concepts|evaluate \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; gazelab is taken from its ``src/``.
The load is a closed loop: one workload run at a time, each in a fresh
interpreter (``worker.py run``), repeated while another run is expected
to end less than half a run past ``--seconds`` (at least once, twice
when traced). Set-up, timed as a whole process (interpreter start,
``import gazelab``, writing the seeded inputs), is repeated ``SETUPS``
times.

Times are calibrated: a reference loop of the same kind of work is
timed right before and after each run and each set-up (see
``reference.py``), and the mean wall time is scaled by the loop's
nominal time over its mean time, so that the shared machine's drifting
speed cancels out. The record keeps the raw times.

With ``--trace 0`` the last stdout line reports every end-to-end metric
of ``BENCHMARK.json``: calibrated mean wall time of a run, clips per
calibrated second, calibrated mean set-up time, the median peak resident
memory, the share of stage invocations that passed, and the workload's
output quality. With
``--trace 1`` runs alternate untraced and traced, and the line reports
every per-layer metric instead: medians over the traced runs, plus the
tracing overhead and how much of the wall time the ``cli`` spans cover,
both from raw times.
The line before it is a JSON record of the environment, the workload
descriptor, every run, and the sha256 of every output file per stage.

A stage invocation fails when it exits non-zero, when an output check
fails, or when an output digest differs from the first run's.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Peak memory and timings are per process, so BLAS gets a fixed thread
#: count, here and in every worker, set before numpy is first imported.
BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)

import numpy  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SETUPS = 10
#: Every run must end within 180 s; stop starting worker processes well before.
BUDGET_S = 165.0
#: Share of a traced run's wall time the top-level cli spans must cover.
MIN_COVERAGE = 0.99


def spawn(argv: list[str], timeout: float) -> tuple[float, dict | None, str]:
    """Run one worker; returns (elapsed seconds, its JSON record or None, error)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, f"worker timed out after {timeout:.0f} s"
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return elapsed, None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return elapsed, json.loads(lines[-1]), ""


def tally(reps: list[dict], stage_names: list[str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all stage invocations of all runs.

    A run whose worker died counts every stage as failed. A stage fails
    on a non-zero exit, a failed output check, or output digests that
    differ from those of the first run that produced them.
    """
    attempted = failed = 0
    problems: list[str] = []
    reference: dict[str, dict] = {}
    for i, rep in enumerate(reps):
        attempted += len(stage_names)
        if rep.get("error"):
            failed += len(stage_names)
            problems.append(f"run {i}: {rep['error']}")
            continue
        for stage in rep["stages"]:
            issues = list(stage["problems"])
            ref = reference.setdefault(stage["name"], stage["digests"])
            if stage["digests"] != ref:
                issues.append("output digests differ from the first run")
            if issues:
                failed += 1
                problems += [f"run {i} {stage['name']}: {p}" for p in issues]
    return attempted, failed, problems


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, t_begin: float):
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        left = BUDGET_S - (time.perf_counter() - t_begin)
        _, record, error = spawn(
            ["run", workload, str(seed), str(workdir), "1" if traced else "0"], left
        )
        reps.append({"traced": traced, **(record or {"error": error})})
        elapsed = time.perf_counter() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= (2 if trace else 1) and elapsed + per_rep / 2 > seconds:
            return reps
        if time.perf_counter() - t_begin + per_rep > BUDGET_S:
            return reps


def setup(workload: str, seed: int, workdir: Path, t_begin: float):
    """Set-up and reference times, the descriptor, and whether every set-up agreed.

    A set-up is mostly interpreter start and imports, so its reference
    is the interpreter loop, timed in this process before and after it.
    """
    times, refs, descriptors = [], [], []
    loop = reference.interpreter
    loop()  # the first call in a process runs slow; leave it untimed
    for k in range(SETUPS):
        target = workdir if k == 0 else workdir.with_name(f"{workdir.name}-setup{k}")
        left = BUDGET_S - (time.perf_counter() - t_begin)
        ref_before = reference.seconds(loop)
        elapsed, descriptor, error = spawn(["setup", workload, str(seed), str(target)], left)
        if descriptor is None:
            sys.exit(f"error: set-up failed: {error}")
        refs += ref_before + reference.seconds(loop)
        if k:
            shutil.rmtree(target, ignore_errors=True)
        times.append(elapsed)
        descriptors.append(descriptor)
    same = all(d == descriptors[0] for d in descriptors)
    return times, refs, descriptors[0], same


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def calibrated(times: list[float], refs: list[float], loop) -> float:
    """Mean time scaled by the reference loop's nominal over its mean time."""
    return reference.NOMINAL_S[loop] * statistics.fmean(times) / statistics.fmean(refs)


def layer_values(traced: list[dict], plain_wall: float | None, problems: list[str]) -> dict:
    """Per-layer medians over traced runs, tracing overhead and cli coverage."""
    values = {
        name: statistics.median(r["layer"].get(name, 0.0) for r in traced)
        for name in {name for r in traced for name in r["layer"]}
    }
    pairs = values.get("fusion.project.candidate_pairs", 0)
    values["fusion.project.useful_ratio"] = (
        values.get("fusion.project.overlap_pairs", 0) / pairs if pairs else 0.0
    )
    coverage = [
        sum(v for k, v in r["layer"].items() if k.startswith("cli.") and k.endswith(".s"))
        / r["wall_s"]
        for r in traced
    ]
    values["trace.cli_coverage"] = statistics.median(coverage)
    if min(coverage) < MIN_COVERAGE:
        problems.append(f"cli spans cover only {min(coverage):.3f} of a traced run")
    if plain_wall is not None:
        values["trace.overhead_s"] = median_of(traced, "wall_s") - plain_wall
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stage_names = [name for name, _ in workloads.WORKLOADS[args.workload][1](args.seed)]

    t_begin = time.perf_counter()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times, setup_refs, descriptor, setups_agree = setup(
            args.workload, args.seed, workdir, t_begin
        )
        reps = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir, t_begin)
    finally:
        for path in [workdir, *WORK.glob(f"{workdir.name}-setup*")]:
            shutil.rmtree(path, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted, failed, problems = tally(reps, stage_names)
    if not setups_agree:
        problems.append("set-ups of the same seed wrote different inputs")
    good = [r for r in reps if not r.get("error")]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    quality = good[0]["quality"] if good else {"quality": 0.0}

    values: dict[str, float] = {
        "setup_s": calibrated(setup_times, setup_refs, reference.interpreter),
        "ok_frac": 1.0 - failed / attempted,
        **quality,
    }
    if plain:
        loop = workloads.WORKLOADS[args.workload][3]
        values["wall_s"] = calibrated(
            [r["wall_s"] for r in plain], [t for r in plain for t in r["ref_s"]], loop
        )
        values["clips_per_s"] = descriptor["clips"] / values["wall_s"]
        values["peak_rss_mb"] = median_of(plain, "peak_rss_mb")
    if traced:
        raw_wall = median_of(plain, "wall_s") if plain else None
        values.update(layer_values(traced, raw_wall, problems))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": BLAS_THREADS,
            "machine": platform.machine(),
        },
        "descriptor": descriptor,
        "setup_s": setup_times,
        "setup_ref_s": setup_refs,
        "runs": [
            {k: r[k] for k in ("traced", "wall_s", "ref_s", "peak_rss_mb", "error") if k in r}
            for r in reps
        ],
        "failed_frac": failed / attempted,
        "quality": quality,
        "digests": {s["name"]: s["digests"] for s in good[0]["stages"]} if good else {},
        "problems": problems,
    }
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
