"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Runs the fuse stage of the timelines workload in-process and shows
that a clean run passes its output checks, that a stage exiting
non-zero and a corrupted output each count as a failed invocation, and
that outputs whose digest changes between runs of the same seed count
as failed too. Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    gazelab = worker.import_gazelab()
    workdir = run.WORK / f"selftest-{os.getpid()}"
    failures: list[str] = []

    def expect(label: str, attempted_failed: tuple[int, int], reps: list[dict]) -> None:
        got = run.tally(reps, ["fuse"])[:2]
        status = "ok" if got == attempted_failed else "FAILED"
        print(f"{status:6} {label}: attempted/failed {got}, expected {attempted_failed}")
        if got != attempted_failed:
            failures.append(label)

    try:
        workdir.mkdir(parents=True)
        os.chdir(workdir)
        workloads.generate_timelines(Path("."), seed=0)
        fuse = workloads.stages_timelines(0)[0][1]

        clean = worker.stage_record("fuse", worker.run_stage(gazelab.cli.main, fuse))
        expect("clean run", (1, 0), [{"stages": [clean]}])
        expect("same digests twice", (2, 0), [{"stages": [clean]}, {"stages": [clean]}])

        missing = [a.replace("inputs/clips.csv", "inputs/absent.csv") for a in fuse]
        shutil.rmtree("out")
        code = worker.run_stage(gazelab.cli.main, missing)
        expect(f"non-zero exit ({code})", (1, 1), [{"stages": [worker.stage_record("fuse", code)]}])

        worker.run_stage(gazelab.cli.main, fuse)
        merged = Path("out/fuse/merged.jsonl")
        merged.write_text("".join(merged.read_text().splitlines(keepends=True)[:-1]))
        expect("corrupted output", (1, 1), [{"stages": [worker.stage_record("fuse", 0)]}])

        expect("digest differs between runs", (2, 1), [{"stages": [clean]}, {"stages": [{
            **clean, "digests": {**clean["digests"], "merged.jsonl": "0" * 64}}]}])
        expect("worker died", (1, 1), [{"error": "worker exited 1"}])
    finally:
        os.chdir(HERE)
        shutil.rmtree(workdir, ignore_errors=True)
        if run.WORK.is_dir() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
