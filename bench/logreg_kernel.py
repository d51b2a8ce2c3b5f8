"""Time the logistic-regression kernel on the shapes of its two callers.

    python3 bench/logreg_kernel.py [--src DIR] [--repeats N] [--seed S]

Imports gazelab from ``DIR`` (default: this checkout's ``src/``) and
times ``models.train_logreg`` (median of N runs) on two problems:

- ``pcbm-lr``: the balanced draws of the concepts benchmark's pcbm-lr
  stage at seed S (default 1), 96 rows of 8 concept coordinates at
  l2 1e-3. The stages of ``perfbench/workloads.py`` run through
  ``gazelab.cli.main`` in a temporary directory, and the draws are
  taken from the ``harness.train_logreg`` calls of the ``pcbm --kind
  lr`` stage.
- ``error``: ``gazelab error``'s regression on the test suite's
  ``make_error_fixture(0)``, 240 rows of the 11-column clip descriptor
  at l2 1, the fixture of acceptance criterion 7.

It prints one JSON line per problem with the rows, columns, median
seconds, and the Newton steps of one more fit, counted as calls of
``np.linalg.lstsq`` (null where the checkout's fit makes none, as
gradient descent does). BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from timing import median_s

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "perfbench"), str(ROOT / "tests")]
    import numpy as np
    from gazelab import harness, models
    from synthfix import make_error_fixture

    problems = [("pcbm-lr", X, y, l2) for X, y, l2 in pcbm_lr_draws(harness, args.seed)]
    labels, preds = make_error_fixture(0)
    X = np.stack([harness.clip_descriptor(label) for label in labels])
    success = np.array([int(p == (label.level.name == "S")) for label, p in zip(labels, preds)])
    problems.append(("error", X, success, 1.0))

    for name, X, y, l2 in problems:
        def fit():
            return models.train_logreg(X, y, l2=l2)

        seconds, _ = median_s(fit, args.repeats)
        row = {"problem": name, "rows": X.shape[0], "cols": X.shape[1], "l2": l2, "median_s": seconds}
        print(json.dumps({**row, "newton_steps": newton_steps(np, fit)}), flush=True)


def pcbm_lr_draws(harness, seed: int) -> list:
    """(X, y, l2) of every logistic fit of the concepts benchmark's pcbm-lr stage."""
    import workloads
    from gazelab import cli

    draws = []
    fit = harness.train_logreg

    def captured(X, y, l2):
        draws.append((X, y, l2))
        return fit(X, y, l2=l2)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            workloads.generate_concepts(Path(root), seed=seed)
            stages = dict(workloads.stages_concepts(seed))
            if cli.main(stages["cav"]) != 0:
                raise SystemExit("cav stage failed")
            harness.train_logreg = captured
            if cli.main(stages["pcbm-lr"]) != 0:
                raise SystemExit("pcbm-lr stage failed")
        finally:
            harness.train_logreg = fit
            os.chdir(cwd)
    return draws


def newton_steps(np, solve) -> int | None:
    """Calls of ``np.linalg.lstsq`` in one run of ``solve``; None if there are none."""
    lstsq = np.linalg.lstsq
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return lstsq(*args, **kwargs)

    np.linalg.lstsq = counted
    try:
        solve()
    finally:
        np.linalg.lstsq = lstsq
    return len(calls) or None


if __name__ == "__main__":
    main()
