"""Time the linear-SVM kernel on the shape of one concept's C selection.

    python3 bench/svm_kernel.py [--src DIR] [--repeats N]

Imports gazelab from ``DIR`` (default: this checkout's ``src/``), builds
8 seeded draws of 144 rows (96 positives shifted by 0.3 on every axis,
48 negatives) at 64 and 512 dimensions, and prints one JSON line per
dimension with the seconds of: one ``train_svm`` fit (C=1, median of N
runs), the 40 (draw, C) fits of the default grid one by one (one run),
and the same 40 fits as one ``train_svm_stack`` solve (median of N // 2
runs). For the stack it also prints the steps it took (counted on one
more run, as calls of ``models._project``) and the largest relative
duality gap any of its problems stopped at.
A last line times ``cbm.fit_all_cavs`` (EN-only negatives, median of N
runs) on the inputs of the concepts benchmark's seed 1, written by
``perfbench/workloads.generate_concepts`` into a temporary directory
and read back as ``gazelab cav`` reads them: 180 clips at 64
dimensions, one concept cross-validated and seven too rare to fold. Its
sha256 of the axes' bytes tells whether two checkouts fit the same
axes. BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from timing import median_s

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
DRAWS, ROWS, POSITIVES = 8, 144, 96
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from gazelab import cbm, models

    for dim in (64, 512):
        rng = np.random.default_rng(dim)
        X = rng.normal(size=(DRAWS, ROWS, dim))
        X[:, :POSITIVES] += 0.3
        y = np.zeros((DRAWS, ROWS), dtype=np.int64)
        y[:, :POSITIVES] = 1
        one_fit_s, _ = median_s(lambda: models.train_svm(X[0], y[0], c=1.0), args.repeats)
        fit_by_fit_s, _ = median_s(
            lambda: [[models.train_svm(X[d], y[d], c=c) for c in GRID] for d in range(DRAWS)], 1
        )
        stacked_s, stacked = median_s(
            lambda: models.train_svm_stack(X, y, GRID), max(1, args.repeats // 2)
        )
        row = {
            "dim": dim,
            "draws": DRAWS,
            "rows": ROWS,
            "one_fit_s": one_fit_s,
            "grid_fit_by_fit_s": fit_by_fit_s,
            "grid_stacked_s": stacked_s,
            "steps": stack_steps(models, lambda: models.train_svm_stack(X, y, GRID)),
            "max_gap": max(m.gap for draw in stacked for m in draw),
        }
        print(json.dumps(row), flush=True)

    sys.path.insert(0, str(PERFBENCH))
    import workloads
    from gazelab import cli

    with tempfile.TemporaryDirectory() as root:
        shape = workloads.generate_concepts(Path(root), seed=1)
        inputs = argparse.Namespace(
            embeddings=str(Path(root, workloads.EMB)), labels=str(Path(root, workloads.MERGED))
        )
        emb, labels = cli._load_task_inputs(inputs)
    all_s, cavs = median_s(lambda: cbm.fit_all_cavs(emb, labels, seed=1), args.repeats)
    digest = hashlib.sha256()
    for cav in cavs:
        digest.update(cav.unit_normal.tobytes() + repr((cav.bias, cav.cv_f1)).encode())
    row = {"clips": shape["clips"], "dim": shape["dim"], "fit_all_cavs_s": all_s}
    print(json.dumps({**row, "sha256": digest.hexdigest()}), flush=True)


def stack_steps(models, solve) -> int:
    """Steps of one run of ``solve``: one projection of the unsolved problems each."""
    project = models._project
    calls = []

    def counted(*args):
        calls.append(None)
        return project(*args)

    models._project = counted
    try:
        solve()
    finally:
        models._project = project
    return len(calls)


if __name__ == "__main__":
    main()
