"""Time MLP fits in the shapes of balanced draws, one JSON line per shape.

    python3 bench/mlp_kernel.py [--src DIR] [--repeats N]

Imports gazelab from ``DIR`` (default: this checkout's ``src/``). Per
shape it builds a seeded draw (half positives shifted by 0.05 on every
axis) and 80 validation rows, and prints the median seconds of N
``train_mlp`` fits (100 epochs, batch 32, the default learning rate),
the kept epoch, the milliseconds per epoch, and the sha256 of the
returned model's parameters (w1, b1, w2, b2 as float64 bytes). The shapes are 304 x 512 (the ``eval --model mlp`` draw
of the benchmark's evaluate workload), 582 x 512 (a paper-scale draw)
and 1,200 x 64. The first two have fewer rows than twice their
dimension, so ``train_mlp`` trains their first layer as row
coefficients and their digests move in the last bits with that form;
the 1,200 x 64 draw trains the weights themselves, and its digest must
not depend on the checkout.

Then come the inputs of the evaluate benchmark's seed 1, written by
``perfbench/workloads.generate_evaluate`` into a temporary directory:
1,000 clips at 512 dimensions, 3 EN draws and 1 HN draw. One line per
draw, in-process, gives the rows, kept epoch and median fit seconds of
its ``train_mlp`` call, planned from one ``harness.fold_plan`` through
``harness.plan_task`` as ``eval`` plans it and gathered as
``harness.run_task`` gathers it (so these lines need a ``DIR`` that has
``fold_plan``); these are the fits that ``eval`` runs in forked workers,
where a tracer in the parent cannot see them.
A last line times the whole ``eval --model mlp`` grid (median of N runs
of ``gazelab.cli.main``). It prints the usable CPU count, since the grid fits its draws in one
forked worker per usable CPU, and the sha256 of ``eval_report.json``,
which must not depend on the checkout or the CPU count. BLAS runs on
one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

from timing import median_s, times_s

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

SHAPES = ((304, 512), (582, 512), (1200, 64))
VAL_ROWS, EPOCHS, BATCH = 80, 100, 32
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from gazelab import models

    for rows, dim in SHAPES:
        rng = np.random.default_rng(512)

        def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
            y = np.arange(n) < n // 2
            X = rng.normal(size=(n, dim)).astype(np.float32).astype(np.float64)
            return X + 0.05 * y[:, None], y.astype(np.int64)

        X, y = draw(rows)
        X_val, y_val = draw(VAL_ROWS)
        times, result = times_s(
            lambda: models.train_mlp(X, y, X_val, y_val, epochs=EPOCHS, batch=BATCH, seed=1),
            args.repeats,
        )
        digest = hashlib.sha256()
        for name in ("w1", "b1", "w2", "b2"):
            digest.update(np.ascontiguousarray(getattr(result.model, name), dtype=np.float64).tobytes())
        fit_s = statistics.median(times)
        row = {
            "rows": rows,
            "val_rows": VAL_ROWS,
            "dim": dim,
            "epochs": EPOCHS,
            "kept_epoch": result.kept_epoch,
            "batch": BATCH,
            "repeats": args.repeats,
            "fit_s": fit_s,
            "fit_s_min": min(times),
            "fit_s_max": max(times),
            "epoch_ms": 1e3 * fit_s / EPOCHS,
            "model_sha256": digest.hexdigest(),
        }
        print(json.dumps(row), flush=True)

    sys.path.insert(0, str(PERFBENCH))
    import workloads
    from gazelab import cli

    ((_, argv),) = workloads.stages_evaluate(1)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            shape = workloads.generate_evaluate(Path(root), seed=1)
            draw_lines(argv, args.repeats)
            eval_s, code = median_s(lambda: cli.main(argv), args.repeats)
            if code != 0:
                raise SystemExit(f"eval exited {code}")
            report = Path(argv[argv.index("--out") + 1], "eval_report.json").read_bytes()
        finally:
            os.chdir(cwd)
    row = {
        "clips": shape["clips"],
        "dim": shape["dim"],
        "repeats": args.repeats,
        "eval_s": eval_s,
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1,
        "eval_report_sha256": hashlib.sha256(report).hexdigest(),
    }
    print(json.dumps(row), flush=True)


def draw_lines(argv: list[str], repeats: int) -> None:
    """Fit each MLP draw of ``eval`` ``argv`` in-process, planned as ``eval``
    plans it and gathered as ``run_task`` gathers it; one line per draw."""
    from gazelab import TEST_NEGATIVE_SETS, ModelKind, ObjLevel, TaskConfig, cli, harness, models

    args = cli.build_parser().parse_args(argv)
    emb, labels = cli._load_task_inputs(args)
    folds = harness.fold_plan(labels, cli._resolve_seed(args))
    for neg in (ObjLevel.EN, ObjLevel.HN):
        cfg = TaskConfig(neg, ModelKind.MLP, folds.seed, args.epochs, args.lr, args.batch)
        cell = harness.plan_task(cfg, folds, TEST_NEGATIVE_SETS, emb)
        val = harness._rows(emb, *cell.val_row)
        for index, draw in enumerate(cell.draws):
            X, y = harness._rows(emb, *draw)
            times, result = times_s(
                lambda: models.train_mlp(
                    X, y, *val, epochs=cfg.mlp_epochs, lr=cfg.mlp_lr, batch=cfg.mlp_batch,
                    seed=harness.derive_seed(cfg.seed, 1, index),
                ),
                repeats,
            )
            row = {
                "train_negatives": neg.name,
                "draw": index,
                "rows": len(y),
                "dim": X.shape[1],
                "epochs": cfg.mlp_epochs,
                "kept_epoch": result.kept_epoch,
                "repeats": repeats,
                "fit_s": statistics.median(times),
            }
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
