"""Time MLP fits in the shapes of balanced draws, one JSON line per shape.

    python3 bench/mlp_kernel.py [--src DIR] [--repeats N]

Imports gazelab from ``DIR`` (default: this checkout's ``src/``). Per
shape it builds a seeded draw (half positives shifted by 0.05 on every
axis) and 80 validation rows, and prints the median seconds of N
``train_mlp`` fits (100 epochs, batch 32, the default learning rate),
the seconds per epoch, and the sha256 of the returned model's parameters
(w1, b1, w2, b2 as float64 bytes). The shapes are 304 x 512 (the
``eval --model mlp`` draw of the benchmark's evaluate workload), 582 x 512
(a paper-scale draw) and 1,200 x 64. The first two have fewer rows than
twice their dimension, so ``train_mlp`` trains their first layer as row
coefficients and their digests move in the last bits with that form; the
1,200 x 64 draw trains the weights themselves, and its digest must not
depend on the checkout. BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from pathlib import Path

from timing import times_s

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

SHAPES = ((304, 512), (582, 512), (1200, 64))
VAL_ROWS, EPOCHS, BATCH = 80, 100, 32


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
            "batch": BATCH,
            "repeats": args.repeats,
            "fit_s": fit_s,
            "fit_s_min": min(times),
            "fit_s_max": max(times),
            "epoch_ms": 1e3 * fit_s / EPOCHS,
            "model_sha256": digest.hexdigest(),
        }
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
