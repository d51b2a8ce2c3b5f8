"""Time one MLP fit in the shape of an ``eval --model mlp`` balanced draw.

    python3 bench/mlp_kernel.py [--src DIR] [--repeats N]

Imports gazelab from ``DIR`` (default: this checkout's ``src/``), builds
a seeded draw of 304 training rows (152 positives shifted by 0.05 on
every axis, 152 negatives) and 80 validation rows at 512 dimensions,
and prints one JSON line with the median seconds of N ``train_mlp``
fits (100 epochs, batch 32, the default learning rate), the seconds per
epoch, and the sha256 of the returned model's parameters (w1, b1, w2,
b2 as float64 bytes), which must not depend on the checkout. BLAS runs
on one thread.
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

ROWS, VAL_ROWS, DIM, EPOCHS, BATCH = 304, 80, 512, 100, 32


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from gazelab import models

    rng = np.random.default_rng(512)

    def draw(rows: int) -> tuple[np.ndarray, np.ndarray]:
        y = np.arange(rows) < rows // 2
        X = rng.normal(size=(rows, DIM)).astype(np.float32).astype(np.float64)
        return X + 0.05 * y[:, None], y.astype(np.int64)

    X, y = draw(ROWS)
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
        "rows": ROWS,
        "val_rows": VAL_ROWS,
        "dim": DIM,
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
