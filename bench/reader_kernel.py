"""Time the text and binary input readers on a seeded export.

    python3 bench/reader_kernel.py [--src DIR] [--repeats N]

Imports gazelab from ``DIR`` (default: this checkout's ``src/``) and
writes, into a temporary directory, the inputs of the benchmark's seed 1
with ``perfbench/workloads.py``: the timelines export (annotation JSONL
and clip index CSV, ``generate_timelines``) and the evaluate bundle
(binary embeddings and merged-label JSONL, ``generate_evaluate``); the
CSV embeddings are the same table through ``dump_embeddings``. It prints
one JSON line with the median seconds of N runs of each reader, as the
commands call them on the decoded text or bytes: ``parse_annotations``,
``parse_clip_index``, the merged-label reader of ``stats``, ``cav``,
``pcbm`` and ``eval``, and ``load_embeddings`` on each encoding. Its
sha256 over the parsed values tells whether two checkouts read the same
records. BLAS runs on one thread.
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

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(PERFBENCH))
    import workloads
    from gazelab import cli, core

    with tempfile.TemporaryDirectory() as root:
        timelines = workloads.generate_timelines(Path(root, "timelines"), seed=1)
        evaluate = workloads.generate_evaluate(Path(root, "evaluate"), seed=1)
        inputs = Path(root, "timelines", "inputs")
        annotations = (inputs / "annotations.jsonl").read_text(encoding="utf-8")
        clips = (inputs / "clips.csv").read_text(encoding="utf-8")
        labels = Path(root, "evaluate", workloads.MERGED).read_text(encoding="utf-8")
        binary = Path(root, "evaluate", workloads.EMB).read_bytes()
    text = core.dump_embeddings(core.load_embeddings(binary), "csv")

    readers = {
        "parse_annotations": lambda: core.parse_annotations(annotations),
        "parse_clip_index": lambda: core.parse_clip_index(clips),
        "merged_labels": lambda: cli._read_merged_labels(labels),
        "load_embeddings_binary": lambda: core.load_embeddings(binary),
        "load_embeddings_csv": lambda: core.load_embeddings(text),
    }
    row = {"spans": timelines["spans"], "clips": timelines["clips"], "labels": evaluate["clips"]}
    digest = hashlib.sha256()
    for name, read in readers.items():
        row[f"{name}_s"], parsed = median_s(read, args.repeats)
        if name.startswith("load_embeddings"):
            digest.update(parsed.matrix(parsed.clip_ids()).tobytes())
        else:
            # Sets are sorted: a frozenset of strings iterates in hash order.
            fields = [
                {k: sorted(v) if isinstance(v, frozenset) else v for k, v in vars(r).items()}
                for r in parsed
            ]
            digest.update(repr(fields).encode())
    print(json.dumps({**row, "sha256": digest.hexdigest()}), flush=True)


if __name__ == "__main__":
    main()
