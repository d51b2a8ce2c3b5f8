"""Time the text and binary input readers on a seeded export.

    python3 bench/reader_kernel.py [--src DIR] [--repeats N]

Imports gazelab from ``DIR`` (default: this checkout's ``src/``) and
writes, into a temporary directory, the inputs of the benchmark's seed 1
with ``perfbench/workloads.py``: the timelines export (annotation JSONL
and clip index CSV, ``generate_timelines``) and the evaluate bundle
(binary embeddings and merged-label JSONL, ``generate_evaluate``); the
CSV embeddings are the same table through ``dump_embeddings``, and the
projection JSONL is what ``fuse`` writes for the timelines export. It
prints one JSON line with the median seconds of N runs of each reader,
as the commands call them on the decoded text or bytes:
``parse_annotations``, ``parse_clip_index``, the projection reader of
``gamma``, the merged-label reader of ``stats``, ``cav``, ``pcbm`` and
``eval``, and ``load_embeddings`` on each encoding. Its sha256 over the
parsed values tells whether two checkouts read the same records. BLAS
runs on one thread.
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


def projection_reader(cli, core):
    """``cli._read_projections``, or in a checkout whose ``gamma`` reads
    its projections inline, a copy of that loop."""
    if hasattr(cli, "_read_projections"):
        return cli._read_projections

    def read(text):
        films = {}

        def rating(line):
            obj = core.json_object(line)
            film, annotator = core.field(obj, "film", str), core.field(obj, "annotator", str)
            clip, level = core.field(obj, "clip", str), core.field(obj, "level", str)
            ratings = films.setdefault(film, {}).setdefault(annotator, {})
            if clip in ratings:
                raise core.MalformedRecord(
                    f"second rating of clip {clip!r} by {annotator!r} in film {film!r}"
                )
            ratings[clip] = core.ObjLevel.from_name(level)

        core.read_rows(core.jsonl_rows(text), rating)
        return films

    return read


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
        fused = Path(root, "timelines", "fuse")
        cli.main(["fuse", str(inputs / "annotations.jsonl"), str(inputs / "clips.csv"),
                  "--out", str(fused)])
        projections = (fused / "projections.jsonl").read_text(encoding="utf-8")
        labels = Path(root, "evaluate", workloads.MERGED).read_text(encoding="utf-8")
        binary = Path(root, "evaluate", workloads.EMB).read_bytes()
    text = core.dump_embeddings(core.load_embeddings(binary), "csv")
    read_projections = projection_reader(cli, core)

    readers = {
        "parse_annotations": lambda: core.parse_annotations(annotations),
        "parse_clip_index": lambda: core.parse_clip_index(clips),
        "projections": lambda: read_projections(projections),
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
        elif name == "projections":
            digest.update(repr(parsed).encode())
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
