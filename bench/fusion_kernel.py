"""Time span projection and a threshold sweep at film scale.

    python3 bench/fusion_kernel.py [--src DIR] [--repeats N]

Imports gazelab from ``DIR`` (default: this checkout's ``src/``), builds
one seeded film of 3,000 contiguous clips (2-6 s each) and 6,000 free
spans (2-12 s each, anywhere in the film) from 4 annotators, and prints
one JSON line with the seconds of: ``project`` of every annotator's
spans onto the clips at the default threshold, ``fuse`` of the whole
film at the default threshold (its projections and merged labels), and
``sweep_thresholds`` at 0.1, 0.2, 0.3 and 0.4 (each the median of N
runs). It also prints the number of intersecting (span, clip) pairs and
a digest of all three results, so that two checkouts can be compared
for identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from timing import median_s

CLIPS, ANNOTATORS, SPANS_PER_ANNOTATOR = 3000, 4, 1500
THRESHOLDS = (0.1, 0.2, 0.3, 0.4)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from gazelab import ClipDelimitation, Concept, ObjLevel, SpanAnnotation
    from gazelab import fuse, project, sweep_thresholds

    rng = np.random.default_rng(5)
    edges = np.round(np.concatenate([[0.0], np.cumsum(rng.uniform(2.0, 6.0, CLIPS))]), 3)
    clips = [
        ClipDelimitation(f"c{i:05d}", "film", float(edges[i]), float(edges[i + 1]))
        for i in range(CLIPS)
    ]
    spans_by_annotator = {}
    for a in range(ANNOTATORS):
        starts = rng.uniform(0.0, edges[-1] - 12.0, SPANS_PER_ANNOTATOR)
        lengths = rng.uniform(2.0, 12.0, SPANS_PER_ANNOTATOR)
        levels = rng.integers(1, 4, SPANS_PER_ANNOTATOR)
        concepts = rng.integers(0, 8, SPANS_PER_ANNOTATOR)
        spans_by_annotator[f"a{a}"] = [
            SpanAnnotation(
                "film", f"a{a}", float(s), float(s + n), ObjLevel(int(lv)), {Concept(int(c))}
            )
            for s, n, lv, c in zip(starts, lengths, levels, concepts)
        ]
    spans = [s for group in spans_by_annotator.values() for s in group]
    project_s, labels = median_s(
        lambda: [project(group, clips) for group in spans_by_annotator.values()], args.repeats
    )
    fuse_s, (projections, merged) = median_s(lambda: fuse(spans, clips), args.repeats)
    sweep_s, rows = median_s(lambda: sweep_thresholds(spans, clips, THRESHOLDS), args.repeats)
    overlap_pairs = sum(
        int(((np.minimum(s.end, edges[1:]) - np.maximum(s.start, edges[:-1])) > 0).sum())
        for s in spans
    )
    def canonical_labels(timelines):
        return [
            (
                lbl.clip_id,
                lbl.level.name,
                sorted(c.label for c in lbl.concepts),
                sorted(lbl.annotators),
            )
            for timeline in timelines
            for lbl in timeline
        ]

    canonical = (
        canonical_labels(labels),
        [(row.threshold, [row.counts[lv] for lv in ObjLevel]) for row in rows],
        sorted(projections["film"]),
        canonical_labels([*projections["film"].values(), merged["film"]]),
    )
    digest = hashlib.sha256(repr(canonical).encode()).hexdigest()[:16]
    print(
        json.dumps(
            {
                "clips": CLIPS,
                "spans": len(spans),
                "annotators": ANNOTATORS,
                "overlap_pairs": overlap_pairs,
                "repeats": args.repeats,
                "project_s": round(project_s, 4),
                "fuse_s": round(fuse_s, 4),
                "sweep_4_thresholds_s": round(sweep_s, 4),
                "digest": digest,
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()
