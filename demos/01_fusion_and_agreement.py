#!/usr/bin/env python3
"""Walk through span projection, merging, sweeps, and agreement.

Two annotators rate a five-clip film with freely delimited spans. We
project each timeline onto the clip grid at the default 20% overlap
threshold, merge them with the max-level rule, tabulate how the class
balance moves as the threshold grows, and finish with the
chance-corrected agreement between the two projected timelines.
"""

from gazelab import (
    GammaConfig,
    ProjectionConfig,
    fuse,
    gamma_per_film_and_average,
    parse_annotations,
    parse_clip_index,
    sweep_thresholds,
)

ANNOTATIONS = """\
{"film": "juno", "annotator": "a1", "start": 50.0, "end": 75.0, "level": "S", "concepts": ["Body"]}
{"film": "juno", "annotator": "a1", "start": 100.0, "end": 130.0, "level": "HN", "concepts": ["Clothing"]}
{"film": "juno", "annotator": "a1", "start": 140.0, "end": 170.0, "level": "NS", "concepts": ["Look"]}
{"film": "juno", "annotator": "a2", "start": 55.0, "end": 130.0, "level": "HN", "concepts": ["Posture"]}
{"film": "juno", "annotator": "a2", "start": 150.0, "end": 240.0, "level": "S", "concepts": ["Look", "Activity"]}
{"film": "juno", "annotator": "a2", "start": 250.0, "end": 260.0, "level": "S", "concepts": ["Body"]}
"""

CLIPS = """\
c1,juno,0,60
c2,juno,60,120
c3,juno,120,180
c4,juno,180,240
c5,juno,240,300
"""


def show_timeline(tag, labels):
    cells = []
    for label in labels:
        concepts = ",".join(c.label for c in sorted(label.concepts)) or "-"
        cells.append(f"{label.clip_id}:{label.level.name}({concepts})")
    print(f"  {tag:10s} " + "  ".join(cells))


def main():
    spans = parse_annotations(ANNOTATIONS)
    clips = parse_clip_index(CLIPS)

    print("== projection and merge at the default 20% threshold ==")
    projections, merged = fuse(spans, clips, ProjectionConfig())
    for annotator, labels in projections["juno"].items():
        show_timeline(annotator, labels)
    show_timeline("merged", merged["juno"])
    print()

    print("== class counts while sweeping the overlap threshold ==")
    print("  threshold   EN  HN  NS   S")
    for row in sweep_thresholds(spans, clips, [0.1, 0.2, 0.3, 0.4]):
        counts = "  ".join(f"{row.counts[lv]:2d}" for lv in row.counts)
        print(f"  {row.threshold:9.1f}  {counts}")
    print("  (sure clips fall away as the bar rises; easy negatives absorb them)")
    print()

    print("== agreement between the two projected timelines ==")
    sequences = {
        aid: [label.level for label in labels]
        for aid, labels in projections["juno"].items()
    }
    summary = gamma_per_film_and_average({"juno": sequences}, GammaConfig())
    row = summary.per_pair[0]
    print(
        f"  {row.annotator_a} vs {row.annotator_b}: "
        f"gamma={row.result.gamma:.3f} "
        f"(observed disorder {row.result.observed_disorder:.3f}, "
        f"null {row.result.expected_disorder:.3f}, "
        f"{row.result.n_pairs} compared clips)"
    )


if __name__ == "__main__":
    main()
