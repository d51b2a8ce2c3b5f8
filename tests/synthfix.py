"""Synthetic dataset builders and test-only helpers shared by the tests.

Every builder is deterministic given its seed and constructs data with
a known ground truth, so tests can assert against the generating
process instead of against the code under test. The helpers invert the
package's readers and writers (serializers for the annotation and clip
index formats, a model reader, clip labels as spans) so that round
trips can be checked; no command needs them.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence

import numpy as np

from gazelab import (
    ClipDelimitation,
    ClipLabel,
    Concept,
    DecisionTree,
    EmbeddingTable,
    LinearKind,
    LinearModel,
    MlpModel,
    ObjLevel,
    SpanAnnotation,
    init_mlp,
    mlp_gradient,
)
from gazelab.models import MODEL_FORMAT, TreeNode


def make_compositional(seed: int, n: int = 480, dim: int = 64, sigma: float = 0.05):
    """Clips whose rating counts active concepts: 0 = EN, 1 = HN, >= 2 = S.

    Concept i occupies embedding axis i with an active coordinate in
    [2, 3]; inactive coordinates and the remaining ambient axes are
    small noise. Returns (labels, embedding table).
    """
    rng = np.random.default_rng(seed)
    labels: list[ClipLabel] = []
    rows: dict[str, np.ndarray] = {}
    for i in range(n):
        r = i % 3
        k = 0 if r == 0 else (1 if r == 1 else int(rng.integers(2, 4)))
        active = tuple(sorted(rng.choice(8, size=k, replace=False))) if k else ()
        x = rng.normal(0, sigma, dim)
        for a in active:
            x[a] = rng.uniform(2, 3)
        level = ObjLevel.EN if k == 0 else (ObjLevel.HN if k == 1 else ObjLevel.S)
        cid = f"clip{seed}_{i:04d}"
        labels.append(ClipLabel(cid, level, frozenset(Concept(int(a)) for a in active)))
        rows[cid] = x
    return labels, EmbeddingTable(rows)


def make_entangled(seed: int, n: int = 360, dim: int = 32, share: float = 0.08, sigma: float = 0.3):
    """Like make_compositional, but concepts 0 and 1 share a component.

    Their directions are (e0 +/- share*e1) normalized, so separating
    "concept 0 present" from "concept 1 present without concept 0"
    hinges on the small residual axis and degrades under noise, while
    separating either from EN clips stays easy.
    """
    rng = np.random.default_rng(seed)
    dirs = np.zeros((8, dim))
    norm = np.sqrt(1.0 + share**2)
    dirs[0, 0], dirs[0, 1] = 1.0 / norm, share / norm
    dirs[1, 0], dirs[1, 1] = 1.0 / norm, -share / norm
    for j in range(2, 8):
        dirs[j, j + 1] = 1.0
    labels: list[ClipLabel] = []
    rows: dict[str, np.ndarray] = {}
    for i in range(n):
        r = i % 3
        k = 0 if r == 0 else (1 if r == 1 else int(rng.integers(2, 4)))
        active = tuple(sorted(rng.choice(8, size=k, replace=False))) if k else ()
        x = rng.normal(0, sigma, dim)
        for a in active:
            x += rng.uniform(2, 3) * dirs[a]
        level = ObjLevel.EN if k == 0 else (ObjLevel.HN if k == 1 else ObjLevel.S)
        cid = f"ent{seed}_{i:04d}"
        labels.append(ClipLabel(cid, level, frozenset(Concept(int(a)) for a in active)))
        rows[cid] = x
    return labels, EmbeddingTable(rows)


def make_linear_task(seed: int, n: int = 800, dim: int = 32, noise: float = 0.25):
    """Ratings decided by one linear direction in embedding space.

    EN, HN, and S sit at -3.0, -1.5, and +2.5 along a random unit
    direction (so HN is the harder negative), with class shares 62%,
    19%, 19%. Returns (labels, feature mapping).
    """
    rng = np.random.default_rng(seed)
    u = rng.normal(0, 1, dim)
    u /= np.linalg.norm(u)
    counts = [int(n * 0.62), int(n * 0.19), n - int(n * 0.62) - int(n * 0.19)]
    centers = {ObjLevel.EN: -3.0, ObjLevel.HN: -1.5, ObjLevel.S: 2.5}
    labels: list[ClipLabel] = []
    rows: dict[str, np.ndarray] = {}
    i = 0
    for level, cnt in zip((ObjLevel.EN, ObjLevel.HN, ObjLevel.S), counts):
        for _ in range(cnt):
            x = rng.normal(0, noise, dim) + centers[level] * u
            concepts = (
                frozenset()
                if level is ObjLevel.EN
                else frozenset({Concept(int(rng.integers(0, 8)))})
            )
            cid = f"lin{seed}_{i:04d}"
            i += 1
            labels.append(ClipLabel(cid, level, concepts))
            rows[cid] = x
    return labels, rows


def make_error_fixture(seed: int, n: int = 240):
    """Predictions that fail exactly on the HN clips.

    Returns (labels, predictions); truths follow from the levels.
    """
    rng = np.random.default_rng(seed)
    labels: list[ClipLabel] = []
    preds: list[int] = []
    for i in range(n):
        level = (ObjLevel.EN, ObjLevel.HN, ObjLevel.S)[i % 3]
        concepts = (
            frozenset()
            if level is ObjLevel.EN
            else frozenset(
                Concept(int(c))
                for c in rng.choice(8, size=int(rng.integers(1, 4)), replace=False)
            )
        )
        labels.append(ClipLabel(f"err{seed}_{i:03d}", level, concepts))
        truth = 1 if level is ObjLevel.S else 0
        preds.append(1 - truth if level is ObjLevel.HN else truth)
    return labels, preds


# Hand-authored fusion fixture. Clips are 60 s; the overlap fractions
# below were computed by hand against the 20% clip-duration threshold.
#
#   a1 [50,75)  S {Body}       c1: 10/60=16.7% drop | c2: 15/60=25% keep
#   a1 [100,130) HN {Clothing} c2: 20/60=33% keep   | c3: 10/60=16.7% drop
#   a1 [140,170) NS {Look}     c3: 30/60=50% keep
#   a2 [55,130)  HN {Posture}  c1: 8.3% drop | c2: 100% keep | c3: 16.7% drop
#   a2 [150,240) S {Look,Activity}  c3: 50% keep | c4: 100% keep
#   a2 [250,260) S {Body}      c5: 16.7% drop
#
# Projections at 0.2:  a1: EN, S{Body}, NS{Look}, EN, EN
#                      a2: EN, HN{Posture}, S{Look,Activity}, S{Look,Activity}, EN
# Merged at 0.2:       EN | S{Body} | S{Look,Activity} | S{Look,Activity} | EN
# At threshold 0.4 a1's two c2 spans drop below 40%, so c2 becomes
# HN{Posture} (from a2); everything else is unchanged.
FUSION_FIXTURE_CLIPS_CSV = """c1,juno,0,60
c2,juno,60,120
c3,juno,120,180
c4,juno,180,240
c5,juno,240,300
"""

FUSION_FIXTURE_ANNOTATIONS_JSONL = """{"film": "juno", "annotator": "a1", "start": 50.0, "end": 75.0, "level": "S", "concepts": ["Body"]}
{"film": "juno", "annotator": "a1", "start": 100.0, "end": 130.0, "level": "HN", "concepts": ["Clothing"]}
{"film": "juno", "annotator": "a1", "start": 140.0, "end": 170.0, "level": "NS", "concepts": ["Look"]}
{"film": "juno", "annotator": "a2", "start": 55.0, "end": 130.0, "level": "HN", "concepts": ["Posture"]}
{"film": "juno", "annotator": "a2", "start": 150.0, "end": 240.0, "level": "S", "concepts": ["Look", "Activity"]}
{"film": "juno", "annotator": "a2", "start": 250.0, "end": 260.0, "level": "S", "concepts": ["Body"]}
"""

FUSION_FIXTURE_EXPECTED_MERGED = """{"film": "juno", "clip": "c1", "level": "EN", "concepts": [], "annotators": ["a1", "a2"]}
{"film": "juno", "clip": "c2", "level": "S", "concepts": ["Body"], "annotators": ["a1"]}
{"film": "juno", "clip": "c3", "level": "S", "concepts": ["Look", "Activity"], "annotators": ["a2"]}
{"film": "juno", "clip": "c4", "level": "S", "concepts": ["Look", "Activity"], "annotators": ["a2"]}
{"film": "juno", "clip": "c5", "level": "EN", "concepts": [], "annotators": ["a1", "a2"]}
"""


def mlp_gradcheck_worst_error(n_instances: int, master_seed: int = 2024, h: float = 1e-4) -> float:
    """Worst relative error of backprop vs central differences.

    Random small instances (2 <= dim <= 8, 1 <= batch <= 5). Instances
    with a pre-activation within 1e-3 of zero are redrawn: finite
    differences are not a valid oracle across the ReLU kink, where the
    one-sided derivative convention makes the two legitimately differ.
    """
    rng_master = np.random.default_rng(master_seed)
    worst = 0.0
    kept = 0
    while kept < n_instances:
        seed = int(rng_master.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        batch = int(rng.integers(1, 6))
        model = init_mlp(dim, seed)
        X = rng.normal(0, 1, (batch, dim))
        y = rng.integers(0, 2, batch)
        if np.abs(X @ model.w1 + model.b1).min() < 1e-3:
            continue
        kept += 1
        *grads, _ = mlp_gradient(model, X, y)
        analytic = np.concatenate([g.ravel() for g in grads])

        shapes = [model.w1.shape, model.b1.shape, model.w2.shape, model.b2.shape]
        flat = np.concatenate(
            [model.w1.ravel(), model.b1.ravel(), model.w2.ravel(), model.b2.ravel()]
        )

        def loss_at(vec):
            parts, off = [], 0
            for s in shapes:
                size = int(np.prod(s))
                parts.append(vec[off : off + size].reshape(s))
                off += size
            return mlp_gradient(MlpModel(*parts), X, y)[-1]

        numeric = np.empty_like(flat)
        for i in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (loss_at(up) - loss_at(down)) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        worst = max(worst, float((np.abs(analytic - numeric) / denom).max()))
    return worst


def random_fusion_fixture(rng: np.random.Generator, film: str = "f"):
    """Random non-overlapping clips plus random spans for two annotators."""
    n_clips = int(rng.integers(3, 8))
    edges = np.cumsum(rng.uniform(5, 30, n_clips + 1))
    clips = [
        ClipDelimitation(f"c{i}", film, float(edges[i]), float(edges[i + 1]))
        for i in range(n_clips)
    ]
    spans_by_annotator: dict[str, list[SpanAnnotation]] = {}
    horizon = float(edges[-1])
    for aid in ("a1", "a2"):
        spans = []
        for _ in range(int(rng.integers(1, 6))):
            start = float(rng.uniform(0, horizon - 1))
            end = float(start + rng.uniform(0.5, horizon / 2))
            level = ObjLevel(int(rng.integers(1, 4)))
            concepts = frozenset(
                Concept(int(c))
                for c in rng.choice(8, size=int(rng.integers(1, 3)), replace=False)
            )
            spans.append(SpanAnnotation(film, aid, start, end, level, concepts))
        spans_by_annotator[aid] = spans
    return clips, spans_by_annotator


def ids_by_level(labels: Sequence[ClipLabel]) -> dict[ObjLevel, list[str]]:
    """Clip ids per level, in label order: the classes of a fold plan."""
    out: dict[ObjLevel, list[str]] = {}
    for lbl in labels:
        out.setdefault(lbl.level, []).append(lbl.clip_id)
    return out


def serialize_annotations(spans: Iterable[SpanAnnotation]) -> str:
    """Inverse of parse_annotations, one JSON record per line."""
    lines = []
    for s in spans:
        obj = {
            "film": s.film_id,
            "annotator": s.annotator_id,
            "start": s.start,
            "end": s.end,
            "level": s.level.name,
            "concepts": [c.label for c in sorted(s.concepts)],
        }
        lines.append(json.dumps(obj))
    return "".join(line + "\n" for line in lines)


def serialize_clip_index(clips: Iterable[ClipDelimitation]) -> str:
    """Inverse of parse_clip_index for clips already in its order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for c in clips:
        writer.writerow([c.clip_id, c.film_id, repr(float(c.start)), repr(float(c.end))])
    return out.getvalue()


def labels_as_spans(
    labels: Sequence[ClipLabel],
    clips: Sequence[ClipDelimitation],
    annotator_id: str,
) -> list[SpanAnnotation]:
    """Re-express clip labels as spans on the clip boundaries.

    EN clips become EN spans, so reprojecting at any threshold up to 1
    reproduces the input labels exactly (the spans are clip-aligned).
    """
    by_id = {c.clip_id: c for c in clips}
    spans = []
    for lbl in labels:
        clip = by_id[lbl.clip_id]
        spans.append(
            SpanAnnotation(
                film_id=clip.film_id,
                annotator_id=annotator_id,
                start=clip.start,
                end=clip.end,
                level=lbl.level,
                concepts=lbl.concepts,
            )
        )
    return spans


def _node_from_json(doc: dict) -> TreeNode:
    node = TreeNode(
        class_counts=np.array(doc["class_counts"], dtype=np.int64),
        depth=doc["depth"],
    )
    if "feature" in doc:
        node.feature = doc["feature"]
        node.threshold = doc["threshold"]
        node.left = _node_from_json(doc["left"])
        node.right = _node_from_json(doc["right"])
    return node


def model_from_json(doc: dict):
    """Inverse of model_to_json."""
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {doc.get('format')!r}")
    kind = doc["kind"]
    if kind in (LinearKind.SVM.value, LinearKind.LOGISTIC.value):
        return LinearModel(
            weights=np.array(doc["weights"], dtype=np.float64),
            bias=float(doc["bias"]),
            kind=LinearKind(kind),
        )
    if kind == "tree":
        return DecisionTree(
            root=_node_from_json(doc["root"]),
            max_depth=doc["max_depth"],
            n_features=doc["n_features"],
        )
    if kind == "mlp":
        return MlpModel(
            w1=np.array(doc["w1"], dtype=np.float64),
            b1=np.array(doc["b1"], dtype=np.float64),
            w2=np.array(doc["w2"], dtype=np.float64),
            b2=np.array(doc["b2"], dtype=np.float64),
        )
    raise ValueError(f"unknown model kind {kind!r}")
