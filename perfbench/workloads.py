"""Seeded inputs, CLI stages and output checks of the benchmark workloads.

Each workload writes its inputs under ``inputs/`` of a work directory
and runs its stages through ``gazelab.cli.main`` with paths relative to
that directory, so the configuration headers inside the outputs, and
with them the output digests, do not depend on where the benchmark runs.
Every stage writes into its own ``out/<stage>/`` directory.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

from reference import interpreter, matmul

LEVELS = ("EN", "HN", "NS", "S")
CONCEPTS = (
    "TypeOfShot",
    "Look",
    "Body",
    "Posture",
    "Clothing",
    "Appearance",
    "ExpressionOfEmotion",
    "Activity",
)
EMBEDDING_MAGIC = b"OBYEMB01"
EMB = "inputs/embeddings.bin"
MERGED = "inputs/merged.jsonl"
#: Per-timeline count of intersecting span/clip pairs, written beside the
#: inputs for the tracer; the program never reads it.
OVERLAP_FILE = "overlap_pairs.json"


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, purpose)))


def _write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _write_embeddings(path: Path, ids: list[str], X: np.ndarray) -> None:
    """Binary encoding: magic, u32 dimension, then (u16 id length, id, dim x f32)."""
    parts = [EMBEDDING_MAGIC, struct.pack("<I", X.shape[1])]
    for cid, row in zip(ids, X.astype("<f4")):
        raw = cid.encode("utf-8")
        parts += [struct.pack("<H", len(raw)), raw, row.tobytes()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"".join(parts))


def _concept_names(rng: np.random.Generator, k: int) -> list[str]:
    return [CONCEPTS[i] for i in sorted(rng.choice(len(CONCEPTS), size=k, replace=False))]


def _merged_line(film: str, clip: str, level: str, concepts: list[str]) -> str:
    return json.dumps(
        {"film": film, "clip": clip, "level": level, "concepts": concepts, "annotators": ["a0"]}
    )


# --- timelines -----------------------------------------------------------------


#: Size of the timelines export: films, clips per film, annotators, and
#: events (and spans per annotator) per film.
FILMS, CLIPS_PER_FILM, ANNOTATORS, SPANS_PER_FILM = 2, 400, 5, 120


def generate_timelines(root: Path, seed: int) -> dict:
    """A film-scale annotation export with freely delimited, partly shared spans.

    Every film has a latent list of events; each annotator
    re-marks most events with jittered boundaries and an occasionally
    different level, and adds the rest at random, so the annotators agree
    well above chance without agreeing exactly.
    """
    rng = _rng(seed, 1)
    clip_rows: list[str] = []
    ann_lines: list[str] = []
    overlap_pairs: dict[str, int] = {}
    for f in range(FILMS):
        film = f"film{f:02d}"
        lengths = rng.uniform(2.0, 6.0, CLIPS_PER_FILM)
        edges = np.round(np.concatenate([[0.0], np.cumsum(lengths)]), 3)
        for i in range(CLIPS_PER_FILM):
            clip_rows.append(f"{film}_c{i:04d},{film},{float(edges[i])!r},{float(edges[i + 1])!r}")
        horizon = float(edges[-1])
        ev_start = rng.uniform(0.0, horizon - 15.0, SPANS_PER_FILM)
        ev_len = rng.uniform(2.0, 12.0, SPANS_PER_FILM)
        ev_level = rng.choice(4, size=SPANS_PER_FILM, p=[0.15, 0.3, 0.15, 0.4])
        ev_concepts = [_concept_names(rng, int(rng.integers(1, 4))) for _ in range(SPANS_PER_FILM)]
        for a in range(ANNOTATORS):
            annotator = f"a{a}"
            starts, ends = np.empty(SPANS_PER_FILM), np.empty(SPANS_PER_FILM)
            for j in range(SPANS_PER_FILM):
                if rng.random() < 0.9:
                    start = max(0.0, ev_start[j] + rng.normal(0.0, 0.5))
                    end = ev_start[j] + ev_len[j] + rng.normal(0.0, 0.5)
                    level = int(ev_level[j]) if rng.random() < 0.95 else int(rng.integers(0, 4))
                    concepts = ev_concepts[j]
                else:
                    start = float(rng.uniform(0.0, horizon - 15.0))
                    end = start + float(rng.uniform(2.0, 12.0))
                    level = int(rng.integers(0, 4))
                    concepts = _concept_names(rng, int(rng.integers(1, 4)))
                start = round(float(start), 3)
                end = round(max(float(end), start + 0.5), 3)
                starts[j], ends[j] = start, end
                ann_lines.append(
                    json.dumps(
                        {
                            "film": film,
                            "annotator": annotator,
                            "start": start,
                            "end": end,
                            "level": LEVELS[level],
                            "concepts": [] if level == 0 else concepts,
                        }
                    )
                )
            # Span/clip pairs whose intersection is non-empty: the pairs a
            # projection has to look at, out of spans x clips candidates.
            inter = np.minimum(ends[:, None], edges[None, 1:]) - np.maximum(
                starts[:, None], edges[None, :-1]
            )
            overlap_pairs[f"{film}/{annotator}"] = int((inter > 0).sum())
    _write_lines(root / "inputs/annotations.jsonl", ann_lines)
    _write_lines(root / "inputs/clips.csv", clip_rows)
    (root / OVERLAP_FILE).write_text(json.dumps(overlap_pairs, sort_keys=True))
    return {
        "clips": FILMS * CLIPS_PER_FILM,
        "films": FILMS,
        "clips_per_film": CLIPS_PER_FILM,
        "annotators": ANNOTATORS,
        "spans_per_annotator_per_film": SPANS_PER_FILM,
        "spans": len(ann_lines),
        "overlap_pairs": sum(overlap_pairs.values()),
    }


def stages_timelines(seed: int) -> list[tuple[str, list[str]]]:
    gamma = ["gamma", "out/fuse/projections.jsonl", "--seed", str(seed)]
    return [
        (
            "fuse",
            ["fuse", "inputs/annotations.jsonl", "inputs/clips.csv",
             "--sweep", "0.1,0.2,0.3,0.4", "--out", "out/fuse"],
        ),
        ("gamma", gamma + ["--out", "out/gamma"]),
        ("gamma-exclude-NS", gamma + ["--exclude", "NS", "--out", "out/gamma-exclude-NS"]),
        ("stats", ["stats", "out/fuse/merged.jsonl", "--out", "out/stats"]),
    ]


# --- concepts ------------------------------------------------------------------


#: Size and noise of the concepts bundle.
CONCEPT_CLIPS, CONCEPT_DIM, CONCEPT_NOISE = 180, 64, 0.35


def generate_concepts(root: Path, seed: int) -> dict:
    """Compositional concept bundle: the level counts the active concepts.

    Clips are EN, HN and S in turn, as in the test suite's
    ``make_compositional``. Every HN clip carries the first concept, and
    every S clip the first concept plus one of the seven others, dealt
    round-robin, so each of those has 8 or 9 positives. cav
    cross-validates only concepts with at least as many positives as it
    has folds (10): here the first, at 41 SVM fits, while the seven rare
    ones are fitted once each. Cross-validating all eight would take at
    least 328 fits, about seven times as long. Concept i adds a bump
    along axis i against noise on every axis, so F1 can fall below 1.
    """
    rng = _rng(seed, 2)
    levels = [("EN", "HN", "S")[i % 3] for i in range(CONCEPT_CLIPS)]
    active: list[list[int]] = [[] if level == "EN" else [0] for level in levels]
    s_clips = [i for i, level in enumerate(levels) if level == "S"]
    for j, i in enumerate(rng.permutation(s_clips)):
        active[i].append(1 + j % (len(CONCEPTS) - 1))
    X = rng.normal(0.0, CONCEPT_NOISE, (CONCEPT_CLIPS, CONCEPT_DIM))
    lines = []
    ids = [f"clip{i:04d}" for i in range(CONCEPT_CLIPS)]
    for i, (cid, level) in enumerate(zip(ids, levels)):
        for a in active[i]:
            X[i, a] += rng.uniform(1.0, 2.0)
        lines.append(_merged_line(f"film{i % 10:02d}", cid, level, [CONCEPTS[a] for a in active[i]]))
    _write_embeddings(root / EMB, ids, X)
    _write_lines(root / MERGED, lines)
    return {"clips": CONCEPT_CLIPS, "n": CONCEPT_CLIPS, "dim": CONCEPT_DIM, "noise": CONCEPT_NOISE}


def stages_concepts(seed: int) -> list[tuple[str, list[str]]]:
    s = ["--seed", str(seed)]
    cavs = ["--cavs", "out/cav/cavs_en-only.json"]
    return [
        ("cav", ["cav", EMB, MERGED, "--mode", "en-only", *s, "--out", "out/cav"]),
        ("pcbm-dt", ["pcbm", EMB, MERGED, "--kind", "dt", *cavs, *s, "--out", "out/pcbm-dt"]),
        ("pcbm-lr", ["pcbm", EMB, MERGED, "--kind", "lr", *cavs, *s, "--out", "out/pcbm-lr"]),
    ]


# --- evaluate ------------------------------------------------------------------


#: The eval stage runs with the CLI's default epoch count.
EVAL_EPOCHS = 100


def generate_evaluate(root: Path, seed: int) -> dict:
    """Raw embeddings whose level is set by one direction, shares 62/19/19.

    1000 clips of 512 dimensions. EN, HN and S sit at -1.5, -1.0 and +3.0
    along a random unit direction with noise of standard deviation 0.25
    on every axis. HN is the nearer negative, and a few hundred training
    clips do not pin the direction down exactly in 512 dimensions, so F1
    stays below 1.
    """
    n, dim = 1000, 512
    rng = _rng(seed, 3)
    u = rng.normal(0.0, 1.0, dim)
    u /= np.linalg.norm(u)
    n_en, n_hn = int(n * 0.62), int(n * 0.19)
    levels = ["EN"] * n_en + ["HN"] * n_hn + ["S"] * (n - n_en - n_hn)
    centers = {"EN": -1.5, "HN": -1.0, "S": 3.0}
    ids, lines = [], []
    X = rng.normal(0.0, 0.25, (n, dim))
    for i, level in enumerate(levels):
        X[i] += centers[level] * u
        cid = f"clip{i:05d}"
        ids.append(cid)
        concepts = [] if level == "EN" else [CONCEPTS[int(rng.integers(0, len(CONCEPTS)))]]
        lines.append(_merged_line(f"film{i % 20:02d}", cid, level, concepts))
    _write_embeddings(root / EMB, ids, X)
    _write_lines(root / MERGED, lines)
    return {"clips": n, "n": n, "dim": dim, "epochs": EVAL_EPOCHS}


def stages_evaluate(seed: int) -> list[tuple[str, list[str]]]:
    return [
        ("eval", ["eval", EMB, MERGED, "--model", "mlp", "--seed", str(seed), "--out", "out/eval"])
    ]


# --- output checks -------------------------------------------------------------

EXPECTED_FILES = {
    "fuse": ("merged.jsonl", "projections.jsonl", "merged.config.json", "sweep.csv"),
    "gamma": ("gamma.csv",),
    "gamma-exclude-NS": ("gamma.csv",),
    "stats": ("stats.csv", "summary.json"),
    "cav": ("cavs_en-only.json", "concept_f1.csv"),
    "pcbm-dt": ("pcbm_report.json", "tree.txt"),
    "pcbm-lr": ("pcbm_report.json",),
    "eval": ("eval_report.json", "eval_table.csv"),
}


def _data_rows(path: Path) -> list[list[str]]:
    """CSV rows after the config comment and the header line."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def _in_unit_interval(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


def _check_fuse(out: Path) -> list[str]:
    clip_ids = [row.split(",")[0] for row in Path("inputs/clips.csv").read_text().splitlines()]
    merged = [json.loads(ln)["clip"] for ln in (out / "merged.jsonl").read_text().splitlines()]
    problems = []
    if sorted(merged) != sorted(clip_ids):
        problems.append("merged.jsonl does not list every indexed clip exactly once")
    sweep = _data_rows(out / "sweep.csv")
    if not sweep:
        problems.append("sweep.csv has no rows")
    for row in sweep:
        if sum(int(v) for v in row[1:5]) != len(clip_ids):
            problems.append(f"sweep.csv row {row[0]} does not sum to {len(clip_ids)} clips")
    return problems


def _check_gamma(out: Path) -> list[str]:
    values = [float(row[2]) for row in _data_rows(out / "gamma.csv")]
    if not values or not all(math.isfinite(v) and v <= 1.0 for v in values):
        return ["gamma.csv holds a value that is not finite or exceeds 1"]
    return []


def _check_cav(out: Path) -> list[str]:
    doc = json.loads((out / "cavs_en-only.json").read_text())
    problems = []
    if len(doc["cavs"]) != len(CONCEPTS):
        problems.append(f"expected {len(CONCEPTS)} concept axes, got {len(doc['cavs'])}")
    for cav in doc["cavs"]:
        norm = float(np.linalg.norm(cav["unit_normal"]))
        if not abs(norm - 1.0) <= 1e-6:
            problems.append(f"axis of {cav['concept']} has norm {norm}")
    if not all(_in_unit_interval(float(r[2])) for r in _data_rows(out / "concept_f1.csv")):
        problems.append("concept_f1.csv holds an F1 outside [0, 1]")
    return problems


def _check_pcbm(out: Path) -> list[str]:
    f1 = json.loads((out / "pcbm_report.json").read_text())["report"]["mean_f1"]
    return [] if _in_unit_interval(f1) else [f"pcbm mean F1 {f1} outside [0, 1]"]


def _check_eval(out: Path) -> list[str]:
    reports = json.loads((out / "eval_report.json").read_text())["reports"]
    f1s = [r["mean_f1"] for r in reports] + [v for r in reports for v in r["per_draw_f1"]]
    if len(reports) != 4 or not all(_in_unit_interval(v) for v in f1s):
        return ["eval_report.json needs four cells with every F1 in [0, 1]"]
    return []


CHECKS = {
    "fuse": _check_fuse,
    "gamma": _check_gamma,
    "gamma-exclude-NS": _check_gamma,
    "cav": _check_cav,
    "pcbm-dt": _check_pcbm,
    "pcbm-lr": _check_pcbm,
    "eval": _check_eval,
}


def check_stage(name: str, out: Path) -> list[str]:
    """Problems with a stage's outputs; empty when they pass every check.

    Paths are relative to the work directory, the current directory of
    the worker that calls this.
    """
    missing = [f for f in EXPECTED_FILES[name] if not (out / f).is_file()]
    if missing:
        return [f"missing output {f}" for f in missing]
    check = CHECKS.get(name)
    if check is None:
        return []
    try:
        return check(out)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]


# --- quality -------------------------------------------------------------------


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def quality_timelines() -> dict:
    averages = [
        float(row[2])
        for stage in ("gamma", "gamma-exclude-NS")
        for row in _data_rows(Path("out") / stage / "gamma.csv")
        if row[0] == "__average__"
    ]
    return {"agreement.gamma_mean": _mean(averages), "quality": _mean(averages)}


def quality_concepts() -> dict:
    """Mean test F1 of the cross-validated concept axes, and of the pcbm reports.

    cav scores a concept with fewer positives or negatives than folds by
    its training F1, which separable data makes 1, so those are left out.
    """
    from gazelab.cbm import CavCvConfig

    labels = [json.loads(ln) for ln in Path(MERGED).read_text().splitlines()]
    negatives = sum(1 for lbl in labels if lbl["level"] == "EN")
    positives = {c: sum(1 for lbl in labels if c in lbl["concepts"]) for c in CONCEPTS}
    folds = CavCvConfig().k
    cav = _mean(
        [
            float(r[2])
            for r in _data_rows(Path("out/cav/concept_f1.csv"))
            if positives[r[0]] >= folds and negatives >= folds
        ]
    )
    pcbm = _mean(
        [
            json.loads((Path("out") / s / "pcbm_report.json").read_text())["report"]["mean_f1"]
            for s in ("pcbm-dt", "pcbm-lr")
        ]
    )
    return {"cbm.cav_f1_mean": cav, "cbm.pcbm_f1_mean": pcbm, "quality": (cav + pcbm) / 2}


def quality_evaluate() -> dict:
    reports = json.loads(Path("out/eval/eval_report.json").read_text())["reports"]
    f1 = _mean([r["mean_f1"] for r in reports])
    return {"harness.eval_f1_mean": f1, "quality": f1}


#: name -> (inputs, stages, output quality, reference loop of the same kind of work)
WORKLOADS = {
    "timelines": (generate_timelines, stages_timelines, quality_timelines, interpreter),
    "concepts": (generate_concepts, stages_concepts, quality_concepts, interpreter),
    "evaluate": (generate_evaluate, stages_evaluate, quality_evaluate, matmul),
}
