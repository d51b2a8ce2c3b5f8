"""Command-line drivers for the fusion, agreement, and evaluation pipeline.

Subcommands: ``fuse``, ``gamma``, ``stats``, ``cav``, ``pcbm``,
``eval``, ``error``. Exit codes: 2 for parse errors (including file
errors), 3 for invariant violations, 4 for precondition failures, 5 for
numerical divergence, 1 for any other package error (a worker process
that died). ``cav``, ``pcbm`` and ``eval`` require a seed,
either via ``--seed`` or the ``OBY_SEED`` environment variable; every
run is fully reproducible. Every CSV and JSON report records the run's
resolved configuration (``_resolved``), never a timestamp: in a
``# config:`` line, a ``config`` object or ``merged.config.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Iterable

from . import cbm as cbm_mod
from . import fusion as fusion_mod
from .agreement import GammaConfig, gamma_per_film_and_average
from .core import (
    ClipLabel,
    ObjLevel,
    concept_set,
    csv_rows,
    json_object,
    jsonl_records,
    load_embeddings,
    parse_annotations,
    parse_clip_index,
    read_rows,
)
from .errors import (
    GazeLabError, InvariantError, InvariantViolation, MalformedRecord, NumericError, ParseError,
    PreconditionError,
)
from .harness import (
    FACTOR_NAMES,
    TEST_NEGATIVE_SETS,
    ModelKind,
    TaskConfig,
    error_factor_analysis,
    run_task,
)
from .models import model_to_json
from .stats import summarize, summary_rows, task_class_fractions

SEED_ENV_VAR = "OBY_SEED"

#: Exit code of each error class that ends a command with a one-line message.
#: Any other ``GazeLabError``, such as a dead worker process, exits 1; it
#: comes last, so each class above keeps its own code.
EXIT_CODES = {
    ParseError: 2, OSError: 2, InvariantError: 3, PreconditionError: 4, NumericError: 5,
    GazeLabError: 1,
}


def _resolved(args: argparse.Namespace, **values) -> dict:
    """A run's configuration: every parsed argument but ``--out``, with
    ``values`` (the resolved seed, say) written over the parsed ones."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    return {**cfg, **values}


def _config_line(cfg: dict) -> str:
    return "# config: " + json.dumps(cfg, sort_keys=True)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_lines(path: Path, lines: list[str]) -> None:
    _write_text(path, "".join(line + "\n" for line in lines))


def _write_json(path: Path, doc: dict) -> None:
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _read_path(path: str, binary: bool = False):
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    data = p.read_bytes()
    if binary:
        return data
    try:  # no newline translation: the readers split lines themselves
        return data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise PreconditionError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    raise PreconditionError(f"a seed is required (--seed or {SEED_ENV_VAR})")


def _parse_levels(text: str) -> frozenset[ObjLevel]:
    return frozenset(ObjLevel.from_name(part.strip()) for part in text.split(",") if part.strip())


def _read_merged_labels(text: str) -> list[ClipLabel]:
    """Merged-label JSONL, each clip once (clip ids key everything downstream).

    ``fuse``'s own lines take the layout path of ``jsonl_records``; each
    distinct concept and annotator list is decoded once.
    """
    seen: set[str] = set()
    concepts_of, annotators_of = functools.cache(concept_set), functools.cache(frozenset)

    def label(values: Iterable) -> ClipLabel:
        values = iter(values)
        clip_id, level = next(values), next(values)
        if clip_id in seen:  # found before a fault in the fields after it
            raise MalformedRecord(f"second record of clip {clip_id!r}")
        seen.add(clip_id)
        concepts, annotators = values
        concepts = concepts_of(concepts)
        return ClipLabel(clip_id, ObjLevel.from_name(level), concepts, annotators_of(annotators))

    fields = [("clip", str), ("level", str), ("concepts", list, []), ("annotators", list, [])]
    return read_rows(jsonl_records(text, fields, _MERGED_LAYOUT), label)


# --- fuse -------------------------------------------------------------------


def _parse_thresholds(text: str) -> list[float]:
    try:
        thresholds = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        thresholds = []
    if not thresholds:
        raise ParseError(f"--sweep needs comma-separated numbers, got {text!r}")
    return thresholds


#: The keys, in order, of the lines ``_label_lines`` writes to
#: ``projections.jsonl`` and ``merged.jsonl``: the layouts by which
#: ``jsonl_records`` reads those lines back without a JSON decoder.
_PROJECTION_LAYOUT = (
    ("film", str), ("annotator", str), ("clip", str), ("level", str), ("concepts", list),
)
_MERGED_LAYOUT = (
    ("film", str), ("clip", str), ("level", str), ("concepts", list), ("annotators", list),
)


def _label_lines(
    timelines: Iterable[tuple[dict, list[ClipLabel]]], with_annotators: bool
) -> list[str]:
    """One JSONL line per label of each ``(head, labels)`` timeline:
    ``json.dumps`` of ``{**head, "clip", "level", "concepts"}``, with
    ``"annotators"`` last if ``with_annotators``.

    Each head is encoded once, and each distinct tail after the clip id
    once per call, so a line encodes only its clip id. The default
    separators and ``ensure_ascii`` make every line byte-equal to the
    record dict encoded whole.
    """
    tails: dict[tuple, str] = {}
    lines = []
    for head, labels in timelines:
        prefix = json.dumps(head)[:-1] + ', "clip": '
        for label in labels:
            key = (label.level, label.concepts, label.annotators if with_annotators else None)
            tail = tails.get(key)
            if tail is None:
                fields = {
                    "level": label.level.name,
                    "concepts": [c.label for c in sorted(label.concepts)],
                }
                if with_annotators:
                    fields["annotators"] = sorted(label.annotators)
                tail = tails[key] = ", " + json.dumps(fields)[1:]
            lines.append(prefix + json.dumps(label.clip_id) + tail)
    return lines


def cmd_fuse(args: argparse.Namespace) -> int:
    thresholds = _parse_thresholds(args.sweep) if args.sweep is not None else None
    spans = parse_annotations(_read_path(args.annotations))
    clips = parse_clip_index(_read_path(args.clips))
    basis = fusion_mod.OverlapBasis(args.basis)
    cfg = fusion_mod.ProjectionConfig(overlap_threshold=args.threshold, overlap_basis=basis)
    if thresholds is None:
        projections, merged = fusion_mod.fuse(spans, clips, cfg)
        rows = None
    else:
        projections, merged, rows = fusion_mod.fuse_and_sweep(spans, clips, cfg, thresholds)
    for film in sorted(projections):
        if not projections[film]:
            print(f"warning: film {film!r} has no annotations; fused as all-EN", file=sys.stderr)

    out = Path(args.out)
    resolved = _resolved(args)
    del resolved["sweep"]  # recorded in sweep.csv, the one output it shapes

    merged_lines = _label_lines(
        (({"film": film}, merged[film]) for film in sorted(merged)), with_annotators=True
    )
    _write_lines(out / "merged.jsonl", merged_lines)
    _write_json(out / "merged.config.json", resolved)

    proj_lines = _label_lines(
        (
            ({"film": film, "annotator": annotator}, projections[film][annotator])
            for film in sorted(projections)
            for annotator in sorted(projections[film])
        ),
        with_annotators=False,
    )
    _write_lines(out / "projections.jsonl", proj_lines)

    if rows is not None:
        lines = [_config_line({**resolved, "sweep": thresholds})]
        lines.append("threshold,en,hn,ns,s,delta_en,delta_hn,delta_ns,delta_s")
        for row in rows:
            counts = ",".join(str(row.counts[lv]) for lv in ObjLevel)
            deltas = ",".join(str(row.deltas[lv]) for lv in ObjLevel)
            lines.append(f"{row.threshold},{counts},{deltas}")
        _write_lines(out / "sweep.csv", lines)
    return 0


# --- gamma ------------------------------------------------------------------


def _aligned_sequences(
    film: str, ratings: dict[str, dict[str, ObjLevel]]
) -> dict[str, list[ObjLevel]]:
    """Each annotator's levels in the clip order of the film's first
    annotator; every annotator must rate the same clips."""
    first, *others = ratings
    for other in others:
        if ratings[other].keys() != ratings[first].keys():
            raise PreconditionError(
                f"film {film!r}: annotators {first!r} and {other!r} rate different clips"
            )
    return {a: [levels[clip] for clip in ratings[first]] for a, levels in ratings.items()}


def _read_projections(text: str) -> dict[str, dict[str, dict[str, ObjLevel]]]:
    """Projection JSONL as ``film -> annotator -> clip -> level``, each clip
    once per annotator; ``fuse``'s own lines take the layout path of
    ``jsonl_records``."""
    films: dict[str, dict[str, dict[str, ObjLevel]]] = {}

    def rating(values: Iterable) -> None:
        film, annotator, clip, level = values
        ratings = films.setdefault(film, {}).setdefault(annotator, {})
        if clip in ratings:
            raise MalformedRecord(
                f"second rating of clip {clip!r} by {annotator!r} in film {film!r}"
            )
        ratings[clip] = ObjLevel.from_name(level)

    fields = [("film", str), ("annotator", str), ("clip", str), ("level", str)]
    read_rows(jsonl_records(text, fields, _PROJECTION_LAYOUT), rating)
    return films


def cmd_gamma(args: argparse.Namespace) -> int:
    if args.exclude is not None and not args.exclude.replace(",", " ").strip():
        raise ParseError(f"--exclude needs comma-separated level names, got {args.exclude!r}")
    films = _read_projections(_read_path(args.projections))

    excluded = _parse_levels(args.exclude) if args.exclude else frozenset()
    cfg = GammaConfig(excluded_levels=excluded)
    sequences = {film: _aligned_sequences(film, ratings) for film, ratings in films.items()}
    summary = gamma_per_film_and_average(sequences, cfg)

    resolved = _resolved(args, exclude=sorted(lv.name for lv in excluded))
    del resolved["seed"]  # accepted, but the exact null draws nothing
    lines = [_config_line(resolved), "film,pair,gamma,delta_a,delta_c,n_pairs"]
    for row in summary.per_pair:
        r = row.result
        lines.append(
            f"{row.film_id},{row.annotator_a}|{row.annotator_b},"
            f"{r.gamma:.6f},{r.observed_disorder:.6f},{r.expected_disorder:.6f},{r.n_pairs}"
        )
    lines.append(f"__average__,,{summary.average:.6f},,,")
    _write_lines(Path(args.out) / "gamma.csv", lines)
    return 0


# --- stats ------------------------------------------------------------------


def cmd_stats(args: argparse.Namespace) -> int:
    labels = _read_merged_labels(_read_path(args.labels))
    if not labels:
        raise PreconditionError(f"no labels found in {args.labels}")
    summary = summarize(labels)
    resolved = _resolved(args)
    lines = [_config_line(resolved), "level,concept,count,fraction"]
    for level, concept, count, fraction in summary_rows(summary):
        lines.append(f"{level},{concept},{count},{fraction:.6f}")
    _write_lines(Path(args.out) / "stats.csv", lines)

    doc = {
        "config": resolved,
        "level_fractions": {lv.name: summary.level_fractions[lv] for lv in ObjLevel},
        "mean_concepts_per_level": {
            lv.name: v for lv, v in summary.mean_concepts_per_level.items()
        },
        "fractions_without_ns": {
            lv.name: v
            for lv, v in task_class_fractions(labels, drop={ObjLevel.NS}).items()
        }
        if any(lbl.level is not ObjLevel.NS for lbl in labels)
        else {},
    }
    _write_json(Path(args.out) / "summary.json", doc)
    return 0


# --- cav --------------------------------------------------------------------


def _load_task_inputs(args: argparse.Namespace):
    emb = load_embeddings(_read_path(args.embeddings, binary=True))
    labels = _read_merged_labels(_read_path(args.labels))
    kept = [lbl for lbl in labels if lbl.level is not ObjLevel.NS]
    if not kept:
        raise PreconditionError("no non-NS labels to work with")
    return emb, kept


def cmd_cav(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    emb, labels = _load_task_inputs(args)
    modes = {
        "en-only": [cbm_mod.NegativeMode.EN_ONLY],
        "en-plus-without": [cbm_mod.NegativeMode.EN_PLUS_WITHOUT],
        "both": [cbm_mod.NegativeMode.EN_ONLY, cbm_mod.NegativeMode.EN_PLUS_WITHOUT],
    }[args.mode]
    resolved = _resolved(args, seed=seed)
    out = Path(args.out)
    csv_lines = [_config_line(resolved), "concept,mode,f1"]
    for mode in modes:
        cavs = cbm_mod.fit_all_cavs(emb, labels, mode=mode, seed=seed)
        doc = {"config": resolved, "cavs": [cav.to_json() for cav in cavs]}
        _write_json(out / f"cavs_{mode.value}.json", doc)
        for cav in cavs:
            csv_lines.append(f"{cav.concept.label},{mode.value},{cav.cv_f1:.6f}")
    _write_lines(out / "concept_f1.csv", csv_lines)
    return 0


# --- pcbm ---------------------------------------------------------------------


def _read_cavs(path: str) -> list[cbm_mod.ConceptVector]:
    try:
        return [cbm_mod.ConceptVector.from_json(d) for d in json_object(_read_path(path))["cavs"]]
    except (MalformedRecord, ValueError, KeyError, TypeError, AttributeError, OverflowError) as e:
        raise ParseError(f"{path}: not a concept-vector file ({e})") from None
    except InvariantViolation as e:  # an unknown concept, or a normal not of unit length
        raise InvariantViolation(f"{path}: {e}") from None


def cmd_pcbm(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    emb, labels = _load_task_inputs(args)
    cfg = TaskConfig(ObjLevel.from_name(args.train_neg), ModelKind(f"pcbm-{args.kind}"), seed)
    test_sets = [_parse_levels(args.test_neg)]
    cavs = _read_cavs(args.cavs) if args.cavs else None
    ((report,),) = cbm_mod.train_pcbm(emb, labels, [cfg], test_sets, cavs)
    model = report.models[-1]
    resolved = _resolved(args, seed=seed)
    out = Path(args.out)
    doc = {
        "config": resolved,
        "report": report.to_json(),
        "model": model_to_json(model),
    }
    _write_json(out / "pcbm_report.json", doc)
    if cfg.model is ModelKind.PCBM_DT:
        _write_text(out / "tree.txt", cbm_mod.export_tree_report(model))
    return 0


# --- eval -----------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    emb, labels = _load_task_inputs(args)
    model = ModelKind(args.model)
    # Rows are the train negatives, columns the test negative sets; both
    # rows' settings, test sets, folds and embeddings are checked before anything is fitted.
    configs = [
        TaskConfig(
            train_negatives=train_neg,
            model=model,
            seed=seed,
            mlp_epochs=args.epochs,
            mlp_lr=args.lr,
            mlp_batch=args.batch,
        )
        for train_neg in (ObjLevel.EN, ObjLevel.HN)
    ]
    # Each row is fitted once and scored on both columns.
    if model is ModelKind.MLP:
        reports_by_row = run_task(configs, labels, emb, TEST_NEGATIVE_SETS)
    else:
        reports_by_row = cbm_mod.train_pcbm(emb, labels, configs, TEST_NEGATIVE_SETS)
    rows = {cfg.train_negatives: cells for cfg, cells in zip(configs, reports_by_row)}

    resolved = _resolved(args, seed=seed)
    out = Path(args.out)
    # Reports are listed column by column.
    reports = [r.to_json() for column in zip(*rows.values()) for r in column]
    doc = {"config": resolved, "reports": reports}
    _write_json(out / "eval_report.json", doc)

    lines = [
        _config_line(resolved),
        "model,train_negatives,test_EN_vs_S,test_EN+HN_vs_S",
    ]
    for train_neg, cells in rows.items():
        scores = ",".join(f'"{r.mean_f1:.4f} ({r.std_f1:.4f})"' for r in cells)
        lines.append(f"{args.model},{train_neg.name},{scores}")
    for name in ("random", "all_positive"):
        values = ",".join(f'"{r.baselines[name]:.4f}"' for r in rows[ObjLevel.EN])
        lines.append(f"{name},,{values}")
    _write_lines(out / "eval_table.csv", lines)
    return 0


# --- error ------------------------------------------------------------------


def cmd_error(args: argparse.Namespace) -> int:
    labels = _read_merged_labels(_read_path(args.labels))
    by_clip = {label.clip_id: label for label in labels}

    preds: dict[str, int] = {}
    truths: dict[str, int] = {}

    def prediction(row: list[str]) -> None:
        if row[0].startswith("#"):
            return
        clip_id, *values = (cell.strip() for cell in row)
        if len(values) not in (1, 2):
            raise MalformedRecord("expected clip_id,prediction[,truth]")
        if any(v not in ("0", "1") for v in values):
            raise MalformedRecord("prediction/truth must be 0 or 1")
        if clip_id in preds:
            raise MalformedRecord(f"second prediction for clip {clip_id!r}")
        if preds and (len(values) == 2) != bool(truths):
            raise MalformedRecord("a truth must be given on every row or on none")
        if clip_id not in by_clip:
            raise PreconditionError(f"prediction for unknown clip {clip_id!r}")
        preds[clip_id] = int(values[0])
        if len(values) == 2:
            truths[clip_id] = int(values[1])

    read_rows(csv_rows(_read_path(args.predictions)), prediction)

    ordered = [by_clip[cid] for cid in preds]
    pred_list = [preds[lbl.clip_id] for lbl in ordered]
    truth_list = [truths[lbl.clip_id] for lbl in ordered] if truths else None
    weights = error_factor_analysis(ordered, pred_list, truth_list, l2=args.l2)
    resolved = _resolved(args)
    lines = [_config_line(resolved), "factor,weight"]
    for name in FACTOR_NAMES:
        lines.append(f"{name},{weights.weights[name]:.6f}")
    lines.append(f"__bias__,{weights.bias:.6f}")
    _write_lines(Path(args.out) / "error_factors.csv", lines)
    return 0


# --- argument wiring ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazelab",
        description="Span fusion, agreement, and concept-level evaluation pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, needs_seed: bool) -> None:
        p.add_argument("--out", required=True, help="output directory")
        if needs_seed:
            p.add_argument(
                "--seed", type=int, default=None, help=f"seed (falls back to {SEED_ENV_VAR})"
            )

    p = sub.add_parser("fuse", help="project spans onto clips and merge annotators")
    p.add_argument("annotations", help="annotation JSONL")
    p.add_argument("clips", help="clip index CSV")
    p.add_argument("--threshold", type=float, default=0.2)
    p.add_argument("--basis", choices=("clip", "span"), default="clip")
    p.add_argument("--sweep", default=None, help="comma-separated thresholds to tabulate")
    add_common(p, needs_seed=False)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("gamma", help="inter-annotator agreement on projections")
    p.add_argument("projections", help="projection JSONL from fuse")
    p.add_argument("--exclude", default=None, help="levels to exclude, e.g. NS")
    p.add_argument("--seed", type=int, help="ignored: the exact null needs no seed")
    add_common(p, needs_seed=False)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("stats", help="dataset statistics of merged labels")
    p.add_argument("labels", help="merged JSONL")
    add_common(p, needs_seed=False)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("cav", help="fit one concept vector per concept")
    p.add_argument("embeddings", help="embedding table (binary or CSV)")
    p.add_argument("labels", help="merged JSONL")
    p.add_argument("--mode", choices=("en-only", "en-plus-without", "both"), default="both")
    add_common(p, needs_seed=True)
    p.set_defaults(func=cmd_cav)

    p = sub.add_parser("pcbm", help="interpretable classifier on concept coordinates")
    p.add_argument("embeddings")
    p.add_argument("labels")
    p.add_argument("--kind", choices=("dt", "lr"), required=True)
    p.add_argument("--cavs", default=None, help="reuse a cavs_*.json instead of refitting")
    p.add_argument("--train-neg", default="EN", dest="train_neg")
    p.add_argument("--test-neg", default="EN", dest="test_neg")
    add_common(p, needs_seed=True)
    p.set_defaults(func=cmd_pcbm)

    p = sub.add_parser("eval", help="full train/test negative-composition grid")
    p.add_argument("embeddings")
    p.add_argument("labels")
    p.add_argument(
        "--model",
        choices=tuple(m.value for m in ModelKind),
        default="mlp",
    )
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=32)
    add_common(p, needs_seed=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("error", help="regress classification success on clip factors")
    p.add_argument("labels", help="merged JSONL")
    p.add_argument("predictions", help="CSV clip_id,prediction[,truth]")
    p.add_argument("--l2", type=float, default=1.0)
    add_common(p, needs_seed=False)
    p.set_defaults(func=cmd_error)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(e, cls))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
