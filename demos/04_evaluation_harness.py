#!/usr/bin/env python3
"""End-to-end evaluation: the task grid, an interpretable head, errors.

On synthetic embeddings where a single direction decides the rating,
the demo fits the MLP head once per train row and scores it on both
test negative sets (the four cells of the task grid), trains a
concept-coordinate decision tree and renders it, and closes with the error-factor regression on predictions that fail
exactly on the hard negatives.
"""

import sys
from pathlib import Path

from gazelab import (
    TEST_NEGATIVE_SETS,
    ModelKind,
    NegativeMode,
    ObjLevel,
    TaskConfig,
    error_factor_analysis,
    export_tree_report,
    fit_all_cavs,
    run_task,
    score_table,
    train_pcbm,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from synthfix import make_compositional, make_error_fixture, make_linear_task  # noqa: E402


def main():
    labels, feats = make_linear_task(0, n=600)

    print("== task grid, MLP head (mean F1 over balanced draws) ==")
    corner = "train \\ test"
    print(f"  {corner:14s} {'EN vs S':>10s} {'EN+HN vs S':>12s}")
    for train_neg in (ObjLevel.EN, ObjLevel.HN):
        cfg = TaskConfig(
            train_negatives=train_neg, model=ModelKind.MLP, seed=3, mlp_epochs=120, mlp_lr=2e-2
        )
        reports = run_task(cfg, labels, feats, TEST_NEGATIVE_SETS)
        cells = [f"{r.mean_f1:.3f}({r.std_f1:.3f})" for r in reports]
        print(f"  {train_neg.name + ' vs S':14s} {cells[0]:>10s} {cells[1]:>12s}")
    print(f"  baselines for the EN test: {reports[0].baselines}")
    print()

    print("== interpretable head on concept coordinates ==")
    comp_labels, comp_emb = make_compositional(seed=1, n=240, dim=16)
    cavs = fit_all_cavs(comp_emb, comp_labels, mode=NegativeMode.EN_ONLY, seed=7)
    scores = score_table(comp_emb, cavs)
    result = train_pcbm(scores, comp_labels, ModelKind.PCBM_DT, seed=9)
    print(f"  tree F1 on the held-out fold: {result.report.mean_f1:.3f}")
    print("  first levels of the fitted tree:")
    for line in export_tree_report(result.model).splitlines()[:8]:
        print("   ", line)
    print()

    print("== error factors when the model fails exactly on hard negatives ==")
    err_labels, err_preds = make_error_fixture(0)
    weights = error_factor_analysis(err_labels, err_preds, l2=1.0).weights
    for name in ("S", "HN", "EN"):
        sign = "helps" if weights[name] > 0 else "hurts"
        print(f"  {name:2s}: {weights[name]:+.3f}  ({sign} classification)")


if __name__ == "__main__":
    main()
