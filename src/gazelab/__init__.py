"""Toolkit for multi-annotator film clip annotation studies.

The pipeline, end to end: parse span annotations and clip
delimitations, project and merge timelines onto the clip grid, check
annotator consistency with a chance-corrected agreement score,
summarize the dataset, then probe what pre-extracted clip embeddings
capture: one linear concept axis per annotated concept, an
interpretable classifier on the concept coordinates, a fold harness
with balanced draws and trivial baselines, and a regression that
attributes classification errors to clip factors.

Output bytes are defined at one BLAS thread (README, Determinism), so
importing the package sets the BLAS thread variables to 1 unless the
caller set them; this must run before numpy is first imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .agreement import (
    GammaConfig,
    GammaResult,
    GammaSummary,
    expected_disorder,
    gamma,
    gamma_per_film_and_average,
    level_distance,
    observed_disorder,
)
from .cbm import (
    CavCvConfig,
    ConceptVector,
    NegativeMode,
    build_concept_sets,
    concept_presence_f1,
    export_tree_report,
    fit_all_cavs,
    fit_cav,
    score_table,
    train_pcbm,
)
from .core import (
    CONCEPTS,
    ClipDelimitation,
    ClipLabel,
    Concept,
    EmbeddingTable,
    ObjLevel,
    SpanAnnotation,
    dump_embeddings,
    load_embeddings,
    parse_annotations,
    parse_clip_index,
)
from .fusion import (
    OverlapBasis,
    ProjectionConfig,
    SweepRow,
    fuse,
    fuse_and_sweep,
    merge,
    overlap_fraction,
    project,
    sweep_thresholds,
)
from .harness import (
    TEST_NEGATIVE_SETS,
    EvalReport,
    FactorWeights,
    FoldPlan,
    ModelKind,
    TaskConfig,
    balanced_train_sets,
    error_factor_analysis,
    fold_plan,
    make_folds_from_ids,
    plan_task,
    run_task,
)
from .models import (
    DecisionTree,
    LinearKind,
    LinearModel,
    Metrics,
    MlpModel,
    f1,
    init_mlp,
    mlp_gradient,
    model_to_json,
    train_logreg,
    train_mlp,
    train_svm,
    train_svm_stack,
    train_tree,
    trivial_baseline_f1,
)
from .stats import (
    AnnotatorTrend,
    DatasetSummary,
    per_annotator_trend,
    summarize,
    task_class_fractions,
)

__version__ = "0.1.0"
