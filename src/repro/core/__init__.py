"""Core library: the paper's hierarchical outlier model (Sections 2 and 4).

Public surface:

* :class:`ProductionLevel` — the five Fig.-2 levels;
* :func:`find_hierarchical_outliers` / :func:`calc_global_score` —
  Algorithm 1 over any :class:`HierarchyContext`;
* :class:`HierarchicalDetectionPipeline` — the end-to-end plant pipeline;
* :class:`AlgorithmSelector` — ChooseAlgorithm;
* support, score unification, cross-level fusion, and Fig.-1 outlier-type
  classification;
* :class:`SnapshotStore` / :func:`resume_pipeline` — crash-consistent
  checkpointing and warm restart (DESIGN §11).
"""

from .algorithm import HierarchyContext, calc_global_score, find_hierarchical_outliers
from .checkpoint import (
    SNAPSHOT_SCHEMA,
    SNAPSHOT_VERSION,
    CheckpointManager,
    Snapshot,
    SnapshotError,
    SnapshotStore,
    resume_pipeline,
)
from .explain import explain_report
from .fusion import (
    DEFAULT_LEVEL_WEIGHTS,
    FUSION_STRATEGIES,
    fuse,
    fuse_fisher,
    fuse_max,
    fuse_mean,
    fuse_weighted,
)
from .levels import LEVEL_CONTRACTS, LevelContract, ProductionLevel, contract_for
from .outlier import (
    HierarchicalOutlierReport,
    LevelConfirmation,
    OutlierCandidate,
    rank_reports,
)
from .parallel import (
    EXECUTORS,
    EngineStats,
    ParallelEngine,
    resolve_workers,
)
from .pipeline import (
    HierarchicalDetectionPipeline,
    PipelineConfig,
    PipelineStats,
    PlantHierarchyContext,
)
from .resilience import (
    DetectorSandbox,
    FallbackEvent,
    QualityIssue,
    QualityPolicy,
    QuarantineEvent,
    RunHealth,
    SandboxOutcome,
    SandboxPolicy,
    assess_series,
    clean_rows,
    repair_series,
    robust_fallback_scores,
    robust_matrix_scores,
)
from .scores import unify, unify_gaussian, unify_minmax, unify_rank
from .selection import DEFAULT_PREFERENCES, AlgorithmSelector
from .support import (
    CorrespondenceGraph,
    SupportCalculator,
    SupportResult,
    window_bounds,
)
from .types import TypeClassification, classify_outlier_type, effect_profile

__all__ = [
    "ProductionLevel",
    "LevelContract",
    "LEVEL_CONTRACTS",
    "contract_for",
    "OutlierCandidate",
    "LevelConfirmation",
    "HierarchicalOutlierReport",
    "rank_reports",
    "HierarchyContext",
    "calc_global_score",
    "find_hierarchical_outliers",
    "explain_report",
    "AlgorithmSelector",
    "DEFAULT_PREFERENCES",
    "CorrespondenceGraph",
    "SupportCalculator",
    "SupportResult",
    "window_bounds",
    "unify",
    "unify_rank",
    "unify_gaussian",
    "unify_minmax",
    "fuse",
    "fuse_max",
    "fuse_mean",
    "fuse_weighted",
    "fuse_fisher",
    "FUSION_STRATEGIES",
    "DEFAULT_LEVEL_WEIGHTS",
    "TypeClassification",
    "classify_outlier_type",
    "effect_profile",
    "PipelineConfig",
    "PipelineStats",
    "PlantHierarchyContext",
    "HierarchicalDetectionPipeline",
    "ParallelEngine",
    "EngineStats",
    "EXECUTORS",
    "resolve_workers",
    "RunHealth",
    "FallbackEvent",
    "QuarantineEvent",
    "DetectorSandbox",
    "SandboxPolicy",
    "SandboxOutcome",
    "QualityPolicy",
    "QualityIssue",
    "assess_series",
    "clean_rows",
    "repair_series",
    "robust_fallback_scores",
    "robust_matrix_scores",
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_VERSION",
    "Snapshot",
    "SnapshotError",
    "SnapshotStore",
    "CheckpointManager",
    "resume_pipeline",
]
