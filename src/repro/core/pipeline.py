"""End-to-end hierarchical detection over a simulated plant run.

One decision lives here: what a run is configured with and what it
exposes.  :class:`HierarchicalDetectionPipeline` has the per-level
detectors score the plant (:mod:`repro.core.tasks`, run by
:mod:`repro.core.runner`) and Algorithm 1 turn phase-level candidates into
ranked ⟨global score, outlierness, support⟩ reports over the
:class:`PlantHierarchyContext` (:mod:`repro.core.context`).  Snapshots
pickle classes by module path, so ``PipelineStats`` and ``_Trace`` stay
importable here for snapshots written before they moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..obs import Telemetry
from ..plant import JobRecord, PlantDataset
from .algorithm import find_hierarchical_outliers
from .context import STATS_SCHEMA, PipelineStats, PlantHierarchyContext
from .levels import ProductionLevel
from .outlier import HierarchicalOutlierReport, rank_reports
from .parallel import EXECUTORS
from .resilience import QualityPolicy, RunHealth, SandboxPolicy
from .scores import unify_rank
from .selection import AlgorithmSelector
from .tasks import _Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .checkpoint import CheckpointManager

__all__ = [
    "PipelineConfig",
    "PipelineStats",
    "PlantHierarchyContext",
    "HierarchicalDetectionPipeline",
    "STATS_SCHEMA",
    "_Trace",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs of the plant pipeline (all robust-scale units)."""

    phase_sigma: float = 6.0  # MAD multiplier flagging phase-trace samples
    env_sigma: float = 5.0
    vector_sigma: float = 2.0  # job / line / production flags
    support_tolerance: float = 8.0
    fusion_strategy: str = "weighted"
    max_candidates_per_trace: int = 3
    candidate_gap: int = 3  # samples merging consecutive flagged runs
    line_history: int = 5  # jobs of temporal context at the line level
    enable_telemetry: bool = True  # spans + metrics + structured logs
    quality: QualityPolicy = QualityPolicy()  # gate thresholds
    sandbox: SandboxPolicy = SandboxPolicy()  # detector budget/retry policy
    executor: str = "serial"  # cold-build scoring DAG executor; refreshes run inline
    max_workers: Optional[int] = None  # pool size; None = auto from CPU affinity
    checkpoint_dir: Optional[str] = None  # snapshot store directory; None = off
    checkpoint_every: int = 1  # snapshot after every Nth refresh()
    checkpoint_retain: int = 3  # snapshot files kept on disk
    perf_alloc: bool = False  # per-task tracemalloc peak capture (slow; opt-in)

    def __post_init__(self) -> None:
        # each rejected value would switch detection off without a word:
        # a NaN/inf sigma flags nothing, < 1 candidates per trace report none
        for name in ("phase_sigma", "env_sigma", "vector_sigma"):
            sigma = getattr(self, name)
            if not math.isfinite(sigma) or sigma <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {sigma}")
        if not math.isfinite(self.support_tolerance) or self.support_tolerance < 0:
            raise ValueError(
                "support_tolerance must be finite and >= 0, "
                f"got {self.support_tolerance}"
            )
        if self.max_candidates_per_trace < 1:
            raise ValueError(
                "max_candidates_per_trace must be >= 1, "
                f"got {self.max_candidates_per_trace}"
            )
        for name in ("candidate_gap", "line_history"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # the engine would reject these only at the first cold build, and a
        # serial run would never look at max_workers at all
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")


class HierarchicalDetectionPipeline:
    """Public facade: simulate-once, then query hierarchical reports."""

    def __init__(
        self,
        dataset: PlantDataset,
        selector: Optional[AlgorithmSelector] = None,
        config: Optional[PipelineConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.dataset = dataset
        self.config = config or PipelineConfig()
        self.context = PlantHierarchyContext(
            dataset, selector, self.config, telemetry=telemetry
        )
        self.telemetry = self.context.telemetry
        self.checkpoint = self._build_checkpoint_manager()
        if self.checkpoint is not None:
            self.checkpoint.snapshot(trigger="build")

    def _build_checkpoint_manager(self) -> Optional["CheckpointManager"]:
        """Bind a :class:`~repro.core.checkpoint.CheckpointManager` when
        ``config.checkpoint_dir`` is set (imported lazily: the checkpoint
        module depends on this one)."""
        if self.config.checkpoint_dir is None:
            return None
        from .checkpoint import CheckpointManager, SnapshotStore

        return CheckpointManager(
            pipeline=self,
            store=SnapshotStore(
                self.config.checkpoint_dir,
                retain=self.config.checkpoint_retain,
                telemetry=self.telemetry,
            ),
            every=max(1, self.config.checkpoint_every),
        )

    @classmethod
    def _resumed(
        cls,
        dataset: PlantDataset,
        sections: Dict[str, object],
        selector: Optional[AlgorithmSelector] = None,
        config: Optional[PipelineConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> "HierarchicalDetectionPipeline":
        """Build a pipeline around a snapshot-restored context.

        Used by :func:`repro.core.checkpoint.resume_pipeline`; never runs
        the cold build and never writes a snapshot of its own until the
        first post-restore refresh.
        """
        self = cls.__new__(cls)
        self.dataset = dataset
        self.config = config or PipelineConfig()
        self.context = PlantHierarchyContext._from_snapshot_state(
            dataset, sections, selector, self.config, telemetry=telemetry
        )
        self.telemetry = self.context.telemetry
        self.checkpoint = self._build_checkpoint_manager()
        return self

    def run(
        self,
        start_level: ProductionLevel = ProductionLevel.PHASE,
        fusion_strategy: Optional[str] = None,
        unify_method: str = "rank",
    ) -> List[HierarchicalOutlierReport]:
        """Algorithm 1 from ``start_level``, reports ranked best-first.

        ``unify_method`` controls how the start-level outlierness batch is
        mapped to [0, 1] (``"rank"`` by default — note this differs from
        the ``"gaussian"`` default of the low-level ``unify()`` helper).
        Repeated calls reuse the context's confirmation/support caches;
        see :meth:`stats`.
        """
        fusion = fusion_strategy or self.config.fusion_strategy
        with self.telemetry.tracer.span(
            "alg1.run",
            start_level=start_level.name,
            fusion=fusion,
            unify=unify_method,
        ) as sp:
            reports = find_hierarchical_outliers(
                self.context,
                start_level,
                fusion_strategy=fusion,
                unify_method=unify_method,
            )
            ranked = rank_reports(reports)
            sp.set(n_reports=len(ranked))
        self._publish_run_metrics(start_level, ranked)
        return ranked

    def _publish_run_metrics(
        self,
        start_level: ProductionLevel,
        reports: List[HierarchicalOutlierReport],
    ) -> None:
        m = self.telemetry.metrics
        m.counter(
            "repro_runs_total", "Algorithm-1 runs executed.",
            labelnames=("start_level",),
        ).inc(start_level=start_level.name)
        m.counter(
            "repro_reports_total", "Hierarchical outlier reports emitted.",
        ).inc(len(reports))
        warnings_total = m.counter(
            "repro_measurement_warnings_total",
            "Reports carrying the wrong-measurement warning.",
        )
        confirmed = m.counter(
            "repro_confirmed_levels_total",
            "Level confirmations attached to emitted reports, by outcome.",
            labelnames=("level", "detected"),
        )
        for report in reports:
            if report.measurement_warning:
                warnings_total.inc()
            for conf in report.confirmations:
                confirmed.inc(
                    level=conf.level.name,
                    detected=str(bool(conf.detected)).lower(),
                )
        self.context.publish_stats()

    def ingest_job(self, machine_id: str, job: JobRecord) -> Dict[str, object]:
        """Ingest one arriving job and incrementally refresh the context.

        Routes the mutation through
        :meth:`~repro.plant.PlantDataset.ingest_job` (the one sanctioned
        mutation path) and immediately consumes the dirty set with
        :meth:`PlantHierarchyContext.refresh`, re-scoring only the job's
        task-DAG closure.  The next :meth:`run` produces reports
        byte-identical to a cold pipeline built on the mutated dataset,
        on every executor.  Returns the refresh summary dict.
        """
        self.dataset.ingest_job(machine_id, job)
        return self.refresh()

    def refresh(self) -> Dict[str, object]:
        """Consume pending dataset ingests via an incremental refresh.

        When checkpointing is enabled, every ``checkpoint_every``-th
        non-empty refresh is followed by a snapshot — the crash-recovery
        point the chaos harness SIGKILLs at.
        """
        summary = self.context.refresh()
        if self.checkpoint is not None and summary.get("dirty_jobs"):
            self.checkpoint.after_refresh()
        return summary

    @property
    def health(self) -> RunHealth:
        """Structured degradation record of the run (fallbacks, quarantines)."""
        return self.context.health

    def stats(self) -> Dict[str, object]:
        """The unified nested stats dict (see :data:`STATS_SCHEMA`)."""
        return self.context.stats()

    def flat_baseline(self) -> List[HierarchicalOutlierReport]:
        """Single-level baseline: phase candidates ranked by outlierness only.

        Reports carry global score 1 and neutral support, exactly what a
        non-hierarchical detector could know.
        """
        candidates = self.context.find_candidates(ProductionLevel.PHASE)
        if not candidates:
            return []
        unified = unify_rank([c.outlierness for c in candidates])
        reports = [
            HierarchicalOutlierReport(
                candidate=c,
                global_score=1,
                outlierness=float(u),
                support=0.0,
                n_corresponding=0,
                fused_score=float(u),
            )
            for c, u in zip(candidates, unified)
        ]
        return sorted(reports, key=lambda r: r.outlierness, reverse=True)
