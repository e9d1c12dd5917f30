"""Ground-truth fault events for the simulated plant.

Two physical fault classes matter to Algorithm 1:

* a **process fault** changes the physical process, so *every*
  corresponding (redundant) sensor observes it, the job's CAQ quality
  degrades, and the outlier should be confirmed up the hierarchy;
* a **sensor fault** (measurement error) corrupts one sensor's reading
  only — no redundant confirmation (support ≈ 0), no quality effect, and
  downward non-confirmation triggers the algorithm's measurement-error
  warning.

A third class, the **setup anomaly**, perturbs the job's setup parameters
(a production-line-level outlier over jobs-over-time).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..synthetic import OutlierType

__all__ = ["FaultKind", "FaultEvent"]


class FaultKind(enum.Enum):
    PROCESS = "process"
    SENSOR = "sensor"
    SETUP = "setup"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FaultEvent:
    """One injected ground-truth anomaly in the plant dataset.

    ``sensor_id`` is set for sensor faults only; process faults name the
    affected ``redundancy_group`` instead.  ``onset`` is the sample index
    within the phase (ignored for setup anomalies).
    """

    kind: FaultKind
    machine_id: str
    job_index: int
    phase_name: str = ""
    redundancy_group: str = ""
    sensor_id: Optional[str] = None
    onset: int = 0
    outlier_type: Optional[OutlierType] = None
    magnitude: float = 0.0

    def describe(self) -> str:
        """Human-readable one-line summary for reports."""
        where = self.sensor_id or self.redundancy_group or "setup"
        otype = self.outlier_type.value if self.outlier_type else "-"
        return (
            f"{self.kind.value:7s} machine={self.machine_id} job={self.job_index} "
            f"phase={self.phase_name or '-':11s} at={where} type={otype} "
            f"magnitude={self.magnitude:+.1f}"
        )
