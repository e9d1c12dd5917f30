"""Support computation over the corresponding-sensor graph.

"Sensors measuring the same information allow for the calculation of a
support value for outliers.  Hereby, an outlier is more valuable if it is
also found in the supporting sensor at the same time" (Section 1).  The
correspondence structure is a graph: redundant sensors of one machine are
fully connected, and cross-level correspondences (the paper's example: the
room-temperature measurement supporting a chamber-temperature sensor) are
explicit edges too.

Algorithm 1 computes ``support /= Number of Corresponding Sensors`` —
implemented verbatim in :meth:`SupportCalculator.support_for`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..plant import PlantDataset

__all__ = [
    "CorrespondenceGraph",
    "SupportCalculator",
    "SupportResult",
    "window_bounds",
]


def window_bounds(
    time: float, tolerance: float, start: float, step: float, n: int
) -> Tuple[int, int]:
    """Half-open ``[lo, hi)`` sample bounds of ``time ± tolerance`` on a trace.

    The one windowing rule shared by the support loop and the environment
    confirmation: the lower bound *floors* and the upper bound *ceils*
    (plain ``int()`` truncates toward zero, which rounds the lower bound
    **up** for times before the trace start and silently shrinks the
    window).  Degenerate traces — ``step <= 0`` or non-finite, as a
    single-sample or corrupt channel can produce — select the whole trace
    instead of raising :class:`ZeroDivisionError`.
    """
    if n <= 0:
        return 0, 0
    if step <= 0 or not math.isfinite(step):
        return 0, n
    lo = int(math.floor((time - tolerance - start) / step))
    hi = int(math.ceil((time + tolerance - start) / step)) + 1
    return max(0, lo), min(n, hi)


class CorrespondenceGraph:
    """Undirected graph whose edges link corresponding sensors.

    Node ids are sensor ids (phase-level channels) or environment channel
    ids of the form ``"<line_id>/env/<kind>"``.  The graph is a plain
    adjacency dict, node -> neighbour -> relation; a node without edges
    still belongs to the graph.
    """

    #: environment kinds considered to correspond to a sensor kind
    CROSS_LEVEL: Dict[str, Tuple[str, ...]] = {"chamber_temp": ("room_temp",)}

    def __init__(self) -> None:
        self._adj: Dict[str, Dict[str, str]] = {}

    @classmethod
    def from_plant(cls, dataset: PlantDataset) -> "CorrespondenceGraph":
        """Build redundancy-group cliques plus cross-level environment edges."""
        graph = cls()
        for line in dataset.lines:
            env_nodes = {
                kind: f"{line.line_id}/env/{kind}" for kind in line.environment
            }
            for node in env_nodes.values():
                graph._adj.setdefault(node, {})
            for machine in line.machines:
                for group, channels in machine.redundancy_groups().items():
                    ids = [ch.sensor_id for ch in channels]
                    for sid in ids:
                        graph._adj.setdefault(sid, {})
                    for i, a in enumerate(ids):
                        for b in ids[i + 1 :]:
                            graph.add_correspondence(a, b, relation="redundant")
                    sensor_kind = channels[0].spec.kind
                    for env_kind in cls.CROSS_LEVEL.get(sensor_kind, ()):
                        env_node = env_nodes.get(env_kind)
                        if env_node is not None:
                            for sid in ids:
                                graph.add_correspondence(
                                    sid, env_node, relation="cross-level"
                                )
        return graph

    def corresponding(self, sensor_id: str) -> List[str]:
        """All sensors/channels corresponding to the given one."""
        return sorted(self._adj.get(sensor_id, {}))

    def add_correspondence(self, a: str, b: str, relation: str = "manual") -> None:
        """Link ``a`` and ``b``; a repeated edge overwrites its relation and
        a self-loop lists the node as its own neighbour."""
        self._adj.setdefault(a, {})[b] = relation
        self._adj.setdefault(b, {})[a] = relation

    def __contains__(self, node: str) -> bool:
        return node in self._adj


@dataclass(frozen=True)
class SupportResult:
    """Outcome of the Algorithm-1 support loop for one outlier."""

    support: float
    n_corresponding: int
    supporters: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n_corresponding and not 0.0 <= self.support <= 1.0:
            raise ValueError(f"support {self.support} outside [0, 1]")


class SupportCalculator:
    """Counts corresponding sensors that agree with an outlier in time.

    ``score_lookup(channel_id, time) -> (scores, threshold, start, step)``
    supplies the channel's outlierness trace covering ``time`` (or None when
    the channel has no scores there); a corresponding sensor *supports* the
    outlier when its score exceeds its threshold within ``tolerance``
    seconds of the outlier's time.
    """

    def __init__(
        self,
        graph: CorrespondenceGraph,
        score_lookup: Callable[[str, float], Optional[Tuple[np.ndarray, float, float, float]]],
        tolerance: float = 8.0,
        excluded: Iterable[str] = (),
    ) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        self._graph = graph
        self._lookup = score_lookup
        self.tolerance = tolerance
        #: quarantined channels: removed from the divisor entirely, so a
        #: dead sensor no longer votes "no support" against a real fault
        self.excluded = frozenset(excluded)

    def _supports(self, channel_id: str, time: float) -> Optional[bool]:
        entry = self._lookup(channel_id, time)
        if entry is None:
            return None
        scores, threshold, start, step = entry
        n = len(scores)
        if n == 0:
            return None
        lo, hi = window_bounds(time, self.tolerance, start, step, n)
        if hi <= lo:
            return False
        return bool(np.any(scores[lo:hi] >= threshold))

    def support_for(self, sensor_id: str, time: float) -> SupportResult:
        """Algorithm 1's inner loop for one outlier at one sensor."""
        corresponding = self._graph.corresponding(sensor_id)
        supporters: List[str] = []
        counted = 0
        for other in corresponding:
            if other in self.excluded:
                continue  # quarantined: renormalize the divisor without it
            verdict = self._supports(other, time)
            if verdict is None:
                continue  # channel has no scores; it cannot vote
            counted += 1
            if verdict:
                supporters.append(other)
        support = len(supporters) / counted if counted else 0.0
        return SupportResult(
            support=support,
            n_corresponding=counted,
            supporters=tuple(supporters),
        )
