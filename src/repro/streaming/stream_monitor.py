"""Streaming multi-sensor monitor with online support checking.

The streaming counterpart of the batch pipeline's phase level: one online
detector per channel, one shared clock, and the paper's support value
computed *as the data arrives* — a flagged sample is supported by the
fraction of corresponding channels that have themselves flagged within the
tolerance window.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence

from ..core.support import CorrespondenceGraph
from ..obs import Telemetry
from .detectors import OnlineARDetector, _update_many

__all__ = ["StreamEvent", "StreamingSensorMonitor"]


@dataclass(frozen=True)
class StreamEvent:
    """One flagged sample in the stream."""

    channel_id: str
    time: float
    value: float
    score: float
    support: float
    n_corresponding: int

    @property
    def is_measurement_suspect(self) -> bool:
        return self.n_corresponding > 0 and self.support == 0.0

    def describe(self) -> str:
        suspect = " [suspect]" if self.is_measurement_suspect else ""
        return (
            f"t={self.time:8.1f} {self.channel_id:32s} score={self.score:6.1f} "
            f"support={self.support:.2f}/{self.n_corresponding}{suspect}"
        )


@dataclass
class _Channel:
    detector: object
    threshold: float
    recent_flags: Deque[float] = field(default_factory=deque)
    last_seen: float = -math.inf  # last time a *finite* sample arrived
    n_skipped: int = 0  # non-finite samples ignored on this channel


class StreamingSensorMonitor:
    """Feed ``observe(channel, t, value)``; collect :class:`StreamEvent`.

    Parameters
    ----------
    graph:
        Correspondence graph over channel ids (redundant pairs plus
        cross-level edges), as in the batch pipeline.
    detector_factory:
        Zero-argument callable building one online detector per channel
        (default: :class:`OnlineARDetector`); every call must return a new
        detector.
    threshold:
        Score at which a sample is flagged.
    tolerance:
        Time window within which a corresponding channel's flag counts as
        support.
    heartbeat_patience:
        Seconds without a finite sample after which a channel counts as
        *stalled*: it stops voting in the support divisor (renormalized,
        exactly like the batch pipeline's quarantine) and shows up in
        :meth:`stalled_channels`.  ``None`` disables the heartbeat.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` bundle.  When enabled, the
        monitor records sample/event/skip counters, wraps
        :meth:`observe_block` in a span, and emits a WARNING-level
        structured log record (channel id + stream timestamp) the moment
        a channel's heartbeat stalls.
    """

    def __init__(
        self,
        graph: CorrespondenceGraph,
        detector_factory: Optional[Callable[[], object]] = None,
        threshold: float = 6.0,
        tolerance: float = 8.0,
        heartbeat_patience: Optional[float] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        # a NaN compares False with everything: it would never flag, never
        # trim the flag deques, or never stall a channel
        if not (math.isfinite(threshold) and threshold > 0):
            raise ValueError("threshold must be finite and positive")
        if not (math.isfinite(tolerance) and tolerance >= 0):
            raise ValueError("tolerance must be finite and >= 0")
        if heartbeat_patience is not None and not (
            math.isfinite(heartbeat_patience) and heartbeat_patience > 0
        ):
            raise ValueError("heartbeat_patience must be finite and positive")
        self._graph = graph
        self._factory = detector_factory or OnlineARDetector
        self.threshold = threshold
        self.tolerance = tolerance
        self.heartbeat_patience = heartbeat_patience
        self._channels: Dict[str, _Channel] = {}
        self._events: List[StreamEvent] = []
        self._now = -math.inf  # latest timestamp seen on any channel
        # Earliest instant any unreported channel can stall (a lower bound:
        # heartbeats only ever push a channel's deadline later).  observe()
        # skips the stall sweep entirely while now <= this bound, making the
        # heartbeat check O(1) amortized per sample instead of O(channels).
        self._stall_due = math.inf
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(logger_name="streaming")
        )
        self._reported_stalled: set = set()
        m = self.telemetry.metrics
        self._m_samples = m.counter(
            "repro_stream_samples_total", "Samples fed to the streaming monitor."
        )
        self._m_skipped = m.counter(
            "repro_stream_skipped_total", "Non-finite samples ignored."
        )
        self._m_events = m.counter(
            "repro_stream_events_total", "Flagged samples (stream events)."
        )
        self._m_stalls = m.counter(
            "repro_stream_stalls_total", "Channels whose heartbeat stalled."
        )

    # ------------------------------------------------------------------
    def observe(self, channel_id: str, time: float, value: float) -> Optional[StreamEvent]:
        """Process one sample; returns the event if the sample is flagged.

        Non-finite values advance the shared clock and the skip counter but
        neither score nor flag — the sample is treated as missing, and a
        channel that sends only garbage eventually stalls out of the
        support divisor.
        """
        events = self._observe([(channel_id, time, value)])
        return events[0] if events else None

    def observe_block(self, samples: Sequence[tuple]) -> List[StreamEvent]:
        """Feed (channel, time, value) triples in order; returns the events.

        Same events, counters, stall warnings and state as calling
        :meth:`observe` on each sample in turn.
        """
        with self.telemetry.tracer.span(
            "stream.observe_block", n_samples=len(samples)
        ) as sp:
            events = self._observe(samples)
            sp.set(n_events=len(events))
        return events

    def _observe(self, samples: Sequence[tuple]) -> List[StreamEvent]:
        """Score every channel's samples, then replay the bookkeeping.

        Channels are independent until the support lookup, so each one's
        detector first advances over its finite samples in one
        :func:`~repro.streaming.detectors._update_many` call.  A second pass
        in arrival order then does the per-sample clock, heartbeat, flag,
        stall and support work with those scores.
        """
        channels = self._channels
        born: Dict[str, _Channel] = {}  # joins _channels at its first arrival
        finite: Dict[str, List[float]] = {}
        detectors: List[object] = []
        for channel_id, _, value in samples:
            if channel_id not in channels and channel_id not in born:
                born[channel_id] = _Channel(
                    detector=self._factory(), threshold=self.threshold
                )
            if math.isfinite(value):
                values = finite.get(channel_id)
                if values is None:
                    finite[channel_id] = values = []
                    detectors.append((channels.get(channel_id) or born[channel_id]).detector)
                values.append(value)
        scores = dict(zip(finite, map(iter, _update_many(detectors, list(finite.values())))))

        patience = self.heartbeat_patience
        reported = self._reported_stalled
        events: List[StreamEvent] = []
        n_skipped = 0
        for channel_id, time, value in samples:
            state = channels.get(channel_id)
            created = state is None
            if created:
                state = channels[channel_id] = born[channel_id]
            if time > self._now:  # max(now, time) without the call
                self._now = time
            if not math.isfinite(value):
                state.n_skipped += 1
                n_skipped += 1
                if created and patience is not None:
                    # a channel born of garbage has last_seen=-inf: it must
                    # be eligible for the very next stall sweep
                    self._stall_due = min(self._stall_due, state.last_seen + patience)
                if state.recent_flags:
                    self._trim(state, time)
                if self._now > self._stall_due:
                    self._check_stalls()
                continue
            if time > state.last_seen:
                state.last_seen = time
            recovered = channel_id in reported
            if recovered:
                reported.discard(channel_id)  # heartbeat recovered
            if (created or recovered) and patience is not None:
                # (re-)entering the unreported set may pull the earliest
                # deadline forward; existing channels only ever push it back
                self._stall_due = min(self._stall_due, state.last_seen + patience)
            score = next(scores[channel_id])
            flagged = score >= state.threshold
            if flagged:
                state.recent_flags.append(time)
            if state.recent_flags:
                self._trim(state, time)
            if self._now > self._stall_due:
                self._check_stalls()
            if not flagged:
                continue
            support, n_corr = self._support(channel_id, time)
            event = StreamEvent(
                channel_id=channel_id,
                time=time,
                value=value,
                score=score,
                support=support,
                n_corresponding=n_corr,
            )
            self._events.append(event)
            events.append(event)
        # once per call; a zero increment would still create the series
        if len(samples):
            self._m_samples.inc(len(samples))
        if n_skipped:
            self._m_skipped.inc(n_skipped)
        if events:
            self._m_events.inc(len(events))
        return events

    def _check_stalls(self) -> None:
        """Emit one WARNING per channel the moment its heartbeat stalls.

        Amortized O(1) per sample: :meth:`_observe` only calls this sweep
        over the channel table once the shared clock passes ``_stall_due``
        — the earliest deadline any unreported channel can miss — and each
        sweep recomputes the bound exactly.  A channel stalls when
        ``now - last_seen > patience``, i.e. strictly after
        ``last_seen + patience``, so skipping while ``now <= _stall_due``
        never delays a report past the sample that would have raised it.
        """
        if self.heartbeat_patience is None or not self.telemetry.enabled:
            return
        due = math.inf
        for channel_id, state in self._channels.items():
            if channel_id in self._reported_stalled:
                continue
            if self._is_stalled(state, self._now):
                self._reported_stalled.add(channel_id)
                self._m_stalls.inc()
                self.telemetry.warning(
                    f"heartbeat stalled on {channel_id}",
                    channel_id=channel_id,
                    timestamp=self._now,
                    last_seen=state.last_seen,
                    patience=self.heartbeat_patience,
                )
            else:
                due = min(due, state.last_seen + self.heartbeat_patience)
        self._stall_due = due

    # ------------------------------------------------------------------
    def _trim(self, state: _Channel, now: float) -> None:
        horizon = now - 2 * self.tolerance
        while state.recent_flags and state.recent_flags[0] < horizon:
            state.recent_flags.popleft()

    def _support(self, channel_id: str, time: float) -> tuple:
        corresponding = self._graph.corresponding(channel_id)
        counted = 0
        supporters = 0
        for other in corresponding:
            state = self._channels.get(other)
            if state is None:
                continue  # channel never reported; it cannot vote
            if self._is_stalled(state, time):
                continue  # heartbeat expired: renormalize the divisor
            counted += 1
            if any(abs(t - time) <= self.tolerance for t in state.recent_flags):
                supporters += 1
        support = supporters / counted if counted else 0.0
        return support, counted

    def _is_stalled(self, state: _Channel, now: float) -> bool:
        if self.heartbeat_patience is None:
            return False
        return now - state.last_seen > self.heartbeat_patience

    def stalled_channels(self, now: Optional[float] = None) -> List[str]:
        """Channels whose heartbeat has expired at ``now`` (default: the
        latest timestamp observed on any channel), sorted by id."""
        if self.heartbeat_patience is None:
            return []
        at = self._now if now is None else now
        return sorted(
            cid
            for cid, state in self._channels.items()
            if self._is_stalled(state, at)
        )

    def skipped_counts(self) -> Dict[str, int]:
        """Non-finite samples ignored per channel (only nonzero entries)."""
        return {
            cid: state.n_skipped
            for cid, state in sorted(self._channels.items())
            if state.n_skipped
        }

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    #: Version tag of the serialized monitor state below.
    state_format: str = "repro.stream-state/1"

    def state_dict(self) -> Dict[str, object]:
        """Snapshot channel positions, events, and the shared clock.

        Per-channel online-detector state is captured as a deep copy of
        the detector's ``__dict__`` (the online detectors keep their
        running statistics in plain attributes); :meth:`load_state_dict`
        rebuilds each detector through the monitor's factory and
        restores those attributes, so the restored monitor continues the
        stream exactly where the snapshot left it.
        """
        return {
            "format": self.state_format,
            "channels": {
                cid: {
                    "detector_state": copy.deepcopy(state.detector.__dict__),
                    "threshold": state.threshold,
                    "recent_flags": list(state.recent_flags),
                    "last_seen": state.last_seen,
                    "n_skipped": state.n_skipped,
                }
                for cid, state in self._channels.items()
            },
            "events": list(self._events),
            "now": self._now,
            "stall_due": self._stall_due,
            "reported_stalled": sorted(self._reported_stalled),
        }

    def load_state_dict(self, state: Dict[str, object]) -> "StreamingSensorMonitor":
        """Restore monitor state captured by :meth:`state_dict`."""
        if not isinstance(state, dict) or "channels" not in state:
            raise ValueError("malformed streaming-monitor state")
        if state.get("format") != self.state_format:
            raise ValueError(
                f"streaming monitor cannot load state format "
                f"{state.get('format')!r} (expected {self.state_format!r})"
            )
        self._channels = {}
        for cid, entry in state["channels"].items():
            detector = self._factory()
            detector.__dict__.clear()
            detector.__dict__.update(copy.deepcopy(entry["detector_state"]))
            self._channels[cid] = _Channel(
                detector=detector,
                threshold=entry["threshold"],
                recent_flags=deque(entry["recent_flags"]),
                last_seen=entry["last_seen"],
                n_skipped=entry["n_skipped"],
            )
        self._events = list(state["events"])
        self._now = state["now"]
        self._stall_due = state["stall_due"]
        self._reported_stalled = set(state["reported_stalled"])
        return self

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[StreamEvent]:
        return list(self._events)

    def reconsider_support(self) -> List[StreamEvent]:
        """Re-evaluate support of all events post hoc.

        Streaming support is causal — a supporter that flags *after* the
        event is missed online.  This pass recomputes support with full
        hindsight (both directions of the tolerance window), which the
        batch pipeline gets for free.
        """
        # sorted: set iteration is hash-seeded; without it the flags
        # dict's insertion order would vary per process (DET103)
        flags: Mapping[str, List[float]] = {
            cid: [e.time for e in self._events if e.channel_id == cid]
            for cid in sorted({e.channel_id for e in self._events})
        }
        revised: List[StreamEvent] = []
        for event in self._events:
            corresponding = self._graph.corresponding(event.channel_id)
            counted = 0
            supporters = 0
            for other in corresponding:
                if other not in self._channels:
                    continue
                counted += 1
                if any(
                    abs(t - event.time) <= self.tolerance
                    for t in flags.get(other, ())
                ):
                    supporters += 1
            support = supporters / counted if counted else 0.0
            revised.append(
                StreamEvent(
                    channel_id=event.channel_id,
                    time=event.time,
                    value=event.value,
                    score=event.score,
                    support=support,
                    n_corresponding=counted,
                )
            )
        return revised
