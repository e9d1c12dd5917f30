"""In-process metrics registry: counters, gauges, fixed-bucket histograms.

The quantitative half of the observability layer (spans answer *where
time went*, metrics answer *how much / how often*): detector latency,
candidates found and confirmed per level, the support distribution,
quarantine/fallback counts folded in from ``RunHealth``, and cache hit
ratios folded in from ``PipelineStats``.

Everything is stdlib-only and deterministic: values live in plain dicts
keyed by sorted label tuples, and :meth:`MetricsRegistry.collect`
returns metrics and label sets in sorted order, so the exported text is
a pure function of the recorded values.  A disabled registry hands out
shared no-op instruments, keeping default-on telemetry's disabled path
at effectively zero cost.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Type

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "UNIT_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Detector-call latency buckets (seconds): sub-millisecond numpy kernels
#: up to sandbox time budgets.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Buckets for quantities living in [0, 1] (support, hit ratios).
UNIT_BUCKETS: Tuple[float, ...] = (
    0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labelnames: Tuple[str, ...], labels: Dict[str, object]) -> LabelKey:
    try:
        key = tuple((name, str(labels[name])) for name in labelnames)
    except KeyError:
        raise ValueError(
            f"labels {sorted(labels)} do not match declared {sorted(labelnames)}"
        ) from None
    if len(labels) != len(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared {sorted(labelnames)}"
        )
    return key


class _Metric:
    """Shared bookkeeping of the three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label) or label == "le":
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames: Tuple[str, ...] = tuple(labelnames)

    def _check(self, value: float) -> float:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{self.name}: non-finite value {value!r}")
        return value


class Counter(_Metric):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        amount = self._check(amount)
        if amount < 0:
            raise ValueError(f"{self.name}: counters cannot decrease")
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(self.labelnames, labels), 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Gauge(_Metric):
    """A value that can go up and down (or be set outright)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[_label_key(self.labelnames, labels)] = self._check(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(self.labelnames, labels)
        self._values[key] = self._values.get(key, 0.0) + self._check(amount)

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(self.labelnames, labels), 0.0)

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted(self._values.items())


class Histogram(_Metric):
    """Fixed-bucket histogram (cumulative buckets + sum + count).

    ``buckets`` are the inclusive upper bounds, strictly increasing; the
    implicit ``+Inf`` bucket is always present.  Observations are binned
    at record time, so export cost is independent of sample count.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ) or not all(math.isfinite(b) for b in bounds):
            raise ValueError("buckets must be finite and strictly increasing")
        self.buckets = bounds
        # per labelset: [per-bucket counts..., +Inf count], sum
        self._counts: Dict[LabelKey, List[int]] = {}
        self._sums: Dict[LabelKey, float] = {}

    def observe(self, value: float, **labels: object) -> None:
        value = self._check(value)
        key = _label_key(self.labelnames, labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
            self._counts[key] = counts
            self._sums[key] = 0.0
        # first bucket with bound >= value (le is inclusive); past-the-end
        # lands in the implicit +Inf slot
        counts[bisect_left(self.buckets, value)] += 1
        self._sums[key] += value

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        """Record a batch of observations with one label resolution.

        Bulk twin of :meth:`observe` for deferred recording: the label
        key, bucket list, and finiteness checks are paid once per batch
        instead of once per sample.

        The batch is all-or-nothing: every value is validated and binned
        before any state mutates, so a non-finite value mid-batch raises
        without leaving bucket counts and ``_sum`` inconsistent.
        """
        buckets = self.buckets
        binned: List[int] = []
        total = 0.0
        for value in values:
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"{self.name}: non-finite value {value!r}")
            binned.append(bisect_left(buckets, value))
            total += value
        key = _label_key(self.labelnames, labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = [0] * (len(buckets) + 1)
            self._counts[key] = counts
            self._sums[key] = 0.0
        for slot in binned:
            counts[slot] += 1
        self._sums[key] += total

    def count(self, **labels: object) -> int:
        key = _label_key(self.labelnames, labels)
        return sum(self._counts.get(key, ()))

    def sum(self, **labels: object) -> float:
        return self._sums.get(_label_key(self.labelnames, labels), 0.0)

    def cumulative(self, **labels: object) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending at ``+Inf``."""
        key = _label_key(self.labelnames, labels)
        counts = self._counts.get(key, [0] * (len(self.buckets) + 1))
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def samples(self) -> List[Tuple[LabelKey, float]]:
        return sorted((k, float(sum(c))) for k, c in self._counts.items())

    def labelsets(self) -> List[LabelKey]:
        return sorted(self._counts)


class _NullInstrument:
    """No-op counter/gauge/histogram handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    def set(self, value: float, **labels: object) -> None:
        pass

    def observe(self, value: float, **labels: object) -> None:
        pass

    def observe_many(self, values: Iterable[float], **labels: object) -> None:
        pass

    def value(self, **labels: object) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Create-or-get instrument factory plus the collection surface.

    Re-registering a name returns the existing instrument when kind and
    label names match, and raises otherwise — the same family cannot
    change shape mid-run.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(
        self, cls: Type[_Metric], name: str, help: str, **kwargs: Any
    ) -> Any:
        if not self.enabled:
            return _NULL_INSTRUMENT
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(
                kwargs.get("labelnames", ())
            ):
                raise ValueError(
                    f"metric {name!r} already registered with a different shape"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames=tuple(labelnames))

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames=tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, buckets=tuple(buckets), labelnames=tuple(labelnames)
        )

    # -- collection -----------------------------------------------------
    def collect(self) -> List[_Metric]:
        """All registered metrics, sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe nested snapshot of every metric."""
        out: Dict[str, object] = {}
        for metric in self.collect():
            entry: Dict[str, object] = {
                "kind": metric.kind,
                "help": metric.help,
            }
            if isinstance(metric, Histogram):
                series = []
                for key in metric.labelsets():
                    labels = dict(key)
                    series.append(
                        {
                            "labels": labels,
                            "count": metric.count(**labels),
                            "sum": metric.sum(**labels),
                            "buckets": [
                                {"le": "+Inf" if math.isinf(b) else b, "count": n}
                                for b, n in metric.cumulative(**labels)
                            ],
                        }
                    )
                entry["series"] = series
            else:
                entry["series"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in metric.samples()
                ]
            out[metric.name] = entry
        return out

    def import_nested(self, prefix: str, tree: Dict[str, object]) -> None:
        """Fold a nested counter dict (e.g. ``pipeline.stats()``) into gauges.

        Leaves become ``<prefix>_<path>`` gauges with one underscore-joined
        gauge per numeric/bool leaf; non-numeric leaves are skipped.
        """
        if self.enabled:
            self._import_node((prefix,), tree)

    def _import_node(self, path: Tuple[str, ...], node: Dict[str, object]) -> None:
        # a method, not a recursive closure: a closure that calls itself is
        # a reference cycle that would pin this registry until the cyclic GC
        for key in sorted(node):
            value = node[key]
            if isinstance(value, dict):
                self._import_node(path + (str(key),), value)
            elif isinstance(value, bool):
                self.gauge("_".join(path + (str(key),))).set(1.0 if value else 0.0)
            elif isinstance(value, (int, float)):
                self.gauge("_".join(path + (str(key),))).set(float(value))
