"""Prometheus-text-format metrics for the serving gateway.

A tiny, dependency-free exposition layer: counters, gauges, and
histograms keyed by ``(name, sorted label items)``, rendered in the
`text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ that
every scraper understands.

Two properties matter more than generality:

* **Determinism** — the render order is sorted by metric name then
  label key, values never depend on wall-clock time, and any metric
  that *does* (process uptime, wall-QPS) must be registered
  ``volatile=True`` so :meth:`MetricsRegistry.render` can exclude it.
  This is what makes "same seed + same arrival trace => byte-identical
  metrics snapshot" testable: the virtual-time replay renders with
  ``include_volatile=False`` and compares strings.
* **Collectors** — the per-shard cluster stats already live on
  :class:`~repro.objstore.sharded.ShardedKV`; re-counting them would
  drift.  A *collector* is a callable returning fresh samples at
  scrape time, so ``/metrics`` always reflects the cluster's own
  counters.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigError
from repro.sim.stats import Samples

#: Default latency buckets (nanoseconds of *virtual* time): the
#: simulated cluster serves reads in ~1-10 us, transactions in tens of
#: us, so the ladder spans 1 us to 10 ms plus +Inf.
DEFAULT_LATENCY_BUCKETS_NS: Tuple[float, ...] = (
    1e3,
    2e3,
    5e3,
    1e4,
    2e4,
    5e4,
    1e5,
    2e5,
    5e5,
    1e6,
    2e6,
    5e6,
    1e7,
)

#: Quantiles exported for summary-style metrics.
SUMMARY_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(items: LabelItems) -> str:
    if not items:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in items)
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    """Stable number formatting: integers without a trailing ``.0``,
    floats with ``repr`` (shortest round-trip — deterministic across
    runs and platforms for the same double)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing sample family."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, volatile: bool = False):
        self.name = name
        self.help = help_text
        self.volatile = volatile
        self._series: Dict[LabelItems, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ConfigError(f"counter {self.name} cannot decrease")
        key = _label_items(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def samples(self) -> List[Tuple[str, LabelItems, float]]:
        return [(self.name, k, v) for k, v in self._series.items()]


class Gauge(Counter):
    """A sample family that can go up and down (or be set)."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self._series[_label_items(labels)] = value

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_items(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)


class Histogram:
    """Cumulative-bucket histogram plus exact-quantile summary lines.

    Prometheus histograms are lossy by design (fixed buckets); the
    load-test story also wants exact p50/p95/p99.  Both come from the
    same ``observe`` stream: buckets for ``_bucket``/``_sum``/
    ``_count``, the retained values for ``{quantile="..."}`` lines
    (rendered under ``<name>_q``), all of one label set from one
    :meth:`repro.sim.stats.Samples.percentiles` sort per scrape.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_NS,
        volatile: bool = False,
    ):
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ConfigError(f"histogram {name} needs >= 1 bucket bound")
        self.name = name
        self.help = help_text
        self.volatile = volatile
        self.bounds = bounds
        self._counts: Dict[LabelItems, List[int]] = {}
        self._sums: Dict[LabelItems, float] = {}
        self._values: Dict[LabelItems, Samples] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_items(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = self._counts[key] = [0] * (len(self.bounds) + 1)
            self._sums[key] = 0.0
            self._values[key] = Samples()
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
        self._sums[key] += value
        self._values[key].add(value)

    def quantiles(self, **labels: str) -> List[float]:
        """The ``SUMMARY_QUANTILES`` of one label set, from one sort of
        its values (NaN each when it has none)."""
        values = self._values.get(_label_items(labels))
        if values is None:
            return [math.nan] * len(SUMMARY_QUANTILES)
        return values.percentiles([q * 100.0 for q in SUMMARY_QUANTILES])

    def render(self) -> List[str]:
        lines: List[str] = []
        for key in sorted(self._counts):
            counts = self._counts[key]
            cumulative = 0
            for bound, n in zip(self.bounds, counts):
                cumulative += n
                items = key + (("le", _fmt(bound)),)
                lines.append(
                    f"{self.name}_bucket{_render_labels(items)} {cumulative}"
                )
            cumulative += counts[-1]
            items = key + (("le", "+Inf"),)
            lines.append(
                f"{self.name}_bucket{_render_labels(items)} {cumulative}"
            )
            lines.append(
                f"{self.name}_sum{_render_labels(key)} "
                f"{_fmt(self._sums[key])}"
            )
            lines.append(f"{self.name}_count{_render_labels(key)} {cumulative}")
            for q, value in zip(SUMMARY_QUANTILES, self.quantiles(**dict(key))):
                if math.isnan(value):
                    continue
                items = key + (("quantile", _fmt(q)),)
                lines.append(
                    f"{self.name}_q{_render_labels(items)} {_fmt(value)}"
                )
        return lines


#: One collector sample: ``(name, kind, help, labels, value)``.
CollectorSample = Tuple[str, str, str, Mapping[str, str], float]
Collector = Callable[[], Iterable[CollectorSample]]


class MetricsRegistry:
    """Holds every metric family and renders the exposition text."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._collectors: List[Collector] = []

    def _add(self, metric):
        if metric.name in self._metrics:
            raise ConfigError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help_text: str, volatile: bool = False
    ) -> Counter:
        return self._add(Counter(name, help_text, volatile=volatile))

    def gauge(self, name: str, help_text: str, volatile: bool = False) -> Gauge:
        return self._add(Gauge(name, help_text, volatile=volatile))

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_NS,
        volatile: bool = False,
    ) -> Histogram:
        return self._add(Histogram(name, help_text, buckets, volatile=volatile))

    def add_collector(self, collector: Collector) -> None:
        """Register a scrape-time sample source (e.g. the cluster's
        per-shard counters).  Collector samples are assumed
        deterministic; wall-clock data belongs in ``volatile`` metrics."""
        self._collectors.append(collector)

    def render(self, include_volatile: bool = True) -> str:
        """The full exposition text, deterministically ordered.

        ``include_volatile=False`` drops every metric registered as
        wall-clock-dependent — the mode the determinism tests and the
        drain artifact use."""
        blocks: Dict[str, List[str]] = {}
        for name in self._metrics:
            metric = self._metrics[name]
            if metric.volatile and not include_volatile:
                continue
            lines = [
                f"# HELP {metric.name} {metric.help}",
                f"# TYPE {metric.name} {metric.kind}",
            ]
            if isinstance(metric, Histogram):
                lines.extend(metric.render())
            else:
                for mname, items, value in sorted(metric.samples()):
                    lines.append(
                        f"{mname}{_render_labels(items)} {_fmt(value)}"
                    )
            blocks[metric.name] = lines
        collected: Dict[str, List[str]] = {}
        kinds: Dict[str, Tuple[str, str]] = {}
        for collector in self._collectors:
            for name, kind, help_text, labels, value in collector():
                kinds.setdefault(name, (kind, help_text))
                collected.setdefault(name, []).append(
                    f"{name}{_render_labels(_label_items(labels))} "
                    f"{_fmt(value)}"
                )
        for name in collected:
            kind, help_text = kinds[name]
            blocks[name] = [
                f"# HELP {name} {help_text}",
                f"# TYPE {name} {kind}",
                *sorted(collected[name]),
            ]
        out: List[str] = []
        for name in sorted(blocks):
            out.extend(blocks[name])
        return "\n".join(out) + "\n"


def parse_samples(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{'name{labels}': value}`` —
    what the CI smoke job and the tests use to assert on a scrape."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        try:
            out[series] = float(value)
        except ValueError:
            continue
    return out
