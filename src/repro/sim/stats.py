"""Measurement utilities: samples, counters, throughput, breakdowns."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List


class Counter:
    """Named integer counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)


class Samples:
    """A collection of scalar samples with summary statistics."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._values: List[float] = []

    def add(self, value: float) -> None:
        self._values.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self._values.extend(values)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> List[float]:
        return list(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            return math.nan
        return sum(self._values) / len(self._values)

    def percentile(self, p: float) -> float:
        if not self._values:
            return math.nan
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self._values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        a, b = ordered[lo], ordered[hi]
        # Clamped to its two neighbours: the interpolation leaves
        # ``[a, b]`` by underflow for subnormals and by one ulp when
        # ``a == b``.
        return min(max(a * (1 - frac) + b * frac, a), b)


class ThroughputMeter:
    """Accumulates bytes (or ops) over a measurement window."""

    def __init__(self) -> None:
        self._bytes = 0
        self._ops = 0
        self._window_start = 0.0
        self._window_end = 0.0
        self._recording = False

    def start(self, now: float) -> None:
        self._recording = True
        self._window_start = now
        self._bytes = 0
        self._ops = 0

    def stop(self, now: float) -> None:
        self._recording = False
        self._window_end = now

    def record(self, nbytes: int) -> None:
        if self._recording:
            self._bytes += nbytes
            self._ops += 1

    @property
    def recording(self) -> bool:
        """Started and not yet stopped."""
        return self._recording

    @property
    def elapsed_ns(self) -> float:
        return max(0.0, self._window_end - self._window_start)

    @property
    def bytes_total(self) -> int:
        return self._bytes

    @property
    def ops_total(self) -> int:
        return self._ops

    @property
    def gbps(self) -> float:
        """Goodput in GB/s (bytes per ns == GB/s)."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self._bytes / self.elapsed_ns

    def absorb(self, other: "ThroughputMeter") -> None:
        """Fold another (stopped) meter's measurements into this one:
        totals add, and the window becomes the union of both windows —
        exact when the meters shared a measurement window, as parallel
        readers metered by one process do."""
        self._bytes += other._bytes
        self._ops += other._ops
        if other._window_end > other._window_start:
            if self._window_end <= self._window_start:
                self._window_start = other._window_start
                self._window_end = other._window_end
            else:
                self._window_start = min(self._window_start, other._window_start)
                self._window_end = max(self._window_end, other._window_end)


def meter_window(sim, meters, warmup_ns: float, t_end: float):
    """Process body: start every meter in ``meters`` at the end of
    warm-up and stop it at ``t_end`` (reached as two delays, so the
    stop instant is ``(now + warmup_ns) + (t_end - warmup_ns)``)."""
    yield warmup_ns
    for meter in meters:
        meter.start(sim.now)
    yield t_end - warmup_ns
    for meter in meters:
        meter.stop(sim.now)


class ReadStats:
    """What a read protocol records about the reads of one reader (or
    one reader's view of one shard): every
    :class:`~repro.objstore.protocols.ReadProtocol` writes these seven
    and nothing else."""

    def __init__(self) -> None:
        self.op_latency = Samples("op_latency_ns")
        self.transfer_latency = Samples("transfer_latency_ns")
        self.meter = ThroughputMeter()
        self.sabre_aborts = 0
        self.software_conflicts = 0
        self.retries = 0
        self.undetected_violations = 0


class Breakdown:
    """Accumulates named latency components across operations, for the
    paper's stacked-bar figures (Figs. 1 and 9a)."""

    def __init__(self, components: Iterable[str]):
        self.components = list(components)
        self._samples: Dict[str, Samples] = {
            c: Samples(c) for c in self.components
        }

    def add(self, component: str, value: float) -> None:
        if component not in self._samples:
            raise KeyError(f"unknown component {component!r}")
        self._samples[component].add(value)

    def add_op(self, **values: float) -> None:
        for name, value in values.items():
            self.add(name, value)

    def means(self) -> Dict[str, float]:
        return {c: self._samples[c].mean for c in self.components}
