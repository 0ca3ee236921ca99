"""Composable fault schedules beyond clean crash/recover.

:class:`~repro.objstore.failover.FailurePlan` models the one fault
rack-scale papers always model — a shard dies, a backup is promoted.
Real deployments mostly fail *around* that: a shard answers but 10x
slower (gray failure), a switch port drops one direction of one link
(asymmetric partition), a backup straggles behind the replication
fan-out, a skewed clock holds a lease long past its expiry.  This
module is the data half of that failure model:

* A :class:`FaultWindow` is one timed fault — gray, straggler, or
  partition — with its target (and, for gray/straggler, severity).
* A :class:`FaultSchedule` is a validated collection of windows plus a
  per-node clock-skew map; :func:`cycle_fault_schedule` builds the
  service workloads' standard soak shape.

Windows may overlap — unlike crashes, concurrent gray/partition faults
compose (multipliers multiply, severs stack), and the injector
(:class:`~repro.faults.injector.FaultInjector`) does the stacking.
Everything is plain data with schedule-time triggers, so fault runs are
deterministic and byte-identical under parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigError

#: The fault families a window can carry (crash/recover stays with
#: :class:`~repro.objstore.failover.FailurePlan` — it changes
#: membership; these change *behavior* while membership holds).
FAULT_KINDS = ("gray", "straggler", "partition")


@dataclass(frozen=True)
class FaultWindow:
    """One timed fault, open over ``[start_ns, end_ns)``.

    * ``gray`` — node ``node`` serves everything ``multiplier``x
      slower: RPC dispatch/service *and* its memory system.
    * ``straggler`` — node ``node``'s RPC plane (replication acks,
      handler service) runs ``multiplier``x slower but its memory
      system keeps full speed: one-sided reads stay fast while the
      write fan-out limps — the classic straggling backup.
    * ``partition`` — the directed link ``src -> dst`` is severed: new
      conversations are refused while in-flight ones drain.
      ``src=None`` or ``dst=None`` is a wildcard over all other nodes
      (isolate a node's ingress, or cut its egress).
    """

    kind: str
    start_ns: float
    end_ns: float
    node: Optional[int] = None
    multiplier: float = 1.0
    src: Optional[int] = None
    dst: Optional[int] = None

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; pick from {FAULT_KINDS}"
            )
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise ConfigError(
                f"{self.kind} window [{self.start_ns}, {self.end_ns}) "
                "must be non-empty and non-negative"
            )
        if self.kind in ("gray", "straggler"):
            if self.node is None:
                raise ConfigError(f"a {self.kind} window needs a target node")
            if self.multiplier < 1.0:
                raise ConfigError(
                    f"{self.kind} multiplier must be >= 1, got "
                    f"{self.multiplier} (a fault cannot speed a node up)"
                )
        else:  # partition
            if self.src is None and self.dst is None:
                raise ConfigError(
                    "a partition window needs src or dst (both None would "
                    "sever every link — crash the node instead)"
                )
            if self.src is not None and self.src == self.dst:
                raise ConfigError("a partition window needs src != dst")


class FaultSchedule:
    """A validated set of fault windows plus per-node clock skews."""

    def __init__(
        self,
        windows: Sequence[FaultWindow] = (),
        clock_skew_ns: Mapping[int, float] = (),
    ):
        ordered = sorted(
            windows, key=lambda w: (w.start_ns, w.end_ns, w.kind)
        )
        for window in ordered:
            window.validate()
        self.windows: Tuple[FaultWindow, ...] = tuple(ordered)
        skews: Dict[int, float] = dict(clock_skew_ns)
        for node, skew in skews.items():
            if node < 0:
                raise ConfigError(f"skewed node id cannot be negative: {node}")
            if skew < 0:
                raise ConfigError(f"clock skew cannot be negative: {skew}")
        self.clock_skew_ns: Dict[int, float] = skews

    def __bool__(self) -> bool:
        return bool(self.windows) or any(self.clock_skew_ns.values())

    def end_ns(self) -> float:
        """When the last window closes (0 for an empty schedule);
        workloads validate their duration covers it, mirroring
        :meth:`FailurePlan.end_ns`."""
        return max((w.end_ns for w in self.windows), default=0.0)


def cycle_fault_schedule(
    kind: str,
    n_shards: int,
    count: int,
    duration_ns: float,
    first_frac: float,
    width_frac: float,
    gap_frac: float,
    multiplier: float,
) -> FaultSchedule:
    """The service workloads' fault lane: ``count`` windows of ``kind``
    round-robining over shard nodes ``0..n_shards-1``, each
    ``width_frac`` of ``duration_ns`` long with ``gap_frac`` of full
    health in between, the first opening at ``first_frac`` — fractions,
    so a config scales with ``--scale``.  Gray and straggler windows
    slow their shard by ``multiplier``; partition windows isolate one
    shard at a time (every ingress link severed).  ``kind="none"`` or
    ``count <= 0`` is the empty schedule."""
    if kind == "none" or count <= 0:
        return FaultSchedule()
    width_ns = width_frac * duration_ns
    step_ns = width_ns + gap_frac * duration_ns
    start_ns = first_frac * duration_ns
    windows = []
    for i in range(count):
        target = i % n_shards
        if kind == "partition":
            where = dict(dst=target)
        else:
            where = dict(node=target, multiplier=multiplier)
        windows.append(
            FaultWindow(kind, start_ns, start_ns + width_ns, **where)
        )
        # Accumulated, not ``first + i * step``: the window edges are
        # part of every fault-lane result.
        start_ns += step_ns
    return FaultSchedule(windows)
