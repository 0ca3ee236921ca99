"""The fault model's data: every timed fault is one window.

Rack-scale papers always model one fault — a shard dies, a backup is
promoted.  Real deployments mostly fail *around* that: a shard answers
but 10x slower (gray failure), a switch port drops one direction of one
link (asymmetric partition), a backup straggles behind the replication
fan-out, a skewed clock holds a lease long past its expiry.  This
module is the data half of that failure model:

* A :class:`FaultWindow` is one timed fault — crash, gray, straggler,
  or partition — with its target (and, for gray/straggler, severity).
* A :class:`FaultSchedule` is a validated collection of windows plus a
  per-node clock-skew map; :func:`cycle_fault_schedule` builds the
  standard soak shape every workload's lane uses.

Crash windows change membership and are driven by
:class:`~repro.faults.failover.FailoverManager`; the rest change
*behavior* while membership holds and are driven by
:class:`~repro.faults.injector.FaultInjector`.  Those may overlap —
concurrent gray/partition faults compose (multipliers multiply, severs
stack), and the injector does the stacking.  Everything is plain data
with schedule-time triggers, so fault runs are deterministic and
byte-identical under parallel sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigError

#: The fault families a window can carry.
FAULT_KINDS = ("crash", "gray", "straggler", "partition")


@dataclass(frozen=True)
class FaultWindow:
    """One timed fault, open over ``[start_ns, end_ns)``.

    * ``crash`` — shard ``node`` crashes at ``start_ns`` and rejoins at
      ``end_ns``; it serves again once its timed re-sync completes.
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
        for name in ("start_ns", "end_ns", "multiplier"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"{self.kind} window {name} must be finite, got "
                    f"{getattr(self, name)}"
                )
        if self.start_ns < 0 or self.end_ns <= self.start_ns:
            raise ConfigError(
                f"{self.kind} window [{self.start_ns}, {self.end_ns}) "
                "must be non-empty and non-negative"
            )
        if self.kind == "partition":
            if self.src is None and self.dst is None:
                raise ConfigError(
                    "a partition window needs src or dst (both None would "
                    "sever every link — crash the node instead)"
                )
            if self.src is not None and self.src == self.dst:
                raise ConfigError("a partition window needs src != dst")
            return
        if self.node is None:
            raise ConfigError(f"a {self.kind} window needs a target node")
        if self.multiplier < 1.0:
            raise ConfigError(
                f"{self.kind} multiplier must be >= 1, got "
                f"{self.multiplier} (a fault cannot speed a node up)"
            )


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
            if not math.isfinite(skew) or skew < 0:
                raise ConfigError(
                    f"clock skew must be finite and non-negative: {skew}"
                )
        self.clock_skew_ns: Dict[int, float] = skews

    def __bool__(self) -> bool:
        return bool(self.windows) or any(self.clock_skew_ns.values())

    def end_ns(self) -> float:
        """When the last window closes (0 for an empty schedule);
        workloads validate their duration covers it, so no fault event
        outlives the measurement."""
        return max((w.end_ns for w in self.windows), default=0.0)


def cycle_fault_schedule(
    kind: str,
    nodes: Sequence[int],
    count: int,
    first_ns: float,
    width_ns: float,
    gap_ns: float,
    multiplier: float = 1.0,
) -> FaultSchedule:
    """Every workload's fault lane: ``count`` windows of ``kind``
    round-robining over ``nodes``, each ``width_ns`` long with
    ``gap_ns`` of full health in between, the first opening at
    ``first_ns``.  Crash windows take one shard down at a time; gray
    and straggler windows slow their node by ``multiplier``; partition
    windows isolate one node at a time (every ingress link severed).
    ``kind="none"`` or ``count <= 0`` is the empty schedule."""
    if kind == "none" or count <= 0:
        return FaultSchedule()
    if not nodes or gap_ns < 0:
        raise ConfigError("a fault lane needs a node and a non-negative gap")
    windows = []
    start_ns = first_ns
    for i in range(count):
        target = nodes[i % len(nodes)]
        if kind == "partition":
            where = dict(dst=target)
        else:
            where = dict(node=target, multiplier=multiplier)
        windows.append(
            FaultWindow(kind, start_ns, start_ns + width_ns, **where)
        )
        # Accumulated, not ``first + i * (width + gap)``: the window
        # edges are part of every fault-lane result.
        start_ns += width_ns + gap_ns
    return FaultSchedule(windows)
