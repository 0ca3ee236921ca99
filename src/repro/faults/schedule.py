"""Composable fault schedules beyond clean crash/recover.

:class:`~repro.objstore.failover.FailurePlan` models the one fault
rack-scale papers always model — a shard dies, a backup is promoted.
Real deployments mostly fail *around* that: a shard answers but 10x
slower (gray failure), a switch port drops one direction of one link
(asymmetric partition), a backup straggles behind the replication
fan-out, a skewed clock holds a lease long past its expiry.  This
module is the data half of that failure model:

* A :class:`FaultWindow` is one timed fault — gray, straggler, or
  partition — with its target and severity.
* A :class:`FaultSchedule` is a validated collection of windows plus a
  per-node clock-skew map; builders (:meth:`FaultSchedule.gray_cycles`,
  :meth:`FaultSchedule.partition_cycles`,
  :meth:`FaultSchedule.straggler_cycles`) produce the standard soak
  shapes.

Windows may overlap — unlike crashes, concurrent gray/partition faults
compose (multipliers multiply, severs OR), and the injector
(:class:`~repro.faults.injector.FaultInjector`) does the stacking.
Everything is plain data with schedule-time triggers, so fault runs are
deterministic and byte-identical under parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
    * ``partition`` — the directed link ``src -> dst`` degrades:
      ``drop`` severs new conversations, ``latency_mult``/``bw_mult``
      slow packets that still flow.  ``src=None`` or ``dst=None`` is a
      wildcard over all other nodes (isolate a node, or degrade its
      whole ingress side).
    """

    kind: str
    start_ns: float
    end_ns: float
    node: Optional[int] = None
    multiplier: float = 1.0
    src: Optional[int] = None
    dst: Optional[int] = None
    drop: bool = False
    latency_mult: float = 1.0
    bw_mult: float = 1.0

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
                    "degrade every link — crash the node instead)"
                )
            if self.src is not None and self.src == self.dst:
                raise ConfigError("a partition window needs src != dst")
            if self.latency_mult < 1.0:
                raise ConfigError(
                    f"partition latency_mult must be >= 1, got "
                    f"{self.latency_mult}"
                )
            if not 0.0 < self.bw_mult <= 1.0:
                raise ConfigError(
                    f"partition bw_mult must be in (0, 1], got {self.bw_mult}"
                )
            if not self.drop and self.latency_mult == 1.0 and self.bw_mult == 1.0:
                raise ConfigError(
                    "a partition window must drop or degrade the link"
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
            if skew < 0:
                raise ConfigError(f"clock skew cannot be negative: {skew}")
        self.clock_skew_ns: Dict[int, float] = skews

    def __len__(self) -> int:
        return len(self.windows)

    def __bool__(self) -> bool:
        return bool(self.windows) or any(self.clock_skew_ns.values())

    def end_ns(self) -> float:
        """When the last window closes (0 for an empty schedule);
        workloads validate their duration covers it, mirroring
        :meth:`FailurePlan.end_ns`."""
        return max((w.end_ns for w in self.windows), default=0.0)

    def windows_of(self, kind: str) -> Tuple[FaultWindow, ...]:
        return tuple(w for w in self.windows if w.kind == kind)

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        """A new schedule carrying both sets of windows and skews
        (skew maps must not disagree on a node)."""
        skews = dict(self.clock_skew_ns)
        for node, skew in other.clock_skew_ns.items():
            if skews.get(node, skew) != skew:
                raise ConfigError(
                    f"conflicting clock skews for node {node}: "
                    f"{skews[node]} vs {skew}"
                )
            skews[node] = skew
        return FaultSchedule(self.windows + other.windows, skews)

    # ------------------------------------------------------------------
    # builders (the standard soak shapes)
    # ------------------------------------------------------------------
    @classmethod
    def gray_cycles(
        cls,
        nodes: Sequence[int],
        first_ns: float,
        width_ns: float,
        gap_ns: float,
        count: int,
        multiplier: float,
        kind: str = "gray",
    ) -> "FaultSchedule":
        """``count`` gray (or straggler) windows round-robining over
        ``nodes``: each ``width_ns`` long, ``gap_ns`` of full health in
        between — the shape :meth:`FailurePlan.cycles` uses for
        crashes, minus the membership change."""
        if not nodes:
            raise ConfigError("gray cycles need at least one target node")
        if count < 0:
            raise ConfigError(f"cycle count cannot be negative: {count}")
        if width_ns <= 0 or gap_ns < 0:
            raise ConfigError("width must be positive, gap non-negative")
        windows: List[FaultWindow] = []
        t = first_ns
        for i in range(count):
            windows.append(
                FaultWindow(
                    kind,
                    start_ns=t,
                    end_ns=t + width_ns,
                    node=nodes[i % len(nodes)],
                    multiplier=multiplier,
                )
            )
            t += width_ns + gap_ns
        return cls(windows)

    @classmethod
    def straggler_cycles(
        cls,
        nodes: Sequence[int],
        first_ns: float,
        width_ns: float,
        gap_ns: float,
        count: int,
        multiplier: float,
    ) -> "FaultSchedule":
        """Straggling-backup windows — :meth:`gray_cycles` with the
        RPC-plane-only semantics."""
        return cls.gray_cycles(
            nodes, first_ns, width_ns, gap_ns, count, multiplier,
            kind="straggler",
        )

    @classmethod
    def partition_cycles(
        cls,
        links: Sequence[Tuple[Optional[int], Optional[int]]],
        first_ns: float,
        width_ns: float,
        gap_ns: float,
        count: int,
        drop: bool = True,
        latency_mult: float = 1.0,
        bw_mult: float = 1.0,
    ) -> "FaultSchedule":
        """``count`` partition windows round-robining over ``links``
        (``(src, dst)`` pairs, ``None`` a wildcard side)."""
        if not links:
            raise ConfigError("partition cycles need at least one link")
        if count < 0:
            raise ConfigError(f"cycle count cannot be negative: {count}")
        if width_ns <= 0 or gap_ns < 0:
            raise ConfigError("width must be positive, gap non-negative")
        windows: List[FaultWindow] = []
        t = first_ns
        for i in range(count):
            src, dst = links[i % len(links)]
            windows.append(
                FaultWindow(
                    "partition",
                    start_ns=t,
                    end_ns=t + width_ns,
                    src=src,
                    dst=dst,
                    drop=drop,
                    latency_mult=latency_mult,
                    bw_mult=bw_mult,
                )
            )
            t += width_ns + gap_ns
        return cls(windows)


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
    round-robining over shard nodes ``0..n_shards-1``, placed as
    fractions of ``duration_ns`` so a config scales with ``--scale``
    without the windows falling off the end of the run.  Partition
    windows isolate one shard at a time (every ingress link dropped);
    ``kind="none"`` or ``count <= 0`` is the empty schedule."""
    if kind == "none" or count <= 0:
        return FaultSchedule()
    placement = dict(
        first_ns=first_frac * duration_ns,
        width_ns=width_frac * duration_ns,
        gap_ns=gap_frac * duration_ns,
        count=count,
    )
    if kind == "partition":
        return FaultSchedule.partition_cycles(
            [(None, shard) for shard in range(n_shards)], **placement
        )
    return FaultSchedule.gray_cycles(
        list(range(n_shards)), multiplier=multiplier, kind=kind, **placement
    )
