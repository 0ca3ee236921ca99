"""Request vocabulary shared by the gateway and the load generator.

A :class:`TimedOp` is one client request with a *virtual-time* arrival
stamp; an :class:`ArrivalTrace` is a sorted sequence of them plus the
seed that generated it.  The same trace drives both serving modes:

* the **virtual-time replay** (:meth:`repro.serve.bridge.SimBridge.
  replay`) injects every op at exactly its arrival stamp — fully
  deterministic, byte-identical metrics run to run;
* the **wall-clock open-loop client** (:mod:`repro.loadgen.client`)
  fires each op when its arrival stamp elapses on the wall clock,
  turning the identical op stream into real socket traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.common.errors import ConfigError

#: Supported operation kinds.
OP_KINDS = ("get", "put", "txn")


@dataclass(frozen=True)
class TimedOp:
    """One request: ``kind`` at virtual arrival time ``at_ns``.

    ``get``/``put`` use ``key``; ``txn`` uses ``read_keys`` /
    ``write_keys`` (a read-modify-write transaction when both are
    non-empty).  ``op_id`` orders ops deterministically when two
    arrivals collide on the same float timestamp.
    """

    op_id: int
    at_ns: float
    kind: str
    key: str = ""
    read_keys: Tuple[str, ...] = ()
    write_keys: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ConfigError(
                f"unknown op kind {self.kind!r}; choose from {OP_KINDS}"
            )
        if self.at_ns < 0:
            raise ConfigError(f"arrival cannot be negative: {self.at_ns}")
        if self.kind in ("get", "put") and not self.key:
            raise ConfigError(f"{self.kind} op needs a key")
        if self.kind == "txn" and not (self.read_keys or self.write_keys):
            raise ConfigError("txn op needs read and/or write keys")


@dataclass
class ArrivalTrace:
    """A recorded arrival process: ops sorted by ``(at_ns, op_id)``.

    ``offered_qps`` and ``seed`` travel with the trace so artifacts
    can state what was asked for next to what was achieved.
    """

    ops: List[TimedOp] = field(default_factory=list)
    offered_qps: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        order = [(op.at_ns, op.op_id) for op in self.ops]
        if order != sorted(order):
            raise ConfigError("trace ops must be sorted by (at_ns, op_id)")


def merge_sorted(traces: Sequence[ArrivalTrace]) -> ArrivalTrace:
    """Merge several traces into one, re-sorted and re-numbered (used
    when mixing independent op streams)."""
    ops = sorted(
        (op for trace in traces for op in trace.ops),
        key=lambda op: (op.at_ns, op.op_id),
    )
    renumbered = [
        TimedOp(
            op_id=i,
            at_ns=op.at_ns,
            kind=op.kind,
            key=op.key,
            read_keys=op.read_keys,
            write_keys=op.write_keys,
        )
        for i, op in enumerate(ops)
    ]
    total_qps = sum(t.offered_qps for t in traces)
    seed = traces[0].seed if traces else 0
    return ArrivalTrace(ops=renumbered, offered_qps=total_qps, seed=seed)
