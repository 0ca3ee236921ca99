"""Schedule-driven fault injector over a soNUMA cluster.

The execution half of :mod:`repro.faults.schedule`: construction turns
every :class:`~repro.faults.schedule.FaultWindow` but a crash into two
simulation events (open, close) and applies the clock-skew map, then
the windows fire on the simulated clock — deterministic schedule-time
triggers, never wall time.  Crash windows are the
:class:`~repro.faults.failover.FailoverManager`'s.

What each family touches when a window opens:

* **gray** — the target node's :class:`~repro.mem.system.
  ChipMemorySystem` service multiplier *and* its
  :class:`~repro.sonuma.rpc.RpcEndpoint` service multiplier.  The node
  answers everything, just slower; watchdogs must re-arm, not fail.
* **straggler** — the RPC plane only: replication acks and handler
  service limp while one-sided reads keep full speed.
* **partition** — :meth:`Fabric.sever_link` tokens, expanded from
  the window's (possibly wildcard) link spec.  Tokens are restored at
  close *regardless of node aliveness*, which is what keeps
  ``set_alive`` and severed links composable: a node that crashes
  inside a window and recovers after it rejoins with clean link
  tables.

Overlapping windows stack: per-node multipliers are the product of the
open windows (the injector keeps a stack per node), sever tokens
compose inside the fabric.  The injector touches the cluster only; the
service's RPC watchdog is armed by :meth:`~repro.objstore.sharded.
ShardedKV.arm_watchdogs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.faults.schedule import FaultSchedule, FaultWindow


@dataclass
class FaultStats:
    """What the injector did, for result rows and fuzz fingerprints."""

    gray_windows: int = 0
    straggler_windows: int = 0
    partition_windows: int = 0


class FaultInjector:
    """Drives a :class:`FaultSchedule`'s gray, straggler and partition
    windows and its clock skews against a cluster.

    ``cluster`` is any object with ``sim``, ``fabric``, and ``nodes``
    (a :class:`~repro.sonuma.node.Cluster`).
    """

    def __init__(self, cluster, schedule: Optional[FaultSchedule] = None):
        self.cluster = cluster
        schedule = schedule or FaultSchedule()
        self.stats = FaultStats()
        #: node id -> stack of open service multipliers, per plane.
        self._chip_stack: Dict[int, List[float]] = {}
        self._rpc_stack: Dict[int, List[float]] = {}
        #: open partition window -> its fabric tokens.
        self._tokens: Dict[int, List] = {}
        self._open = 0
        windows = [w for w in schedule.windows if w.kind != "crash"]

        fabric = cluster.fabric
        n_nodes = len(cluster.nodes)
        for window in windows:
            for endpoint in (window.node, window.src, window.dst):
                if endpoint is not None and not 0 <= endpoint < n_nodes:
                    raise ConfigError(
                        f"{window.kind} window names node {endpoint}; "
                        f"cluster has {n_nodes}"
                    )
        for node_id, skew in sorted(schedule.clock_skew_ns.items()):
            if node_id >= n_nodes:
                raise ConfigError(
                    f"skew map names node {node_id}; cluster has {n_nodes}"
                )
            fabric.set_clock_skew(node_id, skew)

        sim = cluster.sim
        for idx, window in enumerate(windows):
            sim.call_at(window.start_ns, self._open_window, idx, window)
            sim.call_at(window.end_ns, self._close_window, idx, window)

    # ------------------------------------------------------------------
    def any_active(self) -> bool:
        """True while at least one fault window is open — workloads
        meter reads against this, mirroring ``FailoverManager.
        any_down``."""
        return self._open > 0

    # ------------------------------------------------------------------
    def _open_window(self, idx: int, window: FaultWindow) -> None:
        self._open += 1
        if window.kind == "partition":
            self.stats.partition_windows += 1
            fabric = self.cluster.fabric
            tokens = [
                fabric.sever_link(src, dst)
                for src, dst in self._expand_links(window)
            ]
            self._tokens[idx] = tokens
            return
        if window.kind == "gray":
            self.stats.gray_windows += 1
            self._push(self._chip_stack, window.node, window.multiplier)
        else:  # straggler: RPC plane only
            self.stats.straggler_windows += 1
        self._push(self._rpc_stack, window.node, window.multiplier)
        self._apply_node(window.node)

    def _close_window(self, idx: int, window: FaultWindow) -> None:
        self._open -= 1
        if window.kind == "partition":
            fabric = self.cluster.fabric
            for token in self._tokens.pop(idx):
                fabric.restore_link(token)
            return
        if window.kind == "gray":
            self._chip_stack[window.node].remove(window.multiplier)
        self._rpc_stack[window.node].remove(window.multiplier)
        self._apply_node(window.node)

    def _expand_links(self, window: FaultWindow) -> List[Tuple[int, int]]:
        n_nodes = len(self.cluster.nodes)
        src, dst = window.src, window.dst
        if src is not None and dst is not None:
            return [(src, dst)]
        if dst is not None:  # isolate the node's ingress
            return [(s, dst) for s in range(n_nodes) if s != dst]
        return [(src, d) for d in range(n_nodes) if d != src]

    def _push(
        self, stacks: Dict[int, List[float]], node_id: int, mult: float
    ) -> None:
        stacks.setdefault(node_id, []).append(mult)

    def _apply_node(self, node_id: int) -> None:
        node = self.cluster.nodes[node_id]
        chip = 1.0
        for m in self._chip_stack.get(node_id, ()):
            chip *= m
        node.chip.set_service_multiplier(chip)
        endpoint = node.rpc_endpoint
        if endpoint is not None:
            rpc = 1.0
            for m in self._rpc_stack.get(node_id, ()):
                rpc *= m
            endpoint.service_multiplier = rpc
