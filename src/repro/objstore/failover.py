"""Fault injection and recovery over the sharded FaRM service.

The paper's premise is that atomicity mechanisms must hold while
writers race readers; rack-scale systems additionally lose nodes
mid-race.  FaRM reconfigures around failures with leases and a
configuration epoch, and DrTM falls back to backup replicas — this
module brings that failure model to :class:`~repro.objstore.sharded.
ShardedKV` so the backup-fallback, retry, and abort paths are exercised
under *real* crashes instead of only under contention:

* A :class:`FailurePlan` is data: a list of :class:`ShardFault` entries
  (crash time, optional recovery time) validated for per-shard
  ordering.  :meth:`FailurePlan.cycles` builds the standard soak shape
  — repeated crash/recover cycles round-robining over shards.
* A :class:`FailoverManager` turns the plan into simulation events.  On
  a **crash** it expires the node's lease at the fabric (packets from
  and to it vanish), fails every in-flight RPC addressed to it with a
  typed :class:`~repro.common.errors.ShardCrashedError`, aborts every
  in-flight one-sided transfer targeting it (``crashed`` CQ entries),
  and drives the view change: the next serving replica of every key the
  shard was primary for is *promoted* (permanently — the crashed shard
  rejoins as a backup) and the configuration epoch is bumped so stale
  requests are fenced by every RPC handler.
* On a **recovery** the node's NI comes back, but the shard does not
  serve again until a timed **re-sync** completes: the manager charges
  ``RESYNC_FIXED_NS + RESYNC_NS_PER_OBJECT x hosted objects`` of
  simulated time, then copies the current committed image of every
  hosted object from that object's current primary and re-admits the
  shard (another epoch bump).  Requests arriving in the window between
  NI-up and re-sync-end are fenced — a rejoining shard can never serve
  stale data.

Readers keep reading through promotions (:meth:`~repro.objstore.
session.ReaderSession.lookup` routes over serving replicas), writers
redirect to the promotee
(:meth:`ShardedKV.put` retries on the typed error), and transactions
see crashed shards as forced aborts with the distinct ``abort_crash``
reason (:class:`~repro.objstore.txn.TxnStats.crash_aborts`).  What
keeps clients moving is the pair of failure timers a manager arms
through :meth:`ShardedKV.arm_watchdogs`, the one place they are set: a
2 µs bound on each read attempt and a 60 µs RPC watchdog.

Everything is deterministic: crash/recover times come from the plan,
failure notifications iterate endpoints and transfer tables in fixed
order, and re-sync synthesizes committed images from the repo-wide
ground-truth convention (a committed payload is fully determined by its
version), so failover runs are byte-identical under parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.objstore.sharded import REROUTE_CHECK_NS, RPC_TIMEOUT_NS, ShardedKV

#: The re-sync cost model: a fixed reconfiguration handshake plus a
#: per-object bulk-copy charge.
RESYNC_FIXED_NS = 5_000.0
RESYNC_NS_PER_OBJECT = 120.0


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardFault:
    """One scheduled failure: ``shard`` crashes at ``crash_ns`` and —
    unless ``recover_ns`` is ``None`` (it stays down) — rejoins at
    ``recover_ns`` (NI up; serving resumes after the timed re-sync)."""

    shard: int
    crash_ns: float
    recover_ns: Optional[float] = None

    def validate(self) -> None:
        if self.crash_ns < 0:
            raise ConfigError(f"crash time cannot be negative: {self.crash_ns}")
        if self.recover_ns is not None and self.recover_ns <= self.crash_ns:
            raise ConfigError(
                f"shard {self.shard}: recovery at {self.recover_ns} must "
                f"follow the crash at {self.crash_ns}"
            )


class FailurePlan:
    """A validated, time-ordered schedule of shard faults."""

    def __init__(self, faults: Sequence[ShardFault] = ()):
        faults = sorted(faults, key=lambda f: (f.crash_ns, f.shard))
        last_end: Dict[int, float] = {}
        for fault in faults:
            fault.validate()
            if fault.shard in last_end:
                end = last_end[fault.shard]
                if end is None or fault.crash_ns < end:
                    raise ConfigError(
                        f"shard {fault.shard}: fault at {fault.crash_ns} "
                        "overlaps the previous one (or follows a permanent "
                        "crash)"
                    )
            last_end[fault.shard] = fault.recover_ns
        self.faults: Tuple[ShardFault, ...] = tuple(faults)

    def __len__(self) -> int:
        return len(self.faults)

    @classmethod
    def cycles(
        cls,
        shards: Sequence[int],
        first_crash_ns: float,
        downtime_ns: float,
        uptime_ns: float,
        count: int,
    ) -> "FailurePlan":
        """``count`` crash/recover cycles round-robining over
        ``shards``: one shard down at a time, each down for
        ``downtime_ns``, with ``uptime_ns`` of full health in between."""
        if not shards:
            raise ConfigError("cycles need at least one shard to crash")
        if count < 0:
            raise ConfigError(f"cycle count cannot be negative: {count}")
        if downtime_ns <= 0 or uptime_ns < 0:
            raise ConfigError("downtime must be positive, uptime non-negative")
        faults = []
        t = first_crash_ns
        for i in range(count):
            shard = shards[i % len(shards)]
            faults.append(ShardFault(shard, t, t + downtime_ns))
            t += downtime_ns + uptime_ns
        return cls(faults)

    def end_ns(self) -> float:
        """When the last scheduled event fires (0 for an empty plan);
        workloads validate their duration covers it so no crash/recover
        event outlives the measurement."""
        end = 0.0
        for fault in self.faults:
            end = max(end, fault.crash_ns)
            if fault.recover_ns is not None:
                end = max(end, fault.recover_ns)
        return end


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------


@dataclass
class FailoverStats:
    """What the fault injector did and what it hit."""

    crashes: int = 0
    recoveries: int = 0
    #: Keys whose primary changed at a crash (promotions are permanent).
    promotions: int = 0
    #: In-flight RPCs failed with the typed error at crash instants.
    failed_rpcs: int = 0
    #: In-flight one-sided transfers aborted at crash instants.
    failed_transfers: int = 0
    #: Objects copied back onto rejoining shards.
    resynced_objects: int = 0


class FailoverManager:
    """Drives a :class:`FailurePlan` against a :class:`ShardedKV`.

    Construction arms the service's failure timers through
    :meth:`ShardedKV.arm_watchdogs` (the attempt re-route bound and
    the RPC watchdog) and schedules every fault as simulation events;
    :meth:`crash` / :meth:`recover` are also public so tests can inject
    faults directly.
    """

    def __init__(self, kv: ShardedKV, plan: Optional[FailurePlan] = None):
        self.kv = kv
        self.plan = plan or FailurePlan()
        self.stats = FailoverStats()
        self.down: set = set()
        #: Timeline of ``(t_ns, event, shard)`` strings for reporting.
        self.events: List[Tuple[float, str, int]] = []

        kv.arm_watchdogs(RPC_TIMEOUT_NS, REROUTE_CHECK_NS)

        sim = kv.cluster.sim
        serving_again: Dict[int, Optional[float]] = {}
        for fault in self.plan.faults:
            if fault.shard >= kv.cfg.n_shards:
                raise ConfigError(
                    f"plan names shard {fault.shard}; deployment has "
                    f"{kv.cfg.n_shards}"
                )
            # The plan's per-shard ordering only checks recover_ns, but
            # a shard stays down until its *timed re-sync* completes —
            # a crash inside that window would fire mid-simulation
            # against a shard that is already down.  The re-sync cost
            # is a pure function of the (immutable) replica membership,
            # so reject such plans here, at construction.
            if fault.shard in serving_again:
                prior = serving_again[fault.shard]
                if prior is None or fault.crash_ns <= prior:
                    raise ConfigError(
                        f"shard {fault.shard}: crash at {fault.crash_ns} "
                        f"lands before the previous fault's re-sync "
                        f"completes (~{prior}); leave more uptime between "
                        "cycles"
                    )
            serving_again[fault.shard] = (
                None
                if fault.recover_ns is None
                else fault.recover_ns + self._resync_cost(fault.shard)
            )
            sim.call_at(
                fault.crash_ns, lambda s=fault.shard: self.crash(s)
            )
            if fault.recover_ns is not None:
                sim.call_at(
                    fault.recover_ns, lambda s=fault.shard: self.recover(s)
                )

    # ------------------------------------------------------------------
    def any_down(self) -> bool:
        """True while at least one ring *member* is crashed or
        re-syncing (spare slots a scale-out has not activated are
        always non-serving and must not count as an outage)."""
        return not self.kv.all_members_serving()

    def _resync_cost(self, shard: int) -> float:
        """Simulated time shard ``shard``'s re-sync takes — constant,
        because replica *membership* never changes (promotions only
        reorder it)."""
        hosted = len(self.kv.hosted_on(shard))
        return RESYNC_FIXED_NS + RESYNC_NS_PER_OBJECT * hosted

    # ------------------------------------------------------------------
    def crash(self, shard: int) -> None:
        """Crash ``shard`` now: lease expired, in-flight work failed,
        backups promoted, epoch bumped."""
        kv = self.kv
        if shard in self.down or not kv.serving[shard]:
            raise ConfigError(f"shard {shard} is already down")
        node_id = kv.shards[shard].node_id
        fabric = kv.cluster.fabric
        sim = kv.cluster.sim
        fabric.set_alive(node_id, False)

        # Fail everything in flight *before* mutating the view, so the
        # typed errors observe the epoch their requests were issued in.
        # The crashed shard's own outbound calls (replication fan-out)
        # can never resolve either — replies would land on its dead NI.
        # An observer with a skewed clock learns of the crash that much
        # later: its notification is deferred by its skew (the common
        # skew-free case stays synchronous, preserving event ordering).
        for endpoint in kv.all_endpoints():
            skew = fabric.clock_skew_ns(endpoint.node.node_id)
            if skew > 0.0:
                sim.call_later(skew, self._late_fail_rpcs, endpoint, node_id)
            else:
                self.stats.failed_rpcs += endpoint.fail_pending_to(node_id)
        self.stats.failed_rpcs += kv.shard_rpc(shard).fail_all_pending()
        for node in kv.cluster.nodes:
            skew = fabric.clock_skew_ns(node.node_id)
            if skew > 0.0 and node.node_id != node_id:
                sim.call_later(
                    skew, self._late_fail_transfers, node, node_id
                )
            else:
                self.stats.failed_transfers += node.fail_transfers_to(node_id)

        self.stats.promotions += kv.mark_down(shard)
        self.stats.crashes += 1
        self.down.add(shard)
        self.events.append((kv.cluster.sim.now, "crash", shard))

    def _late_fail_rpcs(self, endpoint, node_id: int) -> None:
        """A skewed observer's deferred crash notification (RPC side).
        The target may have recovered inside the skew window — pending
        calls to a once-again-live node are left alone; their replies
        arrive or their watchdogs handle it."""
        if not self.kv.cluster.fabric.alive(node_id):
            self.stats.failed_rpcs += endpoint.fail_pending_to(node_id)

    def _late_fail_transfers(self, node, node_id: int) -> None:
        if not self.kv.cluster.fabric.alive(node_id):
            self.stats.failed_transfers += node.fail_transfers_to(node_id)

    def recover(self, shard: int) -> None:
        """Bring ``shard``'s NI back and start its timed re-sync; the
        shard serves again (as a backup) when the re-sync completes."""
        kv = self.kv
        if shard not in self.down:
            raise ConfigError(f"shard {shard} is not down")
        node_id = kv.shards[shard].node_id
        kv.cluster.fabric.set_alive(node_id, True)
        self.events.append((kv.cluster.sim.now, "rejoin", shard))
        kv.cluster.sim.process(self._resync(shard))

    def _resync(self, shard: int):
        """Timed state transfer, then re-admission (a sim generator).

        The time is charged *first*: the copy itself lands at the
        window's end so it captures the freshest committed images —
        including writes the promoted primaries accepted while this
        shard was rejoining."""
        kv = self.kv
        sim = kv.cluster.sim
        yield sim.timeout(self._resync_cost(shard))
        self.stats.resynced_objects += kv.resync_shard(shard)
        kv.mark_serving(shard)
        self.down.discard(shard)
        self.stats.recoveries += 1
        self.events.append((sim.now, "serving", shard))
