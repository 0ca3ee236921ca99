"""The closed-loop client driver and deployment config every KV
workload shares.

The paper evaluates SABRes with one FaRM-style client loop (§7); the
service workloads here — YCSB, the transaction mix, the failover /
fault mixes, the elastic mix and the atomicity fuzzer — are that loop
under different *configurations*, not different loops:

* a **key source** — a zero-argument callable returning the next key
  (a popularity picker from :func:`~repro.workloads.generators.
  make_picker`, or the fuzzer's seeded RNG over a tiny hot key set);
  transactions take a *transaction source* returning ``(keys,
  write_keys)``, writers also a **pause source** for their think time;
* an **observer** — called once per finished op with its outcome.
  Metering policy lives entirely there: a warm-up window test
  (:func:`~repro.workloads.availability.run_failover_mix`), a
  pre/mid/post phase (:func:`~repro.workloads.elastic.run_elastic`),
  or nothing at all (:func:`unmetered`, the fuzzer).

A new workload supplies sources and observers and calls
:func:`spawn_clients`; it never re-types a loop.  The process bodies
are plain generators :meth:`Simulator.process` drives directly.

:class:`DeploymentConfig` is the matching single settings object: the
fields that describe *which service is deployed and for how long*,
declared once with defaults that each workload config overrides.  The
deployment itself is :meth:`ShardedConfig.of` the config: every
``ShardedConfig`` field it has, by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.common.config import LayeredConfig, check_scalar
from repro.common.costs import DEFAULT_COSTS, SoftwareCosts
from repro.common.errors import ConfigError
from repro.faults import FAULT_KINDS, FaultSchedule, cycle_fault_schedule
from repro.objstore.sharded import ShardedConfig
from repro.workloads.generators import DISTRIBUTIONS, make_picker

# ----------------------------------------------------------------------
# deployment config
# ----------------------------------------------------------------------

@dataclass
class DeploymentConfig(LayeredConfig):
    """What every closed-loop service run configures: the deployment,
    the key popularity, and the run/warm-up window.  Workload configs
    subclass it, redeclaring only the defaults they change."""

    mechanism: str = "sabre"
    n_shards: int = 4
    n_clients: int = 0  # 0 = one client node per shard
    replication: int = 2
    object_size: int = 512
    n_objects: int = 64
    duration_ns: float = 200_000.0
    warmup_ns: float = 10_000.0
    #: Key popularity: ``uniform`` or ``zipfian`` (the alias-table
    #: generator; hot keys make conflicts and fault windows hurt more).
    distribution: str = "uniform"
    zipf_theta: float = 0.99
    seed: int = 1
    version_bits: int = 16
    vnodes: int = 64
    costs: SoftwareCosts = field(default_factory=lambda: DEFAULT_COSTS)

    def validate(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(
                f"unknown distribution {self.distribution!r}; "
                f"choose from {DISTRIBUTIONS}"
            )
        if not 0.0 < self.zipf_theta < 2.0:
            raise ConfigError(f"zipf_theta must be in (0, 2): {self.zipf_theta}")
        if self.warmup_ns < 0:
            raise ConfigError("warmup cannot be negative")
        if self.warmup_ns >= self.duration_ns:
            raise ConfigError("warmup must end before the run does")
        ShardedConfig.of(self).validate()

    def picker(self, label: object):
        """This run's key-popularity picker on RNG stream ``label``."""
        return make_picker(
            self.n_objects, self.seed, self.distribution, self.zipf_theta, label
        )


#: Reader processes per client node in every closed-loop service
#: load (YCSB and the mixed loads).
READERS_PER_CLIENT = 2

#: The mixed loads' transaction shape: keys read, and how many of them
#: are written.
MIX_TXN_SIZE = 3
MIX_WRITES_PER_TXN = 1

#: Fault lanes a mixed load can schedule on top of its own event.
LANE_FAULT_KINDS = ("none", *FAULT_KINDS)

#: Width of each fault-lane window and the healthy gap between two,
#: as fractions of ``duration_ns``.
FAULT_WIDTH_FRAC = 0.15
FAULT_GAP_FRAC = 0.05


@dataclass
class ServiceMixConfig(DeploymentConfig):
    """A mixed reader / writer / transaction load — what
    :func:`service_roles` runs — with an optional lane of gray,
    straggler or partition windows round-robining over the shards,
    placed as fractions of ``duration_ns``."""

    #: Where the fault lane's first window opens, as a fraction of
    #: ``duration_ns`` (a per-class constant, not a field).
    FAULT_FIRST_FRAC = 0.2

    writers_per_client: int = 1
    txn_sessions_per_client: int = 1
    write_pause_ns: float = 150.0
    fallback_after_ns: float = 0.0
    fault_kind: str = "none"
    fault_windows: int = 0
    gray_multiplier: float = 8.0

    def validate(self) -> None:
        super().validate()
        if self.writers_per_client < 0 or self.txn_sessions_per_client < 0:
            raise ConfigError("process counts cannot be negative")
        if self.txn_sessions_per_client and self.n_objects < MIX_TXN_SIZE:
            raise ConfigError(
                f"transactions read {MIX_TXN_SIZE} distinct keys; "
                f"n_objects={self.n_objects} is fewer"
            )
        if self.fault_kind not in LANE_FAULT_KINDS:
            raise ConfigError(
                f"unknown fault_kind {self.fault_kind!r}; pick from "
                f"{LANE_FAULT_KINDS}"
            )
        if self.fault_windows < 0:
            raise ConfigError(
                f"fault_windows cannot be negative: {self.fault_windows}"
            )
        if self.fault_schedule().end_ns() > self.duration_ns:
            raise ConfigError(
                "fault schedule extends past the run; shrink fault_windows"
            )

    def fault_schedule(self) -> FaultSchedule:
        """The fault lane's windows over the *starting* member shards
        (node ids ``0..n_shards-1``)."""
        return cycle_fault_schedule(
            self.fault_kind,
            self.n_shards,
            self.fault_windows,
            self.duration_ns,
            self.FAULT_FIRST_FRAC,
            FAULT_WIDTH_FRAC,
            FAULT_GAP_FRAC,
            self.gray_multiplier,
        )


def derive_shard_scaling(params: Dict) -> Dict:
    """Derived-config hook of the ``*_shard_scaling`` specs: the
    ``shards`` axis sets the shard count and, with it, the client
    count (one client node per shard: load generators grow with the
    rack)."""
    out = dict(params)
    shards = out.pop("shards")
    check_scalar("shards", "int", shards)
    check_scalar("replication", "int", out["replication"])
    out["n_shards"] = shards
    out["n_clients"] = shards
    out["replication"] = min(out["replication"], shards)
    return out


def max_over_mean(values: Sequence[float]) -> float:
    """Imbalance of a per-shard load column (1.0 = perfectly even;
    NaN when nothing was routed)."""
    mean = sum(values) / len(values) if values else 0.0
    if mean <= 0:
        return math.nan
    return max(values) / mean


# ----------------------------------------------------------------------
# key sources
# ----------------------------------------------------------------------


def distinct_keys(kv, pick, count: int) -> List[str]:
    """``count`` distinct keys for one transaction, still popularity-
    weighted: draw from the picker, skipping repeats."""
    chosen: List[int] = []
    while len(chosen) < count:
        idx = pick.pick()
        if idx not in chosen:
            chosen.append(idx)
    return [kv.key_name(idx) for idx in chosen]


# ----------------------------------------------------------------------
# process bodies
# ----------------------------------------------------------------------


def unmetered(*_outcome) -> None:
    """The observer of a run that meters nothing per op (the fuzzer
    reads the service's own counters afterwards)."""


def reader_proc(sim, session, next_key, t_end: float, observe):
    """Closed-loop reads; ``observe(ok, t0)`` after each lookup."""
    while sim.now < t_end:
        key = next_key()
        t0 = sim.now
        ok = yield from session.lookup(key, t_end)
        observe(ok, t0)


def writer_proc(sim, kv, client: int, next_key, pause, t_end: float, observe):
    """Closed-loop puts with ``pause()`` ns of think time between them;
    ``observe(ack)`` after each put (``None`` = gave up at ``t_end``)."""
    while sim.now < t_end:
        ack = yield kv.put(client, next_key(), t_end)
        observe(ack)
        yield sim.timeout(pause())


def txn_proc(sim, session, next_txn, t_end: float, observe):
    """Closed-loop transactions; ``next_txn()`` returns ``(keys,
    write_keys)`` and ``observe(outcome, t0)`` follows each resolved
    transaction."""
    while sim.now < t_end:
        keys, write_keys = next_txn()
        t0 = sim.now
        outcome = yield from session.run(keys, write_keys, t_end)
        observe(outcome, t0)


def read_update_proc(
    sim, kv, session, next_key, is_update, t_end: float, on_read, on_update
):
    """YCSB's client thread: each op is an update when ``is_update()``
    says so, else a read — one process, so an update stalls the reads
    queued behind it.  Updates carry no deadline (a healthy service
    always acks); ``on_update(t0)`` / ``on_read(ok, t0)`` follow."""
    while sim.now < t_end:
        key = next_key()
        t0 = sim.now
        if is_update():
            yield kv.put(session.client_index, key)
            on_update(t0)
        else:
            ok = yield from session.lookup(key, t_end)
            on_read(ok, t0)


Role = Tuple[int, Callable[[int, int], object]]


def spawn_clients(sim, n_clients: int, roles: Sequence[Role]) -> None:
    """Start ``count`` processes of every role on every client node.

    ``roles`` is ``(count, make_proc)`` pairs, ``make_proc(client,
    thread)`` returning the process body.  The nesting — clients
    outermost, then roles in the order given (readers, writers,
    transaction sessions), then threads — is part of the determinism
    contract: process creation order fixes session order and event
    sequence numbers, and with them every artifact."""
    for client in range(n_clients):
        for count, make_proc in roles:
            for thread in range(count):
                sim.process(make_proc(client, thread))


def service_roles(kv, txns, cfg, on_read, on_write, on_txn) -> List[Role]:
    """The reader / writer / transaction roles of a mixed service load
    (the failover and elastic mixes): ``cfg`` supplies the per-client
    writer and session counts and the writer pause; every process draws
    keys from its own ``(role, client, thread)``-labelled picker and
    runs to ``cfg.duration_ns``.  ``txns`` (the
    :class:`~repro.objstore.txn.TxnManager`) may be ``None`` when
    ``cfg.txn_sessions_per_client`` is 0."""
    sim = kv.cluster.sim
    t_end = cfg.duration_ns

    def key_source(role: str, client: int, thread: int):
        pick = cfg.picker((role, client, thread)).pick
        return lambda: kv.key_name(pick())

    def reader(client: int, thread: int):
        return reader_proc(
            sim,
            kv.reader_session(client),
            key_source("reader", client, thread),
            t_end,
            on_read,
        )

    def writer(client: int, thread: int):
        return writer_proc(
            sim,
            kv,
            client,
            key_source("writer", client, thread),
            lambda: cfg.write_pause_ns,
            t_end,
            on_write,
        )

    def txn(client: int, thread: int):
        pick = cfg.picker(("txn", client, thread))

        def next_txn():
            keys = distinct_keys(kv, pick, MIX_TXN_SIZE)
            return keys, keys[:MIX_WRITES_PER_TXN]

        return txn_proc(sim, txns.session(client), next_txn, t_end, on_txn)

    return [
        (READERS_PER_CLIENT, reader),
        (cfg.writers_per_client, writer),
        (cfg.txn_sessions_per_client, txn),
    ]


# ----------------------------------------------------------------------
# roll-up
# ----------------------------------------------------------------------

#: Per-session read counters / per-shard write counters summed
#: service-wide by :func:`service_totals`.
_READ_COUNTERS = (
    "retries",
    "sabre_aborts",
    "software_conflicts",
    "undetected_violations",
    "fallback_reads",
)
_WRITE_COUNTERS = (
    "primary_updates",
    "fenced_rejects",
    "crash_redirects",
    "reshard_redirects",
)


def service_totals(kv) -> Dict[str, int]:
    """Service-wide totals of the counters the store keeps per reader
    session, per shard and per RPC endpoint."""
    reader_stats = kv.all_reader_stats()
    totals = {
        name: sum(getattr(s, name) for s in reader_stats)
        for name in _READ_COUNTERS
    }
    for name in _WRITE_COUNTERS:
        totals[name] = sum(getattr(ws, name) for ws in kv.write_stats)
    totals["reads_consumed"] = sum(len(s.op_latency) for s in reader_stats)
    totals["watchdog_rearms"] = sum(
        e.watchdog_rearms for e in kv.all_endpoints()
    )
    totals["partition_refusals"] = kv.cluster.fabric.partition_refusals
    return totals
