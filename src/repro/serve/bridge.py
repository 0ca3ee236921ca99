"""The time bridge: wall-clock requests over a virtual-time cluster.

Requests arrive in wall-clock time; the cluster runs in simulated
nanoseconds.  :class:`SimBridge` owns the :class:`~repro.sim.engine.
Simulator` and closes that gap:

* every request is **injected as a scheduled event** at a virtual
  arrival time (``max(now, stamp)``) and runs as a simulation process
  through the exact machinery the in-process harnesses use — the timed
  memory hierarchy, the :class:`~repro.objstore.protocols.
  ReadProtocol` registry, RPC worker pools, and whatever
  fault/failover/reshard managers are armed;
* virtual time advances **as fast as possible**: :meth:`run_pending`
  drains everything in flight in one call;
* when the simulated read/write/transaction resolves, the request's
  completion callback fires *inside* the simulation (so all metrics
  are recorded in deterministic virtual time) and the gateway then
  completes the socket-side future.

The bridge itself never touches the wall clock, asyncio, or sockets —
:meth:`replay` runs an :class:`~repro.serve.ops.ArrivalTrace` to
completion synchronously, which is what makes serving deterministic:
same seed + same trace => byte-identical metrics snapshot
(``tests/test_serve.py`` pins this).

Concurrency within the simulation is served by *session pools*:
:class:`~repro.objstore.session.ReaderSession` holds a private landing
buffer (two concurrent lookups on one session would collide), so the
bridge checks sessions out per request and returns them on completion.
Pools grow on demand and allocation order is deterministic under
replay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.common.errors import ConfigError
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager
from repro.serve.metrics import MetricsRegistry
from repro.serve.ops import ArrivalTrace, TimedOp
from repro.serve.settings import ServeSettings
from repro.sim.stats import Samples

@dataclass
class OpResult:
    """One completed request, stamped in virtual time."""

    op: TimedOp
    status: str
    started_ns: float
    finished_ns: float
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_ns(self) -> float:
        return self.finished_ns - self.started_ns

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op_id": self.op.op_id,
            "kind": self.op.kind,
            "status": self.status,
            "latency_ns": self.latency_ns,
            **self.detail,
        }


@dataclass
class ReplayReport:
    """Aggregate outcome of one trace replay (all in virtual time)."""

    offered_qps: float
    n_ops: int
    n_ok: int
    n_errors: int
    errors_by_status: Dict[str, int]
    achieved_qps: float
    makespan_ns: float
    p50_ns: float
    p95_ns: float
    p99_ns: float
    mean_ns: float
    undetected_violations: int
    results: List[OpResult] = field(default_factory=list)

    @property
    def achieved_ratio(self) -> float:
        """Achieved over offered throughput — the saturation signal:
        ~1.0 while the cluster keeps up, collapsing once completions
        lag arrivals."""
        if self.offered_qps <= 0:
            return 1.0
        return self.achieved_qps / self.offered_qps

    def to_row(self) -> Dict[str, float]:
        return {
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "achieved_ratio": self.achieved_ratio,
            "n_ops": self.n_ops,
            "n_ok": self.n_ok,
            "n_errors": self.n_errors,
            "p50_ns": self.p50_ns,
            "p95_ns": self.p95_ns,
            "p99_ns": self.p99_ns,
            "mean_ns": self.mean_ns,
            "makespan_ns": self.makespan_ns,
            "undetected_violations": self.undetected_violations,
        }


class _SessionPool:
    """A bounded FIFO pool of client sessions — one of the simulated
    server's "thread pools".  Sessions are materialized on demand by
    ``factory()`` up to ``limit``; beyond it, requests queue for a
    release in arrival order, counted on ``waits{pool=label}``."""

    def __init__(self, sim, waits, factory, limit: int, label: str):
        self._sim = sim
        self._waits = waits
        self._factory = factory
        self._limit = limit
        self._label = label
        self._idle: List[Any] = []
        self._live = 0
        self._waiters: Deque = deque()

    def acquire(self):
        """Check a session out, queueing FIFO when all ``limit`` are
        busy (a simulation generator)."""
        while True:
            if self._idle:
                return self._idle.pop()
            if self._live < self._limit:
                self._live += 1
                return self._factory()
            waiter = self._sim.event()
            self._waiters.append(waiter)
            self._waits.inc(pool=self._label)
            yield waiter

    def release(self, session) -> None:
        self._idle.append(session)
        if self._waiters:
            self._waiters.popleft().succeed()


class SimBridge:
    """Owns the simulated cluster and injects requests into it."""

    def __init__(self, settings: ServeSettings):
        settings.validate()
        self.settings = settings
        self.kv = ShardedKV(ShardedConfig.of(settings))
        self.txn = TxnManager(self.kv)
        self.sim = self.kv.cluster.sim
        self.ready = False

        self._next_client = 0
        self.sessions_created = 0

        self.submitted = 0
        self.completed = 0
        self.latency = Samples("serve_virtual_ns")

        self.metrics = MetricsRegistry()
        m = self.metrics
        self._requests_total = m.counter(
            "repro_requests_total",
            "Requests completed, by op kind and status.",
        )
        self._inflight = m.gauge(
            "repro_requests_inflight",
            "Requests submitted but not yet completed.",
        )
        self._ready_gauge = m.gauge(
            "repro_ready", "1 once the cluster is warm and serving."
        )
        self._latency_hist = m.histogram(
            "repro_request_virtual_ns",
            "Per-request virtual-time latency (ns), by op kind.",
        )
        self._sessions_gauge = m.gauge(
            "repro_sessions_created",
            "Reader/txn sessions the bridge has materialized.",
        )
        self._session_waits = m.counter(
            "repro_session_waits_total",
            "Requests that queued for a free session, by pool.",
        )
        m.add_collector(self._collect_cluster)

        def pool(make, label: str) -> _SessionPool:
            return _SessionPool(
                self.sim,
                self._session_waits,
                lambda: self._new_session(make),
                settings.max_sessions,
                label,
            )

        self._readers = pool(self.kv.reader_session, "reader")
        self._txns = pool(self.txn.session, "txn")

    # ------------------------------------------------------------------
    # bounded session pools (the simulated server's "thread pools")
    # ------------------------------------------------------------------
    def _spread_client(self) -> int:
        client = self._next_client % self.kv.cfg.clients
        self._next_client += 1
        return client

    def _new_session(self, make):
        self.sessions_created += 1
        self._sessions_gauge.set(self.sessions_created)
        return make(self._spread_client())

    # ------------------------------------------------------------------
    # warmup / readiness
    # ------------------------------------------------------------------
    def warm(self) -> int:
        """Read one key from every member shard (through the full
        protocol read path) so caches, RPC planes, and protocol
        instances are exercised before ``/readyz`` goes true.  Runs
        the simulation synchronously; returns the number of warm
        reads consumed."""
        wanted = set(self.kv.member_shards())
        picks: List[str] = []
        for key in self.kv.keys():
            primary = self.kv.primary_of(key)
            if primary in wanted:
                wanted.discard(primary)
                picks.append(key)
            if not wanted:
                break
        consumed = {"n": 0}

        def warm_proc(key: str):
            session = yield from self._readers.acquire()
            try:
                ok = yield from session.lookup(
                    key, self.sim.now + self.settings.request_timeout_ns
                )
            finally:
                self._readers.release(session)
            if ok:
                consumed["n"] += 1

        for key in picks:
            self.sim.process(warm_proc(key))
        self.sim.run()
        self.ready = True
        self._ready_gauge.set(1)
        return consumed["n"]

    # ------------------------------------------------------------------
    # op execution (simulation generators)
    # ------------------------------------------------------------------
    def _run_get(self, op: TimedOp, detail: Dict[str, Any], t_end: float):
        session = yield from self._readers.acquire()
        if self.sim.now >= t_end:
            # The whole budget went to queueing for a session.
            self._readers.release(session)
            return "timeout"
        try:
            ok = yield from session.lookup(op.key, t_end)
        finally:
            self._readers.release(session)
        if not ok:
            return "timeout"
        shard = session.served_by
        version, _data = session.last_read(shard)
        detail["shard"] = shard
        detail["version"] = version
        return "ok"

    def _run_put(self, op: TimedOp, detail: Dict[str, Any], t_end: float):
        reply = yield self.kv.put(self._spread_client(), op.key, t_end=t_end)
        if reply is None:
            return "timeout"
        detail["primary"] = self.kv.current_primary(self.kv.key_index(op.key))
        return "ok"

    def _run_txn(self, op: TimedOp, detail: Dict[str, Any], t_end: float):
        session = yield from self._txns.acquire()
        if self.sim.now >= t_end:
            self._txns.release(session)
            return "timeout"
        try:
            outcome = yield from session.run(
                list(op.read_keys),
                list(op.write_keys),
                t_end=t_end,
                max_attempts=self.settings.txn_max_attempts,
            )
        finally:
            self._txns.release(session)
        detail["attempts"] = outcome.attempts
        detail["aborts"] = outcome.aborts
        if outcome.committed:
            return "ok"
        return "timeout" if outcome.timed_out else "conflict"

    def _op_proc(self, op: TimedOp):
        started = self.sim.now
        # The deadline counts from *arrival*: time spent queueing for a
        # session eats the same budget the cluster op does, so overload
        # answers 504 instead of stretching the backlog forever.
        t_end = started + self.settings.request_timeout_ns
        detail: Dict[str, Any] = {}
        try:
            if op.kind == "get":
                status = yield from self._run_get(op, detail, t_end)
            elif op.kind == "put":
                status = yield from self._run_put(op, detail, t_end)
            else:
                status = yield from self._run_txn(op, detail, t_end)
        except ConfigError as exc:
            status = "not_found"
            detail["error"] = str(exc)
        return OpResult(
            op=op,
            status=status,
            started_ns=started,
            finished_ns=self.sim.now,
            detail=detail,
        )

    # ------------------------------------------------------------------
    # injection and driving
    # ------------------------------------------------------------------
    def submit(
        self,
        op: TimedOp,
        at_ns: Optional[float] = None,
        callback: Optional[Callable[[OpResult], None]] = None,
    ) -> None:
        """Inject ``op`` at virtual time ``max(now, at_ns)`` (now when
        unstamped).  ``callback`` fires inside the simulation when the
        op resolves — after the bridge has recorded its metrics."""
        sim = self.sim
        at = sim.now if at_ns is None else max(at_ns, sim.now)
        self.submitted += 1
        self._inflight.inc()
        sim.call_at(at, self._launch, op, callback)

    def _launch(
        self, op: TimedOp, callback: Optional[Callable[[OpResult], None]]
    ) -> None:
        proc = self.sim.process(self._op_proc(op))
        proc.add_callback(lambda event: self._finish(event.value, callback))

    def _finish(
        self, result: OpResult, callback: Optional[Callable[[OpResult], None]]
    ) -> None:
        self.completed += 1
        self._inflight.dec()
        self._requests_total.inc(op=result.op.kind, code=result.status)
        self._latency_hist.observe(result.latency_ns, op=result.op.kind)
        self.latency.add(result.latency_ns)
        if callback is not None:
            callback(result)

    @property
    def inflight(self) -> int:
        return self.submitted - self.completed

    def run_pending(self) -> float:
        """Run the simulation until everything in flight completes
        (every op carries a virtual deadline, so this always
        terminates).  Returns the virtual time reached."""
        return self.sim.run()

    # ------------------------------------------------------------------
    # deterministic replay
    # ------------------------------------------------------------------
    def replay(self, trace: ArrivalTrace) -> ReplayReport:
        """Run a whole arrival trace to completion in virtual time.

        Every op is scheduled up front at its arrival stamp *relative
        to the current virtual time* (warmup has already advanced the
        clock; shifting the whole trace preserves its pacing), with
        ties broken by trace order through the scheduler's sequence
        numbers.  Then the simulation runs dry.  No wall-clock state is
        consulted anywhere on this path."""
        results: List[OpResult] = []
        base = self.sim.now
        first_arrival = (
            base + trace.ops[0].at_ns if trace.ops else base
        )
        for op in trace.ops:
            self.submit(op, at_ns=base + op.at_ns, callback=results.append)
        end_ns = self.sim.run()
        return self._summarize(trace, results, first_arrival, end_ns)

    def _summarize(
        self,
        trace: ArrivalTrace,
        results: List[OpResult],
        first_arrival: float,
        end_ns: float,
    ) -> ReplayReport:
        lat = Samples("replay_ns")
        errors: Dict[str, int] = {}
        n_ok = 0
        last_finish = first_arrival
        for r in results:
            lat.add(r.latency_ns)
            if r.ok:
                n_ok += 1
            else:
                errors[r.status] = errors.get(r.status, 0) + 1
            if r.finished_ns > last_finish:
                last_finish = r.finished_ns
        makespan = max(last_finish - first_arrival, 0.0)
        achieved = n_ok / makespan * 1e9 if makespan > 0 else 0.0
        return ReplayReport(
            offered_qps=trace.offered_qps,
            n_ops=len(results),
            n_ok=n_ok,
            n_errors=len(results) - n_ok,
            errors_by_status=errors,
            achieved_qps=achieved,
            makespan_ns=makespan,
            p50_ns=lat.percentile(50.0),
            p95_ns=lat.percentile(95.0),
            p99_ns=lat.percentile(99.0),
            mean_ns=lat.mean,
            undetected_violations=self.undetected_violations(),
            results=results,
        )

    # ------------------------------------------------------------------
    # cluster stats -> metrics
    # ------------------------------------------------------------------
    def undetected_violations(self) -> int:
        return sum(
            s.undetected_violations for s in self.kv.all_reader_stats()
        )

    def metrics_snapshot(self, include_volatile: bool = False) -> str:
        """The deterministic metrics rendering (volatile wall-clock
        series excluded by default — this string is the determinism
        test's artifact)."""
        return self.metrics.render(include_volatile=include_volatile)

    def _collect_cluster(self):
        """Scrape-time collector: every per-shard counter the cluster
        already keeps, exported as ``repro_shard_*``/``repro_txn_*``
        series with a ``shard`` label, plus cluster-wide series.  The
        full catalog is documented in docs/serving.md and asserted by
        the serve-smoke CI job."""
        samples = []
        for row in self.kv.shard_load():
            shard = str(int(row["shard"]))
            for column, value in row.items():
                if column == "shard":
                    continue
                kind = "gauge" if column in ("serving", "member", "objects") else "counter"
                samples.append(
                    (
                        f"repro_shard_{column}",
                        kind,
                        f"Per-shard {column} (cluster-side counter).",
                        {"shard": shard},
                        float(value),
                    )
                )
        for row in self.txn.txn_rows():
            shard = str(int(row["shard"]))
            for column, value in row.items():
                if column == "shard":
                    continue
                samples.append(
                    (
                        f"repro_txn_{column}",
                        "counter",
                        f"Per-shard transaction {column}.",
                        {"shard": shard},
                        float(value),
                    )
                )
        fabric = self.kv.cluster.fabric
        samples.extend(
            [
                (
                    "repro_partition_refusals_total",
                    "counter",
                    "Conversations refused by severed links.",
                    {},
                    float(fabric.partition_refusals),
                ),
                (
                    "repro_virtual_time_ns",
                    "gauge",
                    "Current virtual time of the owned simulator.",
                    {},
                    float(self.sim.now),
                ),
                (
                    "repro_sim_events_fired_total",
                    "counter",
                    "Events the owned simulator has dispatched.",
                    {},
                    float(self.sim.events_fired),
                ),
                (
                    "repro_sim_events_scheduled_total",
                    "counter",
                    "Events ever scheduled on the owned simulator.",
                    {},
                    float(self.sim.events_scheduled),
                ),
            ]
        )
        return samples
