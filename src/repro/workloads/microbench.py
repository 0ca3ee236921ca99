"""The paper's microbenchmark (§6): reader threads performing atomic
remote object reads in a tight loop, writer threads updating objects in
destination-local memory under the odd/even version protocol.

Every consumed read is audited against ground truth (payload words
stamped with the committed version): a mechanism that lets a torn read
through increments ``undetected_violations`` — zero for LightSABRes by
construction, non-zero for the Fig. 2 straw man.

The per-mechanism read logic lives in :mod:`repro.objstore.protocols`;
the reader loops here are mechanism-agnostic and dispatch through the
:class:`~repro.objstore.protocols.ReadProtocol` registry.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.atomicity.locks import is_locked
from repro.common.config import ClusterConfig, LayeredConfig, SabreMode
from repro.common.costs import DEFAULT_COSTS, SoftwareCosts
from repro.common.errors import ConfigError, SimulationError
from repro.common.rng import make_rng
from repro.objstore.layout import stamped_payload
from repro.objstore.protocols import get_protocol, protocol_names
from repro.objstore.store import ObjectStore
from repro.sim.resources import FifoResource
from repro.sim.stats import ReadStats, Samples, meter_window
from repro.sonuma.node import Cluster, SoNode
from repro.workloads.generators import CrewPartition, make_picker

#: Mechanisms the microbenchmark understands — the registered
#: :class:`ReadProtocol` names.  ``remote_read`` is the pure-transport
#: baseline of Fig. 7 (no atomicity enforcement at all); ``drtm_lock``
#: is Table 1's source-side locking cell.  Snapshot at import time;
#: :meth:`MicrobenchConfig.validate` consults the live registry, so
#: protocols registered later are accepted too.
MECHANISMS = protocol_names()


@dataclass
class MicrobenchConfig(LayeredConfig):
    """``object_size`` is the total in-store object footprint including
    its 8 B version header (so a 64 B object is a true single-block
    transfer, as in Fig. 7a); the application payload is 8 bytes less.

    ``duration_ns`` is ``t_end``, the instant the throughput meter
    stops.  A synchronous run (``async_window == 1``) then lets every
    reader finish the operation it is in, whose latency is a sample
    like any other.  An asynchronous run (``async_window > 1``, the
    peak-bandwidth mode) ends at ``t_end``: the transfers still in its
    windows are abandoned, and everything it reports covers
    ``[0, t_end]``.
    """

    mechanism: str = "sabre"
    object_size: int = 1024
    n_objects: int = 100
    readers: int = 1
    writers: int = 0
    duration_ns: float = 150_000.0
    warmup_ns: float = 20_000.0
    async_window: int = 1  # outstanding ops per reader thread (1 = sync)
    seed: int = 1
    version_bits: int = 16
    writer_think_ns: float = 0.0
    #: Zipfian skew for reader accesses (0.0 = uniform, YCSB-style ~0.99).
    zipf_theta: float = 0.0
    costs: SoftwareCosts = field(default_factory=lambda: DEFAULT_COSTS)
    cluster: Optional[ClusterConfig] = None

    def validate(self) -> None:
        get_protocol(self.mechanism)  # raises ConfigError when unknown
        if self.object_size < 16:
            raise ConfigError("object_size must cover the 8 B header plus data")
        if self.readers < 1:
            raise ConfigError("need at least one reader")
        if self.warmup_ns >= self.duration_ns:
            raise ConfigError("warmup must end before the run does")
        if self.async_window < 1:
            raise ConfigError("async_window must be >= 1")

    @property
    def payload_len(self) -> int:
        """Application data bytes per object (header excluded)."""
        return self.object_size - 8


@dataclass
class MicrobenchResult:
    """``goodput_gbps`` and ``ops_completed`` cover the meter's window
    ``[warmup_ns, t_end]``.  The latency samples and every counter
    cover the whole run: ``[0, t_end]`` plus each reader's last
    operation when synchronous, exactly ``[0, t_end]`` when
    ``async_window > 1`` (see :class:`MicrobenchConfig`)."""

    config: MicrobenchConfig
    op_latency: Samples
    transfer_latency: Samples
    goodput_gbps: float
    ops_completed: int
    sabre_aborts: int
    software_conflicts: int
    retries: int
    undetected_violations: int
    writer_updates: int
    destination_counters: Dict[str, int]

    @property
    def mean_op_latency_ns(self) -> float:
        return self.op_latency.mean

    @property
    def mean_transfer_latency_ns(self) -> float:
        return self.transfer_latency.mean


class TimedWriter:
    """A writer thread on the data-owning node (§6): repeatedly updates
    its CREW subset in local memory with paced block stores."""

    def __init__(
        self,
        node: SoNode,
        store: ObjectStore,
        object_ids: List[int],
        core: int,
        seed: int,
        costs: SoftwareCosts,
        think_ns: float = 0.0,
        use_lock_table: bool = False,
    ):
        self.node = node
        self.store = store
        self.object_ids = object_ids
        self.core = core
        self.costs = costs
        self.think_ns = think_ns
        self.use_lock_table = use_lock_table
        self._rng = make_rng(seed, "writer", core)
        self.updates = 0

    def process(self, until_ns: float):
        sim = self.node.sim
        if not self.object_ids:
            return
            yield  # pragma: no cover - makes this a generator
        while sim.now < until_ns:
            obj_id = self._rng.choice(self.object_ids)
            handle = self.store.handle(obj_id)
            if self.use_lock_table:
                acquired = False
                while not acquired:
                    acquired = self.node.lock_table.try_write_lock(handle.base_addr)
                    if acquired:
                        break
                    yield 25.0
                    if sim.now >= until_ns:
                        return
            while is_locked(self.store.current_version(obj_id)):
                # A DrTM-style reader holds the version-word lock (or a
                # concurrent writer in LOCKING mode): wait it out.
                yield 25.0
                if sim.now >= until_ns:
                    return
            committed = self.store.current_version(obj_id) + 2
            data = stamped_payload(committed, handle.data_len)
            steps, _version = self.store.update_steps(obj_id, data)
            yield self.costs.writer_fixed_ns
            for addr, chunk in steps:
                latency = self.node.chip.write_block(self.core, addr, chunk)
                yield max(latency, self.costs.writer_block_ns)
            if self.use_lock_table:
                self.node.lock_table.write_unlock(handle.base_addr)
            self.updates += 1
            if self.think_ns > 0:
                yield self.think_ns


class Microbenchmark:
    """Builds the 2-node system and runs the reader/writer mix."""

    def __init__(self, cfg: MicrobenchConfig):
        cfg.validate()
        self.cfg = cfg
        protocol_cls = get_protocol(cfg.mechanism)
        self.cluster = Cluster(cfg.cluster or ClusterConfig())
        self.dst = self.cluster.node(0)  # data owner
        self.src = self.cluster.node(1)  # readers
        self.store = ObjectStore(
            self.dst.phys,
            protocol_cls.make_layout(cfg.version_bits),
            name="microbench",
        )
        self.store.populate(
            range(cfg.n_objects), stamped_payload(0, cfg.payload_len)
        )
        self.stats = ReadStats()
        self.writers: List[TimedWriter] = []
        self.protocol = protocol_cls(
            sim=self.cluster.sim,
            src=self.src,
            dst=self.dst,
            store=self.store,
            payload_len=cfg.payload_len,
            costs=cfg.costs,
            stats=self.stats,
        )

    def close(self) -> None:
        """Close the rack this benchmark built (see
        :meth:`~repro.sonuma.node.Cluster.close`)."""
        self.cluster.close()

    # ------------------------------------------------------------------
    def _reader_slot(self, thread: int, slot: int, t_end: float):
        """Fig. 7a-style synchronous loop: pick, read atomically via the
        configured protocol, consume, repeat."""
        sim = self.cluster.sim
        picker = self._picker((thread, slot))
        wire = self.store.layout.wire_size(self.cfg.payload_len)
        buf = self.src.alloc_buffer(wire)

        while sim.now < t_end:
            obj_id = picker.pick()
            handle = self.store.handle(obj_id)
            yield from self.protocol.read_once(handle, buf, wire, t_end)

    # ------------------------------------------------------------------
    def _picker(self, label):
        cfg = self.cfg
        distribution = "zipfian" if cfg.zipf_theta > 0.0 else "uniform"
        return make_picker(
            cfg.n_objects, cfg.seed, distribution, cfg.zipf_theta, label
        )

    # ------------------------------------------------------------------
    def _async_thread(self, thread: int, t_end: float):
        """Fig. 7b issue loop: one thread keeps ``async_window`` ops in
        flight, paying only the per-op issue cost.  Peak-bandwidth mode:
        post-transfer software is assumed overlapped.

        One landing buffer is preallocated per in-flight window slot and
        recycled as completions drain — the window resource guarantees a
        free buffer whenever a slot is granted."""
        sim = self.cluster.sim
        cfg = self.cfg
        picker = self._picker(thread)
        wire = self.store.layout.wire_size(cfg.payload_len)
        window = FifoResource(sim, cfg.async_window)
        free_bufs = [self.src.alloc_buffer(wire) for _ in range(cfg.async_window)]
        issue_gap = cfg.costs.microbench_loop_ns

        def on_complete(event, buf):
            result = event.value
            if self.protocol.async_ok(result):
                self.stats.op_latency.add(result.timings.end_to_end_ns)
                self.stats.transfer_latency.add(result.timings.end_to_end_ns)
                self.stats.meter.record(cfg.payload_len)
            free_bufs.append(buf)
            window.release()

        while sim.now < t_end:
            yield window.acquire()
            yield issue_gap
            handle = self.store.handle(picker.pick())
            buf = free_bufs.pop()
            ev = self.protocol.issue(handle, wire, buf)
            ev.add_callback(lambda event, buf=buf: on_complete(event, buf))

    def run(self) -> MicrobenchResult:
        sim = self.cluster.sim
        cfg = self.cfg
        t_end = cfg.duration_ns

        if cfg.async_window > 1:
            for thread in range(cfg.readers):
                sim.process(self._async_thread(thread, t_end))
        else:
            for thread in range(cfg.readers):
                sim.process(self._reader_slot(thread, 0, t_end))

        use_locks = (
            cfg.mechanism == "sabre"
            and self.cluster.cfg.node.sabre.mode is SabreMode.LOCKING
        )
        partition = CrewPartition(range(cfg.n_objects), cfg.writers)
        for w in range(cfg.writers):
            writer = TimedWriter(
                self.dst,
                self.store,
                partition.subset(w),
                core=w % self.cluster.cfg.node.cores.count,
                seed=cfg.seed + 17,
                costs=cfg.costs,
                think_ns=cfg.writer_think_ns,
                use_lock_table=use_locks,
            )
            self.writers.append(writer)
            sim.process(writer.process(t_end))

        meter = self.stats.meter
        sim.process(meter_window(sim, [meter], cfg.warmup_ns, t_end))
        if cfg.async_window > 1:
            # The stop instant as ``meter_window``'s two delays reach
            # it, which need not equal ``t_end`` bit for bit.  Past it
            # there is only the drain of the windows' in-flight
            # transfers, which the (stopped) meter ignores: end the run
            # there.
            sim.run(until=(sim.now + cfg.warmup_ns) + (t_end - cfg.warmup_ns))
            sim.drop_pending()
        else:
            sim.run()
        if meter.recording:
            raise SimulationError(
                f"run ended at {sim.now} ns with the meter still recording"
            )

        return MicrobenchResult(
            config=cfg,
            op_latency=self.stats.op_latency,
            transfer_latency=self.stats.transfer_latency,
            goodput_gbps=meter.gbps,
            ops_completed=meter.ops_total,
            sabre_aborts=self.stats.sabre_aborts,
            software_conflicts=self.stats.software_conflicts,
            retries=self.stats.retries,
            undetected_violations=self.stats.undetected_violations,
            writer_updates=sum(w.updates for w in self.writers),
            destination_counters=self.dst.counters.as_dict(),
        )


def run_microbench(cfg: MicrobenchConfig) -> MicrobenchResult:
    """Build and run one microbenchmark configuration."""
    with closing(Microbenchmark(cfg)) as bench:
        return bench.run()
