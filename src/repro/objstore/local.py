"""Local read throughput (Fig. 10).

LightSABRes never touch local reads, but they *enable* keeping the
object store unmodified (no per-cache-line versions), which makes local
reads faster: no stripping, no wire inflation, no extra memory traffic
for the stripped copy.  This kernel runs 15 reader threads against a
node-local store and measures application throughput for both layouts.

The model: each lookup pays a fixed API/key-lookup cost, then the core
streams the object — computation (strip/compare for perCL, plain reads
otherwise) overlapped with the object's memory traffic through the
shared DRAM channels, so contention between the 15 readers is emergent
rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.config import ClusterConfig, LayeredConfig
from repro.common.costs import DEFAULT_COSTS, SoftwareCosts
from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.common.units import CACHE_BLOCK
from repro.objstore.layout import PerCacheLineLayout, RawLayout, stamped_payload
from repro.objstore.store import ObjectStore
from repro.sim.stats import Samples, ThroughputMeter, meter_window
from repro.sonuma.node import Cluster


@dataclass
class LocalReadConfig(LayeredConfig):
    """``object_size`` includes the 8 B header, as elsewhere."""

    percl_layout: bool = False
    object_size: int = 1024
    n_objects: int = 0  # 0 = auto-size working set to 4x the LLC
    readers: int = 15
    duration_ns: float = 150_000.0
    warmup_ns: float = 20_000.0
    seed: int = 1
    costs: SoftwareCosts = field(default_factory=lambda: DEFAULT_COSTS)
    cluster: Optional[ClusterConfig] = None

    def validate(self) -> None:
        if self.object_size < 16:
            raise ConfigError("object_size must cover the header plus data")
        if self.readers < 1:
            raise ConfigError("need at least one reader")

    @property
    def payload_len(self) -> int:
        return self.object_size - 8


@dataclass
class LocalReadResult:
    config: LocalReadConfig
    goodput_gbps: float
    ops_completed: int
    op_latency: Samples


def _bulk_dram(node, addr: int, nbytes: int) -> float:
    """Reserve DRAM channel time for a streaming access; returns the
    completion time (channels are block-interleaved, so the stream
    spreads across all of them)."""
    done = node.sim.now
    offset = 0
    while offset < nbytes:
        done = max(done, node.chip.dram.request(addr + offset, CACHE_BLOCK))
        offset += CACHE_BLOCK
    return done


def run_local_reads(cfg: LocalReadConfig) -> LocalReadResult:
    cfg.validate()
    with Cluster(cfg.cluster or ClusterConfig()) as cluster:
        node = cluster.node(0)
        sim = cluster.sim
        costs = cfg.costs
        layout = PerCacheLineLayout() if cfg.percl_layout else RawLayout()
        store = ObjectStore(node.phys, layout, name="local")

        wire = layout.wire_size(cfg.payload_len)
        n_objects = cfg.n_objects
        if n_objects == 0:
            # Working set 4x the LLC so reads are memory-bound (§7.3 keeps
            # remote accesses missing in the LLC; we mirror that locally).
            llc_bytes = cluster.cfg.node.caches.llc_bytes
            n_objects = max(16, (4 * llc_bytes) // wire)
        store.populate(range(n_objects), stamped_payload(0, cfg.payload_len))

        meter = ThroughputMeter()
        latency = Samples("local_read_ns")

        def reader(thread: int):
            rng = make_rng(cfg.seed, "local-reader", thread)
            while sim.now < cfg.duration_ns:
                obj_id = rng.randrange(n_objects)
                handle = store.handle(obj_id)
                t0 = sim.now
                yield costs.local_fixed_ns
                if cfg.percl_layout:
                    # Strip+check reads the inflated wire image and writes a
                    # clean copy.  Traffic: the wire image in, plus the
                    # clean copy's write-allocate fill (RFO) and its dirty
                    # write-back when it ages out of the cache.
                    compute = layout.check_cost_ns(costs, cfg.payload_len)
                    traffic = wire + 2 * cfg.payload_len
                else:
                    # Unmodified store: the application walks the object in
                    # place; traffic is just the object itself.
                    compute = cfg.payload_len * costs.local_read_ns_per_byte
                    traffic = cfg.object_size
                mem_done = _bulk_dram(node, handle.base_addr, traffic)
                compute_done = sim.now + compute
                finish = max(mem_done, compute_done)
                yield finish - sim.now
                latency.add(sim.now - t0)
                meter.record(cfg.payload_len)

        for t in range(cfg.readers):
            sim.process(reader(t))
        sim.process(meter_window(sim, [meter], cfg.warmup_ns, cfg.duration_ns))
        sim.run()
        return LocalReadResult(
            config=cfg,
            goodput_gbps=meter.gbps,
            ops_completed=meter.ops_total,
            op_latency=latency,
        )
