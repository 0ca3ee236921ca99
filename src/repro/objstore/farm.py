"""FaRM-like framework on soNUMA: timed key-value lookups (§6, Fig. 9).

Two builds, as evaluated in the paper:

* **baseline** — the original FaRM object layout (per-cache-line
  versions); lookups use plain one-sided reads, land in an intermediate
  system buffer, and the core strips/checks versions before handing the
  clean object to the application (non-zero-copy).
* **sabre** — the store keeps the unmodified layout; lookups are
  SABRes that write the already-clean object straight into the
  application buffer (zero-copy), and atomicity comes from the CQ
  success flag.

Each completed lookup records the paper's latency breakdown components
(transfer / framework / version stripping / application), feeding
Figs. 1 and 9a directly.  Writes ship to the data owner over an RPC
(§2.1) and run the odd/even version protocol there.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.config import ClusterConfig, LayeredConfig
from repro.common.costs import DEFAULT_COSTS, SoftwareCosts
from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.objstore.layout import (
    PerCacheLineLayout,
    RawLayout,
    stamped_payload,
    torn_words,
)
from repro.objstore.store import ObjectStore
from repro.sim.stats import Breakdown, Samples, ThroughputMeter, meter_window
from repro.sonuma.node import Cluster
from repro.sonuma.rpc import RpcEndpoint

#: Breakdown components of Figs. 1 and 9a.
COMPONENTS = ("transfer", "framework", "stripping", "application")


@dataclass
class FarmConfig(LayeredConfig):
    """One FaRM experiment configuration.

    ``object_size`` is the total object footprint including the 8 B
    header, as in the microbenchmark.
    """

    use_sabre: bool = False
    object_size: int = 1024
    n_objects: int = 4096
    readers: int = 1
    duration_ns: float = 200_000.0
    warmup_ns: float = 25_000.0
    seed: int = 1
    version_bits: int = 16
    costs: SoftwareCosts = field(default_factory=lambda: DEFAULT_COSTS)
    cluster: Optional[ClusterConfig] = None

    def validate(self) -> None:
        if self.object_size < 16:
            raise ConfigError("object_size must cover the header plus data")
        if self.readers < 1:
            raise ConfigError("need at least one reader")
        if self.n_objects < 1:
            raise ConfigError("need at least one object")

    @property
    def payload_len(self) -> int:
        return self.object_size - 8


@dataclass
class FarmResult:
    config: FarmConfig
    breakdown: Breakdown
    op_latency: Samples
    goodput_gbps: float
    ops_completed: int
    conflicts: int
    undetected_violations: int

    @property
    def mean_latency_ns(self) -> float:
        return self.op_latency.mean


class FarmKV:
    """A two-node FaRM deployment: node 0 owns the data, node 1 runs
    the read-only key-value lookup application."""

    def __init__(self, cfg: FarmConfig):
        cfg.validate()
        self.cfg = cfg
        self.cluster = Cluster(cfg.cluster or ClusterConfig())
        self.owner = self.cluster.node(0)
        self.client = self.cluster.node(1)
        layout = (
            RawLayout() if cfg.use_sabre else PerCacheLineLayout(cfg.version_bits)
        )
        self.store = ObjectStore(self.owner.phys, layout, name="farm")
        self.store.populate(
            range(cfg.n_objects), stamped_payload(0, cfg.payload_len)
        )
        self._keys: Dict[str, int] = {
            f"key-{i}": i for i in range(cfg.n_objects)
        }
        self.breakdown = Breakdown(COMPONENTS)
        self.op_latency = Samples("farm_op_ns")
        self.meter = ThroughputMeter()
        self.conflicts = 0
        self.undetected_violations = 0
        self._rpc_owner = RpcEndpoint(self.owner, workers=2, costs=cfg.costs)
        self._rpc_client = RpcEndpoint(self.client, workers=2, costs=cfg.costs)
        self._rpc_owner.register("farm_put", self._serve_put)

    def close(self) -> None:
        """Close the rack this deployment built (see
        :meth:`~repro.sonuma.node.Cluster.close`)."""
        self.cluster.close()

    # ------------------------------------------------------------------
    # write path: RPC to the data owner (§2.1)
    # ------------------------------------------------------------------
    def _serve_put(self, payload: bytes):
        """Owner-side put handler: functional update + service time."""
        obj_id = int.from_bytes(payload[:8], "little")
        data = payload[8:]
        self.store.write(obj_id, data)
        return b"\x01", self.cfg.costs.writer_update_ns(len(data))

    def put(self, key: str, data: bytes):
        """Client-side put; returns the RPC completion event."""
        obj_id = self._keys[key]
        return self._rpc_client.call(
            self.owner.node_id, "farm_put", obj_id.to_bytes(8, "little") + data
        )

    # ------------------------------------------------------------------
    # read path: the Fig. 9 lookup loop
    # ------------------------------------------------------------------
    def reader_process(self, thread: int, t_end: float):
        sim = self.cluster.sim
        cfg = self.cfg
        costs = cfg.costs
        layout = self.store.layout
        rng = make_rng(cfg.seed, "farm-reader", thread)
        object_ids = range(cfg.n_objects)
        wire = layout.wire_size(cfg.payload_len)
        buf = self.client.alloc_buffer(wire)

        while sim.now < t_end:
            obj_id = rng.choice(object_ids)
            handle = self.store.handle(obj_id)
            t0 = sim.now
            components = dict.fromkeys(COMPONENTS, 0.0)
            while True:
                # FaRM framework: request setup, index lookup, (baseline
                # only) intermediate-buffer management.
                fw = costs.framework_ns(zero_copy=cfg.use_sabre, wire_bytes=wire)
                components["framework"] += fw
                yield fw

                if cfg.use_sabre:
                    ev = self.client.sabre_read(
                        self.owner.node_id, handle.base_addr, wire, buf
                    )
                else:
                    ev = self.client.remote_read(
                        self.owner.node_id, handle.base_addr, wire, buf
                    )
                result = yield ev
                components["transfer"] += result.timings.end_to_end_ns

                if cfg.use_sabre:
                    ok = result.success
                    data = None
                    if ok:
                        raw = self.client.read_local(buf, wire)
                        data = layout.unpack(raw, cfg.payload_len).data
                        # Zero-copy: the app walks an LLC-resident object.
                        app = costs.app_consume_ns(cfg.payload_len, "llc")
                        components["application"] += app
                        yield app
                else:
                    strip_ns = layout.check_cost_ns(costs, cfg.payload_len)
                    components["stripping"] += strip_ns
                    yield strip_ns
                    raw = self.client.read_local(buf, wire)
                    strip = layout.unpack(raw, cfg.payload_len)
                    ok = strip.ok
                    data = strip.data
                    if ok:
                        # The strip left the clean object in the L1d.
                        app = costs.app_consume_ns(cfg.payload_len, "l1")
                        components["application"] += app
                        yield app

                if ok:
                    if data is not None and torn_words(data)[0]:
                        self.undetected_violations += 1
                    self.op_latency.add(sim.now - t0)
                    self.breakdown.add_op(**components)
                    self.meter.record(cfg.payload_len)
                    break
                self.conflicts += 1
                if sim.now >= t_end:
                    break

    # ------------------------------------------------------------------
    def run_readonly(self) -> FarmResult:
        """The Fig. 9 experiment: read-only lookups from the client."""
        sim = self.cluster.sim
        cfg = self.cfg
        for thread in range(cfg.readers):
            sim.process(self.reader_process(thread, cfg.duration_ns))
        sim.process(
            meter_window(sim, [self.meter], cfg.warmup_ns, cfg.duration_ns)
        )
        sim.run()
        return FarmResult(
            config=cfg,
            breakdown=self.breakdown,
            op_latency=self.op_latency,
            goodput_gbps=self.meter.gbps,
            ops_completed=self.meter.ops_total,
            conflicts=self.conflicts,
            undetected_violations=self.undetected_violations,
        )


def run_farm(cfg: FarmConfig) -> FarmResult:
    with closing(FarmKV(cfg)) as kv:
        return kv.run_readonly()
