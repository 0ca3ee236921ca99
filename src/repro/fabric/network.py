"""Point-to-point lossless fabric between soNUMA nodes.

Table 2: fixed 35 ns latency per hop, 100 GBps links.  The evaluated
system is two directly connected nodes (one hop); larger topologies
route along a ring of nodes with one hop per traversed link, which is
enough for the paper's latency model ("fixed latency per hop").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.config import FabricConfig
from repro.common.errors import ConfigError
from repro.fabric.packets import Packet
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthServer

PacketHandler = Callable[[Packet], None]


class LinkFault:
    """One active degradation on a directed link — the token returned
    by :meth:`Fabric.degrade_link` and consumed by
    :meth:`Fabric.restore_link`.

    Tokens on the same link *compose*: latency and bandwidth
    multipliers multiply, and ``drop`` windows OR together.  ``drop``
    severs *new* conversations (callers fail fast with a typed
    :class:`~repro.common.errors.LinkPartitionedError`); packets are
    never physically discarded, because the fabric is lossless and the
    protocols above it (SABRe registration-before-request, RPC
    request/reply pairing) are built on that guarantee.
    """

    __slots__ = ("key", "drop", "latency_mult", "bw_mult")

    def __init__(
        self,
        key: Tuple[int, int],
        drop: bool,
        latency_mult: float,
        bw_mult: float,
    ):
        self.key = key
        self.drop = drop
        self.latency_mult = latency_mult
        self.bw_mult = bw_mult


class Link:
    """One direction of a node-to-node link: the serializer at the link
    bandwidth, the fixed propagation per hop and the packet count.
    :meth:`Fabric.send` does the per-packet arithmetic over them."""

    __slots__ = ("sim", "cfg", "hops", "server", "packets_sent", "_floor_ns", "_header_bytes")

    def __init__(
        self, sim: Simulator, cfg: FabricConfig, hops: int = 1, name: str = ""
    ):
        if hops < 1:
            raise ConfigError(f"link needs >= 1 hop, got {hops}")
        self.sim = sim
        self.cfg = cfg
        self.hops = hops
        self.server = BandwidthServer(sim, cfg.link_gbps, name)
        self.packets_sent = 0
        self._floor_ns = hops * cfg.hop_latency_ns
        self._header_bytes = cfg.header_bytes


class Fabric:
    """All-pairs connectivity for a small rack of nodes.

    Each ordered node pair gets a dedicated link whose hop count is the
    ring distance between the nodes (2 nodes -> always 1 hop, matching
    the paper's directly-connected evaluation).
    """

    def __init__(self, sim: Simulator, cfg: FabricConfig, nodes: int):
        if nodes < 1:
            raise ConfigError(f"fabric needs >= 1 node, got {nodes}")
        self.sim = sim
        self.cfg = cfg
        self.nodes = nodes
        self._links: Dict[tuple[int, int], Link] = {}
        self._handlers: Dict[int, PacketHandler] = {}
        #: (src, dst) -> (link, dst handler, link server, header bytes,
        #: floor ns): the resolved fast path for :meth:`send` with the
        #: per-link constants pre-extracted, built lazily and dropped
        #: when a handler changes.
        self._routes: Dict[tuple[int, int], tuple] = {}
        self._alive = [True] * nodes
        self.packets_dropped = 0
        #: (src, dst) -> active fault tokens on that directed link.
        self._link_faults: Dict[Tuple[int, int], List[LinkFault]] = {}
        #: (src, dst) -> composed (drop, latency_mult, bw_mult) — the
        #: degradation table :meth:`send` consults.  Kept separate from
        #: the token lists so the hot path reads one dict entry.
        self._degraded: Dict[Tuple[int, int], Tuple[bool, float, float]] = {}
        #: True iff any degradation is active: the only cost the fault
        #: layer adds to a healthy fabric's per-packet path.
        self._faulty = False
        #: New calls/posts refused because a drop window severed the
        #: link (incremented by the endpoints that fail fast).
        self.partition_refusals = 0
        #: Per-node clock skew: node ``i`` observes membership
        #: transitions ``_skew[i]`` ns late (its lease view is stale).
        self._skew = [0.0] * nodes
        self._skewed = False
        #: Per-node membership transition log ``(when, alive)`` and the
        #: state before the oldest retained entry — what a skewed
        #: observer's :meth:`observed_alive` replays.
        self._lease_log: List[List[Tuple[float, bool]]] = [[] for _ in range(nodes)]
        self._lease_base = [True] * nodes

    def attach(self, node_id: int, handler: PacketHandler) -> None:
        """Register the packet sink for one node's NI."""
        if not 0 <= node_id < self.nodes:
            raise ConfigError(f"node {node_id} outside fabric of {self.nodes}")
        self._handlers[node_id] = handler
        for key in [k for k in self._routes if k[1] == node_id]:
            del self._routes[key]

    # ------------------------------------------------------------------
    # membership (the failover subsystem's lease view)
    # ------------------------------------------------------------------
    def alive(self, node_id: int) -> bool:
        return self._alive[node_id]

    def set_alive(self, node_id: int, alive: bool) -> None:
        """Flip one node's membership.  A dead node neither sends nor
        receives: packets from or to it are silently dropped, which is
        how a crash looks to everyone else on a lossless fabric.

        Membership is deliberately *orthogonal* to link degradation: a
        node that crashes inside a partition window keeps its fault
        tokens, and the injector restores them on schedule regardless
        of the node's aliveness — so a recovered node comes back with
        clean link tables once the window closes, never with leaked
        degradation state."""
        if not 0 <= node_id < self.nodes:
            raise ConfigError(f"node {node_id} outside fabric of {self.nodes}")
        if alive != self._alive[node_id]:
            self._alive[node_id] = alive
            log = self._lease_log[node_id]
            log.append((self.sim._now, alive))
            if self._skewed:
                # Keep the log bounded: transitions no skewed observer
                # can still see fold into the base state.
                horizon = self.sim._now - max(self._skew)
                while log and log[0][0] <= horizon:
                    self._lease_base[node_id] = log.pop(0)[1]
            else:
                self._lease_base[node_id] = alive
                log.clear()

    # ------------------------------------------------------------------
    # clock skew (stale lease views)
    # ------------------------------------------------------------------
    def set_clock_skew(self, node_id: int, skew_ns: float) -> None:
        """Give ``node_id`` a stale lease view: it observes membership
        transitions ``skew_ns`` ns after they happen, and its local
        timers (RPC watchdogs) run that much behind."""
        if not 0 <= node_id < self.nodes:
            raise ConfigError(f"node {node_id} outside fabric of {self.nodes}")
        if skew_ns < 0:
            raise ConfigError(f"clock skew cannot be negative: {skew_ns}")
        self._skew[node_id] = skew_ns
        self._skewed = any(s != 0.0 for s in self._skew)

    def clock_skew_ns(self, node_id: int) -> float:
        return self._skew[node_id]

    def observed_alive(self, observer: int, node_id: int) -> bool:
        """``node_id``'s membership as ``observer``'s (possibly skewed)
        lease view reports it: the true state as of ``now - skew``."""
        if not self._skewed:
            return self._alive[node_id]
        skew = self._skew[observer]
        if skew == 0.0:
            return self._alive[node_id]
        cutoff = self.sim._now - skew
        state = self._lease_base[node_id]
        for when, alive in self._lease_log[node_id]:
            if when <= cutoff:
                state = alive
            else:
                break
        return state

    # ------------------------------------------------------------------
    # link degradation (the injector's mutation surface)
    # ------------------------------------------------------------------
    def degrade_link(
        self,
        src: int,
        dst: int,
        *,
        drop: bool = False,
        latency_mult: float = 1.0,
        bw_mult: float = 1.0,
    ) -> LinkFault:
        """Open one degradation on the directed ``src -> dst`` link and
        return its token (pass it to :meth:`restore_link` to close).

        ``latency_mult`` scales the propagation floor, ``bw_mult``
        scales the serialization rate (``< 1`` is slower), and ``drop``
        severs new conversations (see :class:`LinkFault`).  Degradation
        is directional — open the reverse key too for a symmetric
        fault — and tokens on the same link compose."""
        if not 0 <= src < self.nodes or not 0 <= dst < self.nodes:
            raise ConfigError(
                f"link ({src}, {dst}) outside fabric of {self.nodes}"
            )
        if src == dst:
            raise ConfigError("cannot degrade a node's link to itself")
        if latency_mult < 1.0:
            raise ConfigError(
                f"latency_mult must be >= 1 (got {latency_mult}); "
                "degradation cannot speed a link up"
            )
        if not 0.0 < bw_mult <= 1.0:
            raise ConfigError(f"bw_mult must be in (0, 1], got {bw_mult}")
        if not drop and latency_mult == 1.0 and bw_mult == 1.0:
            raise ConfigError("degradation must drop or slow the link")
        fault = LinkFault((src, dst), drop, latency_mult, bw_mult)
        self._link_faults.setdefault((src, dst), []).append(fault)
        self._recompose((src, dst))
        return fault

    def restore_link(self, fault: LinkFault) -> None:
        """Close one degradation window (idempotence is an error: a
        double restore means the injector's bookkeeping is wrong)."""
        tokens = self._link_faults.get(fault.key)
        if tokens is None or fault not in tokens:
            raise ConfigError(f"no active fault on link {fault.key}")
        tokens.remove(fault)
        if not tokens:
            del self._link_faults[fault.key]
        self._recompose(fault.key)

    def _recompose(self, key: Tuple[int, int]) -> None:
        tokens = self._link_faults.get(key)
        if not tokens:
            self._degraded.pop(key, None)
        else:
            drop = False
            lat = 1.0
            bw = 1.0
            for t in tokens:
                drop = drop or t.drop
                lat *= t.latency_mult
                bw *= t.bw_mult
            self._degraded[key] = (drop, lat, bw)
        self._faulty = bool(self._degraded)

    def degradation(
        self, src: int, dst: int
    ) -> Optional[Tuple[bool, float, float]]:
        """The composed ``(drop, latency_mult, bw_mult)`` on the
        directed link, or ``None`` when it is healthy."""
        return self._degraded.get((src, dst))

    def link_severed(self, src: int, dst: int) -> bool:
        """True when a drop window in *either* direction severs the
        conversation: a request whose reply cannot return is as dead as
        one that cannot be sent."""
        if not self._faulty:
            return False
        eff = self._degraded.get((src, dst))
        if eff is not None and eff[0]:
            return True
        eff = self._degraded.get((dst, src))
        return eff is not None and eff[0]

    def reachable(self, src: int, dst: int) -> bool:
        """Both ends alive and no drop window between them — whether a
        conversation started now could complete."""
        return (
            self._alive[src]
            and self._alive[dst]
            and not self.link_severed(src, dst)
        )

    def _ring_hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 1
        forward = (dst - src) % self.nodes
        backward = (src - dst) % self.nodes
        return max(1, min(forward, backward))

    def link(self, src: int, dst: int) -> Link:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            link = Link(
                self.sim,
                self.cfg,
                hops=self._ring_hops(src, dst),
                name=f"link{src}->{dst}",
            )
            self._links[key] = link
        return link

    def send(self, packet: Packet) -> float:
        """Route ``packet`` to its destination node's handler.

        Packets from or to a crashed node are dropped (returning the
        current time): a dead NI produces and accepts nothing, and
        failure handling happens at the endpoints (typed RPC failures,
        aborted transfers), never in the fabric."""
        src = packet.src_node
        dst = packet.dst_node
        alive = self._alive
        if not (alive[src] and alive[dst]):
            self.packets_dropped += 1
            return self.sim._now
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            handler = self._handlers.get(dst)
            if handler is None:
                raise ConfigError(f"no handler attached for node {dst}")
            link = self._links.get(key)
            if link is None:
                link = self.link(src, dst)
            route = (link, handler, link.server, link._header_bytes, link._floor_ns)
            self._routes[key] = route
        # The link's serialization + propagation arithmetic lives here,
        # on the per-packet hot path, not behind a Link method: the
        # extra dispatch is measurable at fleet event rates.
        # Degradation costs one flag test while the fabric is healthy;
        # the multipliers apply at *send-fire time*, so a window that
        # opens mid-transfer slows exactly the packets sent inside it.
        link, deliver, server, header, floor = route
        if self._faulty:
            eff = self._degraded.get(key)
            if eff is not None:
                return self._send_degraded(
                    packet, link, deliver, server, header, floor, eff
                )
        link.packets_sent += 1
        sim = self.sim
        wire = header + packet.size_bytes
        start = sim._now
        next_free = server._next_free
        if next_free > start:
            start = next_free
        service = wire / server.rate
        next_free = start + service
        server._next_free = next_free
        server._busy_ns += service
        server._bytes += wire
        arrival = next_free + floor
        sim.call_at(arrival, deliver, packet)
        return arrival

    def _send_degraded(
        self, packet, link, deliver, server, header, floor, eff
    ) -> float:
        """The degraded-link variant of the inlined send: same
        arithmetic with the composed multipliers applied.  ``drop``
        windows still *deliver* — severing is enforced by the endpoints
        via :meth:`link_severed` before anything is posted, so packets
        already committed to the wire drain losslessly."""
        _drop, lat_mult, bw_mult = eff
        link.packets_sent += 1
        sim = self.sim
        wire = header + packet.size_bytes
        start = sim._now
        next_free = server._next_free
        if next_free > start:
            start = next_free
        service = wire / (server.rate * bw_mult)
        next_free = start + service
        server._next_free = next_free
        server._busy_ns += service
        server._bytes += wire
        arrival = next_free + floor * lat_mult
        sim.call_at(arrival, deliver, packet)
        return arrival

    def packets_on(self, src: int, dst: int) -> int:
        link = self._links.get((src, dst))
        return link.packets_sent if link else 0
