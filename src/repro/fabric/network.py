"""Point-to-point lossless fabric between soNUMA nodes.

Table 2: fixed 35 ns latency per hop, 100 GBps links.  The evaluated
system is two directly connected nodes (one hop); larger topologies
route along a ring of nodes with one hop per traversed link, which is
enough for the paper's latency model ("fixed latency per hop").
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.common.config import FabricConfig
from repro.common.errors import ConfigError
from repro.fabric.packets import Packet
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthServer

PacketHandler = Callable[[Packet], None]


class LinkFault:
    """One open sever on a directed link — the token returned by
    :meth:`Fabric.sever_link` and consumed by :meth:`Fabric.restore_link`.

    Tokens on the same link compose: the link stays severed until the
    last one is restored.  A sever refuses *new* conversations (callers
    fail fast with a typed :class:`~repro.common.errors.
    LinkPartitionedError`); packets are never physically discarded,
    because the fabric is lossless and the protocols above it (SABRe
    registration-before-request, RPC request/reply pairing) are built on
    that guarantee.
    """

    __slots__ = ("key",)

    def __init__(self, key: Tuple[int, int]):
        self.key = key


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
        #: (src, dst) -> open sever tokens on that directed link; a key
        #: is present only while at least one token is open.
        self._link_faults: Dict[Tuple[int, int], List[LinkFault]] = {}
        #: New calls/posts refused because a partition window severed the
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

        Membership is deliberately *orthogonal* to severed links: a
        node that crashes inside a partition window keeps its sever
        tokens, and the injector restores them on schedule regardless
        of the node's aliveness — so a recovered node comes back with
        clean link tables once the window closes, never with a leaked
        sever."""
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
    # severed links (the injector's mutation surface)
    # ------------------------------------------------------------------
    def sever_link(self, src: int, dst: int) -> LinkFault:
        """Sever the directed ``src -> dst`` link and return the token
        (pass it to :meth:`restore_link` to close).  A sever refuses new
        conversations in both directions (see :meth:`link_severed`);
        tokens on the same link compose."""
        if not 0 <= src < self.nodes or not 0 <= dst < self.nodes:
            raise ConfigError(
                f"link ({src}, {dst}) outside fabric of {self.nodes}"
            )
        if src == dst:
            raise ConfigError("cannot sever a node's link to itself")
        fault = LinkFault((src, dst))
        self._link_faults.setdefault(fault.key, []).append(fault)
        return fault

    def restore_link(self, fault: LinkFault) -> None:
        """Close one sever (idempotence is an error: a double restore
        means the injector's bookkeeping is wrong)."""
        tokens = self._link_faults.get(fault.key)
        if tokens is None or fault not in tokens:
            raise ConfigError(f"no active fault on link {fault.key}")
        tokens.remove(fault)
        if not tokens:
            del self._link_faults[fault.key]

    def link_severed(self, src: int, dst: int) -> bool:
        """True when a sever in *either* direction cuts the
        conversation: a request whose reply cannot return is as dead as
        one that cannot be sent."""
        faults = self._link_faults
        return bool(faults) and ((src, dst) in faults or (dst, src) in faults)

    def reachable(self, src: int, dst: int) -> bool:
        """Both ends alive and no sever between them — whether a
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
        # extra dispatch is measurable at fleet event rates.  A severed
        # link still *delivers*: severing is enforced by the endpoints
        # via :meth:`link_severed` before anything is posted, so packets
        # already committed to the wire drain losslessly.
        link, deliver, server, header, floor = route
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

    def packets_on(self, src: int, dst: int) -> int:
        link = self._links.get((src, dst))
        return link.packets_sent if link else 0
