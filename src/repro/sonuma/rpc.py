"""RPC over soNUMA messaging.

FaRM sends *writes* to the data owner over an RPC (§2.1); HERD-style
systems use RPCs for everything (§8).  This endpoint models a
dispatcher with a bounded worker pool: requests queue, each costs a
dispatch overhead plus a handler-defined service time, and the reply
travels back as a fabric packet.
"""

from __future__ import annotations

import itertools
from types import GeneratorType
from typing import Any, Callable, Dict, Generator, Optional, Tuple, Union

from repro.common.costs import DEFAULT_COSTS, SoftwareCosts
from repro.common.errors import (
    LinkPartitionedError,
    ProtocolError,
    ShardCrashedError,
)
from repro.fabric.packets import Packet, PacketKind
from repro.sim.engine import Event, Process, Simulator
from repro.sim.resources import FifoResource
from repro.sonuma.transfer import prune_straggler_book

#: What serving one request yields: (reply payload, extra service ns).
RpcReply = Tuple[bytes, float]

#: Handler: payload -> reply, either directly or as a *generator* that
#: waits like any simulation process — it yields events (nested RPCs,
#: ...) or bare delays in ns (timed memory writes) — before returning
#: the reply tuple.  Used by services whose request handling has
#: internal timing structure, like the sharded store's replicated
#: writes.
RpcHandler = Callable[
    [bytes], Union[RpcReply, Generator[Union[Event, float], Any, RpcReply]]
]


class _HandlerProcess(Process):
    """A generator handler, stepped by the engine's :class:`Process`.

    The dispatcher runs the first step inside its own callback and the
    return value goes straight to ``finish``, so a handler costs no
    scheduled callback beyond the ones its waits take.  The worker
    slot is released if a step raises before the handler returned;
    after that, ``finish`` releases on its own error paths."""

    __slots__ = ("_finish", "_release")

    def __init__(
        self,
        sim: Simulator,
        gen: Generator[Any, Any, RpcReply],
        finish: Callable[[RpcReply], None],
        release: Callable[[], None],
    ):
        super().__init__(sim, gen)
        self._finish = finish
        self._release = release

    def succeed(self, value: Any = None) -> "_HandlerProcess":
        self._triggered = True
        self._finish(value)
        return self

    def _step(self, value: Any) -> None:
        try:
            Process._step(self, value)
        except BaseException:
            if not self._triggered:
                self._release()
            raise


class RpcEndpoint:
    """Per-node RPC dispatcher attached to the node's NI."""

    def __init__(self, node, workers: int = 2, costs: SoftwareCosts = DEFAULT_COSTS):
        self.node = node
        self.sim = node.sim
        self.costs = costs
        self._handlers: Dict[str, RpcHandler] = {}
        #: rpc id -> (completion, dst node, watchdog handle or None).
        self._pending: Dict[int, Tuple[Event, int, Any]] = {}
        #: rpc id -> failure time, for calls failed by a crash or a
        #: watchdog: a reply that was already on the wire for one is
        #: dropped, not a protocol error.  Pruned by
        #: :func:`prune_straggler_book` so crash soaks cannot grow
        #: this without bound.
        self._failed: Dict[int, float] = {}
        self._workers = FifoResource(self.sim, capacity=workers)
        self._rpc_id = itertools.count(node.node_id << 48)
        # Per-call constants, hoisted off the costs object (one RPC may
        # fan out to thousands of calls in the write-heavy scenarios).
        self._dispatch_ns = costs.rpc_dispatch_ns
        self._marshal_per_byte = costs.rpc_marshal_ns_per_byte
        #: name -> shared ``{"name": name}`` meta dict.  RPC packet meta
        #: is read-only downstream, so every call to the same handler
        #: can carry the same dict instead of allocating one per call.
        self._name_meta: Dict[str, Dict[str, str]] = {}
        self.timed_out_calls = 0
        #: Watchdogs that fired against a live peer and re-armed — how
        #: often gray failures *tested* the slow-not-dead hardening.
        self.watchdog_rearms = 0
        #: Gray-failure dial: scales dispatch and handler service time
        #: for every request served here.  Read at fire time, so the
        #: fault injector can open/close windows mid-request-stream.
        self.service_multiplier = 1.0
        node.attach_rpc(self._on_packet)
        node.rpc_endpoint = self

    def register(self, name: str, handler: RpcHandler) -> None:
        self._handlers[name] = handler

    def release(self) -> None:
        """Forget every call in flight and every remembered failure;
        the watchdogs go with the simulator's pending set."""
        self._pending.clear()
        self._failed.clear()

    # ------------------------------------------------------------------
    def call(
        self,
        dst_node: int,
        name: str,
        payload: bytes,
        timeout_ns: Optional[float] = None,
    ) -> Event:
        """Issue an RPC; the returned event triggers with the reply
        bytes — or, on failure, with a :class:`ShardCrashedError`
        *value* the caller must check for.

        Failure happens three ways: the destination's lease already
        expired when the call was issued (fail fast, nothing is sent);
        the failover subsystem fails the call at crash time
        (:meth:`fail_pending_to`); or ``timeout_ns`` elapsed with no
        reply (a client-side watchdog, cancelled when the reply lands —
        the belt to the crash notification's braces)."""
        rpc_id = next(self._rpc_id)
        completion = self.sim.event()
        fabric = self.node.fabric
        src_node = self.node.node_id
        if (
            not fabric.observed_alive(src_node, dst_node)
            or not self.node.alive
        ):
            # Destination's lease expired *in this caller's (possibly
            # skewed) view* — or this node's own did: a zombie handler
            # on a crashed node cannot send, and registering the call
            # would leak it forever (the fabric drops dead-source
            # packets, so no reply can ever arrive).  A skewed caller
            # that has not yet observed a crash sends anyway; its call
            # is failed when the delayed crash notification reaches it.
            self.sim.call_later(
                self._dispatch_ns,
                lambda: completion.succeed(
                    ShardCrashedError(dst_node, f"rpc {name!r} not sent")
                ),
            )
            return completion
        if fabric.link_severed(src_node, dst_node):
            # A partition window severs the conversation: nothing new
            # is sent (in-flight exchanges drain — the fabric stays
            # lossless).  The typed subclass keeps every crash-handling
            # path working while letting tests tell the cases apart.
            fabric.partition_refusals += 1
            self.sim.call_later(
                self._dispatch_ns,
                lambda: completion.succeed(
                    LinkPartitionedError(
                        src_node, dst_node, f"rpc {name!r} not sent"
                    )
                ),
            )
            return completion
        marshal = self._marshal_per_byte * len(payload)
        watchdog = None
        if timeout_ns is not None:
            # A skewed caller's local timer runs behind: its watchdog
            # deadline stretches by its skew, exactly like the lease
            # expiry it backstops.
            skew = fabric.clock_skew_ns(src_node)
            watchdog = self.sim.call_later(
                marshal + timeout_ns + skew,
                lambda: self._expire(rpc_id, dst_node, timeout_ns + skew),
            )
        self._pending[rpc_id] = (completion, dst_node, watchdog)
        meta = self._name_meta.get(name)
        if meta is None:
            meta = self._name_meta[name] = {"name": name}
        pkt = Packet(
            PacketKind.RPC_SEND,
            self.node.node_id,
            dst_node,
            transfer_id=rpc_id,
            size_bytes=len(payload),
            payload=payload,
            meta=meta,
        )
        self.sim.call_later(marshal, self.node.fabric.send, pkt)
        return completion

    # ------------------------------------------------------------------
    # failure paths (failover subsystem)
    # ------------------------------------------------------------------
    def _fail(self, rpc_id: int, error: ShardCrashedError) -> bool:
        entry = self._pending.pop(rpc_id, None)
        if entry is None:
            return False
        completion, _dst, watchdog = entry
        if watchdog is not None:
            self.sim.cancel_call(watchdog)
        now = self.sim.now
        self._failed = prune_straggler_book(self._failed, now)
        self._failed[rpc_id] = now
        completion.succeed(error)
        return True

    def _expire(self, rpc_id: int, dst_node: int, timeout_ns: float) -> None:
        entry = self._pending.get(rpc_id)
        if entry is None:
            return
        if self.node.fabric.observed_alive(self.node.node_id, dst_node):
            # Slow, not dead: the peer's lease is intact, so the reply
            # is still coming (and server-side effects like acquired
            # locks are real — failing now would orphan them).  Re-arm
            # and keep waiting; a real crash fails the call instantly
            # via fail_pending_to.
            self.watchdog_rearms += 1
            completion, dst, _old = entry
            watchdog = self.sim.call_later(
                timeout_ns, lambda: self._expire(rpc_id, dst_node, timeout_ns)
            )
            self._pending[rpc_id] = (completion, dst, watchdog)
            return
        if self._fail(rpc_id, ShardCrashedError(dst_node, "rpc timed out")):
            self.timed_out_calls += 1

    def fail_pending_to(self, dst_node: int) -> int:
        """Fail every pending call addressed to ``dst_node`` with a
        typed :class:`ShardCrashedError`; returns how many failed."""
        doomed = [
            rpc_id
            for rpc_id, (_ev, dst, _wd) in self._pending.items()
            if dst == dst_node
        ]
        for rpc_id in doomed:
            self._fail(rpc_id, ShardCrashedError(dst_node, "rpc in flight"))
        return len(doomed)

    def fail_all_pending(self) -> int:
        """Fail every pending call on this endpoint — used when the
        *owning node* crashes: replies addressed to its dead NI will be
        dropped, so no pending call here can ever resolve."""
        doomed = list(self._pending)
        for rpc_id in doomed:
            _ev, dst, _wd = self._pending[rpc_id]
            self._fail(
                rpc_id, ShardCrashedError(dst, "caller crashed")
            )
        return len(doomed)

    # ------------------------------------------------------------------
    def _on_packet(self, pkt: Packet) -> None:
        if pkt.kind is PacketKind.RPC_SEND:
            self._serve(pkt)
        elif pkt.kind is PacketKind.RPC_REPLY:
            entry = self._pending.pop(pkt.transfer_id, None)
            if entry is None:
                if self._failed.pop(pkt.transfer_id, None) is not None:
                    # The call was already failed (crash or watchdog);
                    # its straggler reply is dropped.
                    return
                raise ProtocolError(f"reply for unknown RPC {pkt.transfer_id}")
            completion, _dst, watchdog = entry
            if watchdog is not None:
                self.sim.cancel_call(watchdog)
            completion.succeed(pkt.payload)
        else:
            raise ProtocolError(f"RPC endpoint cannot handle {pkt.kind}")

    def _serve(self, pkt: Packet) -> None:
        """Serve one request on the worker pool.

        This is a *flattened* version of the obvious generator process
        (``yield acquire; yield dispatch_ns; run handler; yield
        service_ns; reply``): the common request/reply shape costs two
        scheduled callbacks instead of a full
        :class:`~repro.sim.engine.Process` plus one event per step.
        Generator handlers run as a :class:`_HandlerProcess`, one
        callback per wait.
        """
        name = pkt.meta["name"]
        handler = self._handlers.get(name)
        if handler is None:
            raise ProtocolError(f"no RPC handler named {name!r}")
        sim = self.sim
        dispatch_ns = self._dispatch_ns

        def granted(_ev: Event) -> None:
            # service_multiplier is read at fire time on both dispatch
            # and service legs, so a gray window opening mid-queue slows
            # exactly the requests it should (1.0 costs one multiply).
            sim.call_later(dispatch_ns * self.service_multiplier, run)

        def run() -> None:
            try:
                outcome = handler(pkt.payload or b"")
            except BaseException:
                self._workers.release()
                raise
            if type(outcome) is GeneratorType:
                _HandlerProcess(
                    sim, outcome, finish, self._workers.release
                )._step(None)
            else:
                finish(outcome)

        def finish(outcome: RpcReply) -> None:
            try:
                reply_payload, service_ns = outcome
            except BaseException:
                # Malformed outcome (e.g. a generator handler that fell
                # off the end): release before propagating, matching
                # the old generator _serve's try/finally guarantee.
                self._workers.release()
                raise
            if service_ns > 0:
                sim.call_later(
                    service_ns * self.service_multiplier,
                    complete,
                    reply_payload,
                )
            else:
                complete(reply_payload)

        def complete(reply_payload: bytes) -> None:
            try:
                reply = Packet(
                    PacketKind.RPC_REPLY,
                    self.node.node_id,
                    pkt.src_node,
                    transfer_id=pkt.transfer_id,
                    size_bytes=len(reply_payload),
                    payload=reply_payload,
                )
                self.node.fabric.send(reply)
            finally:
                self._workers.release()

        self._workers.acquire().add_callback(granted)
