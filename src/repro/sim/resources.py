"""Contention models: FIFO token resources and bandwidth servers."""

from __future__ import annotations

from collections import deque

from repro.common.errors import SimulationError
from repro.sim.engine import Event, Simulator


class FifoResource:
    """A counted resource with FIFO granting (like simpy.Resource).

    ``acquire()`` returns an event that triggers when a slot is granted;
    the holder must call ``release()`` exactly once per grant.
    """

    __slots__ = ("sim", "capacity", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    def acquire(self) -> Event:
        ev = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release without matching acquire")
        if self._waiters:
            nxt = self._waiters.popleft()
            nxt.succeed()
        else:
            self._in_use -= 1


class BandwidthServer:
    """A serial channel: each request occupies the channel for
    ``nbytes / rate`` ns, FIFO.  O(1) per request and *one* event per
    completion, which keeps block-granularity simulation fast.

    ``request`` returns the absolute completion time; callers schedule
    their own continuation.
    """

    __slots__ = ("sim", "rate", "name", "_next_free")

    def __init__(self, sim: Simulator, bytes_per_ns: float, name: str = ""):
        if bytes_per_ns <= 0:
            raise SimulationError(f"rate must be positive, got {bytes_per_ns}")
        self.sim = sim
        self.rate = bytes_per_ns
        self.name = name
        self._next_free = 0.0

    def request(self, nbytes: float, extra_latency: float = 0.0) -> float:
        """Occupy the channel for ``nbytes``; return completion time.

        ``extra_latency`` is tacked on *after* the channel is traversed
        (propagation) and does not occupy the channel.
        """
        # Inlined request_at(now, ...): this runs once per modeled
        # block/packet and the extra call shows up in profiles.
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        start = self.sim._now
        next_free = self._next_free
        if next_free > start:
            start = next_free
        next_free = start + nbytes / self.rate
        self._next_free = next_free
        return next_free + extra_latency

    def request_at(
        self, earliest: float, nbytes: float, extra_latency: float = 0.0
    ) -> float:
        """Like :meth:`request` but the transfer cannot start before
        ``earliest`` (e.g. the request message is still in flight)."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        # Reads the simulator's private clock directly: this runs once
        # per modeled block/packet and the property indirection shows
        # up in profiles.
        start = self.sim._now
        if earliest > start:
            start = earliest
        next_free = self._next_free
        if next_free > start:
            start = next_free
        next_free = start + nbytes / self.rate
        self._next_free = next_free
        return next_free + extra_latency


class MultiChannel:
    """A bank of parallel bandwidth servers with address interleaving.

    Models the 4-channel DDR4 memory system: consecutive cache blocks
    map to consecutive channels, so streaming reads spread across all
    channels (Table 2: 4 x 25.6 GBps).
    """

    __slots__ = ("interleave", "channels")

    def __init__(
        self,
        sim: Simulator,
        channels: int,
        bytes_per_ns_each: float,
        interleave_bytes: int = 64,
        name: str = "",
    ):
        if channels < 1:
            raise SimulationError(f"need >= 1 channel, got {channels}")
        self.interleave = interleave_bytes
        self.channels = [
            BandwidthServer(sim, bytes_per_ns_each, f"{name}[{i}]")
            for i in range(channels)
        ]

    def channel_for(self, addr: int) -> BandwidthServer:
        return self.channels[(addr // self.interleave) % len(self.channels)]

    def channel_index(self, addr: int) -> int:
        return (addr // self.interleave) % len(self.channels)

    def request(
        self, addr: int, nbytes: float, extra_latency: float = 0.0
    ) -> float:
        return self.channel_for(addr).request(nbytes, extra_latency)
