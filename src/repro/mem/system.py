"""Per-chip memory system: LLC + L1 residency, DRAM channels, and a
behavioral coherence directory with invalidation snooping.

This is the integration point LightSABRes relies on (§3.3): the R2P2
subscribes to the address range it is reading, and the directory
delivers an invalidation callback whenever

* a core *writes* a subscribed block (a true potential conflict), or
* a subscribed block is *evicted* from the chip (the false-alarm case
  that motivates the validate stage of §4.2).

Write-triggered invalidations are delivered synchronously with the
byte mutation, mirroring invalidate-before-write MESI ordering, so a
snooper can never observe new data without having been invalidated.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Callable, Dict, Optional, Set

from repro.common.config import NodeConfig
from repro.common.units import CACHE_BLOCK, gbps_to_bytes_per_ns
from repro.mem.backing import PhysicalMemory
from repro.mem.cache import LruCache
from repro.noc.mesh import Mesh
from repro.sim.engine import Simulator
from repro.sim.resources import MultiChannel


class AccessTier(Enum):
    """Where a block read was served from."""

    L1 = "l1"
    LLC = "llc"
    MEM = "mem"


class InvalidationCause(Enum):
    WRITE = "write"
    EVICTION = "eviction"


#: Snooper callback signature: (block_addr, cause).
SnoopCallback = Callable[[int, InvalidationCause], None]


class ChipMemorySystem:
    """Memory hierarchy of one 16-core chip (Table 2)."""

    __slots__ = ("sim", "cfg", "mesh", "phys", "name", "llc", "_l1", "_owner", "dram", "_subs", "_l1_lat", "_llc_lat", "_block", "_tiles", "_mem_extra", "_llc_path", "_upgrade_path", "reads", "writes", "invalidations_sent", "_svc_mult", "_svc_slow")

    def __init__(
        self,
        sim: Simulator,
        cfg: NodeConfig,
        mesh: Mesh,
        phys: Optional[PhysicalMemory] = None,
        name: str = "chip",
    ):
        self.sim = sim
        self.cfg = cfg
        self.mesh = mesh
        self.phys = phys if phys is not None else PhysicalMemory()
        self.name = name

        caches = cfg.caches
        self.llc = LruCache(caches.llc_blocks, f"{name}.llc")
        self._l1: Dict[int, LruCache] = {}
        self._owner: Dict[int, int] = {}  # dirty block -> owning core
        self.dram = MultiChannel(
            sim,
            cfg.memory.channels,
            gbps_to_bytes_per_ns(cfg.memory.channel_gbps),
            interleave_bytes=caches.block_bytes,
            name=f"{name}.dram",
        )
        self._subs: Dict[int, Set[SnoopCallback]] = defaultdict(set)
        self._l1_lat = caches.l1_latency_cycles / cfg.cores.freq_ghz
        self._llc_lat = caches.llc_latency_cycles / cfg.cores.freq_ghz
        # Hot-path constants, hoisted out of the per-access attribute
        # chains (read_block/write_block run once per cache block moved).
        self._block = caches.block_bytes
        self._tiles = mesh.tiles
        self._mem_extra = cfg.memory.latency_ns + cfg.memory.controller_overhead_ns
        #: (agent_tile, bank) -> composite LLC-hit latency.
        self._llc_path: Dict[tuple, float] = {}
        #: (core_tile, bank) -> write-upgrade latency.
        self._upgrade_path: Dict[tuple, float] = {}
        self.reads = 0
        self.writes = 0
        self.invalidations_sent = 0
        # Gray-failure dial: scales every access latency served here.
        # The boolean gate keeps the healthy fast path at one flag test.
        self._svc_mult = 1.0
        self._svc_slow = False

    def set_service_multiplier(self, multiplier: float) -> None:
        """Scale all access latencies by ``multiplier`` (>= 1) — the
        fault injector's gray-failure hook.  1.0 restores full speed."""
        if multiplier < 1.0:
            raise ValueError(
                f"service multiplier must be >= 1, got {multiplier}"
            )
        self._svc_mult = multiplier
        self._svc_slow = multiplier != 1.0

    def release(self) -> None:
        """Empty the residency, ownership and snoop tables in place —
        the state that grows with the blocks a run touched."""
        self.llc._blocks.clear()
        self._l1.clear()
        self._owner.clear()
        self._subs.clear()

    # ------------------------------------------------------------------
    # snooping
    # ------------------------------------------------------------------
    def subscribe(self, block_addr: int, snoop: SnoopCallback) -> None:
        """Register interest in coherence events for one block."""
        self._subs[block_addr].add(snoop)

    def unsubscribe(self, block_addr: int, snoop: SnoopCallback) -> None:
        subs = self._subs.get(block_addr)
        if subs is None:
            return
        subs.discard(snoop)
        if not subs:
            del self._subs[block_addr]

    def _notify(self, block_addr: int, cause: InvalidationCause) -> None:
        subs = self._subs.get(block_addr)
        if not subs:
            return
        self.invalidations_sent += len(subs)
        for snoop in list(subs):
            snoop(block_addr, cause)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_block(
        self, agent_tile: int, block_addr: int, *, allocate: bool = True
    ) -> tuple[float, AccessTier]:
        """Read one cache block on behalf of an agent at ``agent_tile``.

        Returns ``(completion_time, tier)``.  Queuing at the DRAM
        channels is modeled; the caller schedules its continuation at
        ``completion_time`` and reads bytes from :attr:`phys` then.
        """
        self.reads += 1
        block = self._block
        mesh = self.mesh
        baddr = block_addr - (block_addr % block)
        # llc_bank_tile inlined (one call per modeled block read).
        bank = (baddr // CACHE_BLOCK) % self._tiles

        owner = self._owner.get(baddr)
        if owner is not None:
            # Dirty in a core's L1: directory forwards, owner downgrades
            # M->S and the LLC picks up the (still dirty) copy.
            t = self.sim._now + mesh.latency_ns(agent_tile, bank)
            owner_tile = mesh.core_tile(owner)
            t += self._llc_lat
            t += mesh.latency_ns(bank, owner_tile)
            t += self._l1_lat
            t += mesh.latency_ns(owner_tile, agent_tile, block)
            l1 = self._l1.get(owner)
            if l1 is not None:
                l1.mark_clean(baddr)
            del self._owner[baddr]
            self._llc_insert(baddr, dirty=True)
            if self._svc_slow:
                now = self.sim._now
                t = now + (t - now) * self._svc_mult
            return t, AccessTier.L1

        # LruCache.touch inlined — the LLC hit is the dominant outcome
        # once a transfer is streaming.
        llc = self.llc
        blocks = llc._blocks
        if baddr in blocks:
            blocks.move_to_end(baddr)
            llc.hits += 1
            # Composite LLC-hit latency memoized per (agent, bank):
            # request hop + tag latency + data return with payload.
            key = (agent_tile, bank)
            lat = self._llc_path.get(key)
            if lat is None:
                lat = (
                    mesh.latency_ns(agent_tile, bank)
                    + self._llc_lat
                    + mesh.latency_ns(bank, agent_tile, block)
                )
                self._llc_path[key] = lat
            if self._svc_slow:
                lat = lat * self._svc_mult
            return self.sim._now + lat, AccessTier.LLC
        llc.misses += 1
        t = self.sim._now + mesh.latency_ns(agent_tile, bank)

        # LLC miss: go to memory through the block's home channel.
        channel_idx = self.dram.channel_index(baddr)
        channel = self.dram.channels[channel_idx]
        mc_tile = mesh.mc_tile(channel_idx)
        t += self._llc_lat  # tag lookup discovering the miss
        t += mesh.latency_ns(bank, mc_tile)
        # Channel occupancy (queuing + 64B burst), then the DRAM array
        # latency and controller overhead.
        t = channel.request_at(t, block, self._mem_extra)
        t += mesh.latency_ns(mc_tile, agent_tile, block)
        if allocate:
            self._llc_insert(baddr, dirty=False)
        if self._svc_slow:
            now = self.sim._now
            t = now + (t - now) * self._svc_mult
        return t, AccessTier.MEM

    def read_bytes(self, addr: int, size: int) -> bytes:
        """Functional (zero-time) read of the backing bytes."""
        return self.phys.read(addr, size)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write_block(
        self, core: int, block_addr: int, data: Optional[bytes] = None
    ) -> float:
        """A core writes one block; returns the store latency (ns).

        Byte mutation and invalidation delivery happen *now*,
        synchronously, preserving invalidate-before-write ordering.
        """
        self.writes += 1
        block = self._block
        baddr = block_addr - (block_addr % block)
        if data is not None:
            size = len(data)
            if size > block:
                raise ValueError(
                    f"write of {size} bytes exceeds one block"
                )
            # PhysicalMemory.write's region fast path, inlined (one
            # byte-store per modeled block write).
            phys = self.phys
            lo, hi, buf, origin = phys._last
            if lo <= block_addr and block_addr + size <= hi:
                off = block_addr - origin
                buf[off : off + size] = data
            else:
                phys.write(block_addr, data)

        prev = self._owner.get(baddr)
        l1 = self._l1.get(core)
        if l1 is None:
            l1 = self._l1_for(core)
        blocks = l1._blocks
        if prev == core and baddr in blocks:
            # Write hit on own M copy: dirty-mark + LRU refresh inline
            # (LruCache.insert's miss/eviction logic cannot trigger).
            latency = self._l1_lat
            blocks[baddr] = True
            blocks.move_to_end(baddr)
        else:
            # Upgrade: invalidate any other copy, take ownership.
            if prev is not None and prev != core:
                other = self._l1.get(prev)
                if other is not None:
                    other.invalidate(baddr)
            mesh = self.mesh
            bank = mesh.llc_bank_tile(baddr)
            core_tile = mesh.core_tile(core)
            key = (core_tile, bank)
            latency = self._upgrade_path.get(key)
            if latency is None:
                latency = mesh.latency_ns(core_tile, bank) * 2 + self._llc_lat
                self._upgrade_path[key] = latency
            self.llc.invalidate(baddr)  # LLC copy is now stale
            evicted = l1.insert(baddr, dirty=True)
            if evicted is not None:
                self._l1_victim(evicted)
        self._owner[baddr] = core
        if self._subs:
            self._notify(baddr, InvalidationCause.WRITE)
        if self._svc_slow:
            latency = latency * self._svc_mult
        return latency

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _l1_for(self, core: int) -> LruCache:
        l1 = self._l1.get(core)
        if l1 is None:
            l1 = LruCache(self.cfg.caches.l1d_blocks, f"{self.name}.l1[{core}]")
            self._l1[core] = l1
        return l1

    def _l1_victim(self, evicted: tuple[int, bool]) -> None:
        eaddr, dirty = evicted
        if self._owner.get(eaddr) is not None and dirty:
            del self._owner[eaddr]
        self._llc_insert(eaddr, dirty=dirty)

    def _llc_insert(self, baddr: int, dirty: bool) -> None:
        evicted = self.llc.insert(baddr, dirty=dirty)
        if evicted is None:
            return
        eaddr, edirty = evicted
        if edirty:
            # Write the victim back to memory (consumes channel bandwidth).
            self.dram.request(eaddr, self._block)
        self._notify(eaddr, InvalidationCause.EVICTION)

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------
    def tier_of(self, block_addr: int) -> AccessTier:
        block = self.cfg.caches.block_bytes
        baddr = block_addr - (block_addr % block)
        if baddr in self._owner:
            return AccessTier.L1
        if self.llc.contains(baddr):
            return AccessTier.LLC
        return AccessTier.MEM

    def subscriber_count(self, block_addr: int) -> int:
        return len(self._subs.get(block_addr, ()))
