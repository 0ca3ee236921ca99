"""2D mesh geometry, tile placement, and hop latency.

The modeled chip (Fig. 6) is a 4x4 tile mesh: one core + one LLC bank
per tile, four memory controllers on the left/right edges, and four
RMC backends (RGP/RCP backend + R2P2) along the chip edge.

Every quantity here is a pure function of the (frozen) mesh config, so
the constructor precomputes the hop matrix and placement tables and
``latency_ns`` memoizes per ``(src, dst, payload)`` — mesh latency is
charged on every block read, write upgrade, and NI transfer, making it
one of the hottest computations in the simulator.
"""

from __future__ import annotations

from repro.common.config import NocConfig
from repro.common.errors import ConfigError
from repro.common.units import CACHE_BLOCK


class Mesh:
    """Tile coordinates and XY-routing hop counts for one chip."""

    __slots__ = ("cfg", "tiles", "_hops", "_hop_lat", "_lat_cache", "_edge_tiles", "_top_row")

    def __init__(self, cfg: NocConfig):
        self.cfg = cfg
        self.tiles = cfg.width * cfg.height
        if self.tiles < 1:
            raise ConfigError("mesh must have at least one tile")
        width = cfg.width
        coords = [(t % width, t // width) for t in range(self.tiles)]
        # Flat hop matrix: hops(src, dst) == _hops[src * tiles + dst].
        self._hops = [
            abs(sx - dx) + abs(sy - dy)
            for (sx, sy) in coords
            for (dx, dy) in coords
        ]
        self._hop_lat = [h * cfg.hop_ns for h in self._hops]
        #: (src, dst, payload) -> latency; payloads come from a handful
        #: of distinct sizes (block, header, object ladder), so this
        #: stays small and config-keyed by construction (one cache per
        #: Mesh, one Mesh per config).
        self._lat_cache: dict[tuple[int, int, int], float] = {}
        edge = [
            t
            for t in range(self.tiles)
            if coords[t][0] in (0, width - 1)
        ]
        self._edge_tiles = edge
        self._top_row = list(range(width))

    # -- geometry ---------------------------------------------------------
    def hops(self, src_tile: int, dst_tile: int) -> int:
        if not (0 <= src_tile < self.tiles and 0 <= dst_tile < self.tiles):
            raise ConfigError(
                f"tiles ({src_tile}, {dst_tile}) outside mesh of {self.tiles}"
            )
        return self._hops[src_tile * self.tiles + dst_tile]

    def latency_ns(self, src_tile: int, dst_tile: int, payload_bytes: int = 0) -> float:
        """One-way message latency: per-hop delay plus link serialization
        for payloads wider than one flit (16 B links)."""
        key = (src_tile, dst_tile, payload_bytes)
        lat = self._lat_cache.get(key)
        if lat is None:
            cfg = self.cfg
            hop = self.hops(src_tile, dst_tile) * cfg.hop_ns
            if payload_bytes <= cfg.link_bytes:
                lat = hop
            else:
                flits = (payload_bytes + cfg.link_bytes - 1) // cfg.link_bytes
                lat = hop + (flits - 1) / cfg.freq_ghz
            self._lat_cache[key] = lat
        return lat

    # -- placement --------------------------------------------------------
    def core_tile(self, core: int) -> int:
        return core % self.tiles

    def llc_bank_tile(self, block_addr: int) -> int:
        """Block-interleaved NUCA banks, one per tile (Table 2)."""
        return (block_addr // CACHE_BLOCK) % self.tiles

    def mc_tile(self, channel: int) -> int:
        """Memory controllers on the left/right edge columns."""
        return self._edge_tiles[channel % len(self._edge_tiles)]

    def rmc_tile(self, backend: int) -> int:
        """RMC backends / R2P2s spread along the top edge (Fig. 6)."""
        return self._top_row[backend % len(self._top_row)]
