"""Tables 1 and 2, regenerated from code (taxonomy and configuration)."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import ClusterConfig, default_cluster
from repro.core.design_space import CcMethod, DESIGN_SPACE, design_space_table
from repro.experiments import ExperimentSpec, register, run_sweep

TABLE1_HEADERS = ("cc_method", "source", "destination")


def table1() -> str:
    """Table 1: design space for one-sided atomic object reads."""
    return design_space_table()


def _table1_point(ctx) -> Dict:
    method = CcMethod(ctx.params["cc_method"])
    cells = {"source": "", "destination": ""}
    for point in DESIGN_SPACE:
        if point.method is method:
            cells[point.side.value] = ", ".join(point.systems)
    return cells


TABLE1_SPEC = register(
    ExperimentSpec(
        name="table1",
        description="design space for one-sided atomic object reads "
        "(CC side x CC method)",
        axes={"cc_method": tuple(m.value for m in (CcMethod.LOCKING, CcMethod.OCC))},
        headers=TABLE1_HEADERS,
        point_fn=_table1_point,
    )
)


TABLE2_HEADERS = ("component", "parameters")

#: Component name -> parameter-string formatter over the live config.
_COMPONENT_FORMATTERS: Dict[str, Callable[[ClusterConfig], str]] = {
    "Cores": lambda cfg: (
        f"{cfg.node.cores.count}x ARM Cortex-A57-like, 64-bit, "
        f"{cfg.node.cores.freq_ghz:g} GHz, OoO, "
        f"{cfg.node.cores.dispatch_width}-wide dispatch/retirement, "
        f"{cfg.node.cores.rob_entries}-entry ROB"
    ),
    "L1 Caches": lambda cfg: (
        f"{cfg.node.caches.l1d_bytes // 1024} KB L1d, "
        f"{cfg.node.caches.l1i_bytes // 1024} KB L1i, "
        f"{cfg.node.caches.block_bytes}-byte blocks, "
        f"{cfg.node.caches.l1_mshrs} MSHRs, "
        f"{cfg.node.caches.l1_latency_cycles}-cycle latency"
    ),
    "LLC": lambda cfg: (
        f"Shared block-interleaved NUCA, "
        f"{cfg.node.caches.llc_bytes // (1024 * 1024)} MB total, "
        f"{cfg.node.caches.llc_banks} banks, "
        f"{cfg.node.caches.llc_latency_cycles}-cycle latency"
    ),
    "Coherence": lambda cfg: (
        "Directory-based (behavioral MESI: dirty-owner forwarding, "
        "invalidation snooping, eviction notifications)"
    ),
    "Memory": lambda cfg: (
        f"{cfg.node.memory.latency_ns:g} ns latency, "
        f"{cfg.node.memory.channels}x{cfg.node.memory.channel_gbps:g} GBps (DDR4)"
    ),
    "Interconnect": lambda cfg: (
        f"2D mesh {cfg.node.noc.width}x{cfg.node.noc.height}, "
        f"{cfg.node.noc.link_bytes} B links, "
        f"{cfg.node.noc.cycles_per_hop} cycles/hop"
    ),
    "RMC": lambda cfg: (
        f"3 independent pipelines (RGP, RCP, R2P2) @ "
        f"{cfg.node.rmc.freq_ghz:g} GHz; one RGP/RCP frontend per core; "
        f"{cfg.node.rmc.backends} RGP/RCP backends & R2P2s across edge"
    ),
    "LightSABRes": lambda cfg: (
        f"{cfg.node.sabre.stream_buffers} {cfg.node.sabre.stream_buffer_depth}"
        f"-entry stream buffers per R2P2 "
        f"({cfg.node.sabre.total_sram_bytes()} B SRAM)"
    ),
    "Network": lambda cfg: (
        f"Fixed {cfg.fabric.hop_latency_ns:g} ns latency per hop, "
        f"{cfg.fabric.link_gbps:g} GBps"
    ),
}


def _table2_point(ctx) -> Dict:
    cluster = ctx.params.get("cluster") or default_cluster()
    formatter = _COMPONENT_FORMATTERS[ctx.params["component"]]
    return {"parameters": formatter(cluster)}


TABLE2_SPEC = register(
    ExperimentSpec(
        name="table2",
        description="system parameters of the simulated rack, read back "
        "from the live config",
        axes={"component": tuple(_COMPONENT_FORMATTERS)},
        defaults={"cluster": None},
        headers=TABLE2_HEADERS,
        point_fn=_table2_point,
    )
)


def table2_rows(
    cfg: Optional[ClusterConfig] = None,
) -> Tuple[Sequence[str], List[Dict]]:
    """Table 2: system parameters, read back from the live config."""
    result = run_sweep(TABLE2_SPEC, overrides={"cluster": cfg})
    return TABLE2_HEADERS, result.rows
