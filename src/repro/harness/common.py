"""Shared helpers for the per-figure experiment harnesses."""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.config import ClusterConfig, check_scalar


def objects_for_memory_residency(
    object_size: int, cluster: Optional[ClusterConfig] = None
) -> int:
    """Object count whose working set is ~4x the LLC, so remote reads
    miss in the destination LLC and go to memory (§7.3's setup)."""
    llc = (cluster or ClusterConfig()).node.caches.llc_bytes
    return min(8192, max(64, (4 * llc) // max(object_size, 64)))


def derive_memory_resident(params: Dict[str, Any]) -> Dict[str, Any]:
    """Derived-config hook: size the store for the point's
    ``object_size`` (:func:`objects_for_memory_residency`) unless the
    point states an ``n_objects`` itself."""
    check_scalar("object_size", "int", params["object_size"])
    params.setdefault(
        "n_objects", objects_for_memory_residency(params["object_size"])
    )
    return params
