"""SABRes: Atomic Object Reads for In-Memory Rack-Scale Computing.

A behavioral, byte-accurate reproduction of Daglis et al., MICRO 2016.

The package builds the full system the paper evaluates:

* a discrete-event simulation kernel (:mod:`repro.sim`),
* a 16-core chip memory hierarchy with a snooping coherence directory
  (:mod:`repro.mem`, :mod:`repro.noc`),
* the soNUMA protocol and RMC pipelines (:mod:`repro.sonuma`,
  :mod:`repro.fabric`),
* **LightSABRes** — the paper's contribution: ATT, stream buffers, and
  the R2P2 engine with speculative / no-speculation / locking variants
  (:mod:`repro.core`),
* the version-word convention and the lock table of the locking
  variants (:mod:`repro.atomicity`),
* the software atomicity baselines' object layouts (FaRM per-cache-line
  versions, Pilaf checksums), one read protocol per Table 1 mechanism,
  and a FaRM-like distributed object store and KV application
  (:mod:`repro.objstore`),
* microbenchmarks and the per-figure experiment harness
  (:mod:`repro.workloads`, :mod:`repro.harness`).

Quick start::

    from repro import Cluster, ObjectStore, RawLayout

    with Cluster() as cluster:  # closing a rack frees its memory now
        store = ObjectStore(cluster.node(0).phys, RawLayout())
        store.create(1, b"hello world")
        handle = store.handle(1)

        src = cluster.node(1)
        buf = src.alloc_buffer(handle.wire_size)

        def reader():
            result = yield src.sabre_read(0, handle.base_addr,
                                          handle.wire_size, buf)
            print("atomic:", result.success)

        cluster.sim.process(reader())
        cluster.run()
"""

from repro.common.config import (
    ClusterConfig,
    NodeConfig,
    SabreConfig,
    SabreMode,
    default_cluster,
)
from repro.common.costs import DEFAULT_COSTS, SoftwareCosts
from repro.objstore.farm import FarmConfig, FarmKV, FarmResult, run_farm
from repro.objstore.layout import (
    ChecksumLayout,
    ObjectLayout,
    PerCacheLineLayout,
    RawLayout,
    stamped_payload,
    torn_words,
)
from repro.objstore.local import LocalReadConfig, run_local_reads
from repro.objstore.ring import HashRing
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.store import ObjectHandle, ObjectStore
from repro.sonuma.node import Cluster, SoNode
from repro.sonuma.rpc import RpcEndpoint
from repro.sonuma.transfer import OpKind, TransferResult
from repro.workloads.microbench import (
    MicrobenchConfig,
    MicrobenchResult,
    run_microbench,
)
from repro.workloads.ycsb import YcsbConfig, YcsbResult, run_ycsb

__version__ = "1.0.0"

__all__ = [
    "ChecksumLayout",
    "Cluster",
    "ClusterConfig",
    "DEFAULT_COSTS",
    "FarmConfig",
    "FarmKV",
    "FarmResult",
    "HashRing",
    "LocalReadConfig",
    "MicrobenchConfig",
    "MicrobenchResult",
    "NodeConfig",
    "ObjectHandle",
    "ObjectLayout",
    "ObjectStore",
    "OpKind",
    "PerCacheLineLayout",
    "RawLayout",
    "RpcEndpoint",
    "SabreConfig",
    "SabreMode",
    "ShardedConfig",
    "ShardedKV",
    "SoNode",
    "SoftwareCosts",
    "TransferResult",
    "YcsbConfig",
    "YcsbResult",
    "default_cluster",
    "run_farm",
    "run_local_reads",
    "run_microbench",
    "run_ycsb",
    "stamped_payload",
    "torn_words",
]
