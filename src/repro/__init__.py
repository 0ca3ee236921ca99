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

import importlib

#: Each exported name's home module.  A name is imported on first use
#: (module ``__getattr__``), so ``import repro.<package>`` loads only
#: what that package needs: ``repro-serve`` never loads the harness,
#: the experiments or the workloads.
_HOMES = {
    "ChecksumLayout": "repro.objstore.layout",
    "Cluster": "repro.sonuma.node",
    "ClusterConfig": "repro.common.config",
    "DEFAULT_COSTS": "repro.common.costs",
    "FarmConfig": "repro.objstore.farm",
    "FarmKV": "repro.objstore.farm",
    "FarmResult": "repro.objstore.farm",
    "HashRing": "repro.objstore.ring",
    "LocalReadConfig": "repro.objstore.local",
    "MicrobenchConfig": "repro.workloads.microbench",
    "MicrobenchResult": "repro.workloads.microbench",
    "NodeConfig": "repro.common.config",
    "ObjectHandle": "repro.objstore.store",
    "ObjectLayout": "repro.objstore.layout",
    "ObjectStore": "repro.objstore.store",
    "OpKind": "repro.sonuma.transfer",
    "PerCacheLineLayout": "repro.objstore.layout",
    "RawLayout": "repro.objstore.layout",
    "RpcEndpoint": "repro.sonuma.rpc",
    "SabreConfig": "repro.common.config",
    "SabreMode": "repro.common.config",
    "ShardedConfig": "repro.objstore.sharded",
    "ShardedKV": "repro.objstore.sharded",
    "SoNode": "repro.sonuma.node",
    "SoftwareCosts": "repro.common.costs",
    "TransferResult": "repro.sonuma.transfer",
    "YcsbConfig": "repro.workloads.ycsb",
    "YcsbResult": "repro.workloads.ycsb",
    "default_cluster": "repro.common.config",
    "run_farm": "repro.objstore.farm",
    "run_local_reads": "repro.objstore.local",
    "run_microbench": "repro.workloads.microbench",
    "run_ycsb": "repro.workloads.ycsb",
    "stamped_payload": "repro.objstore.layout",
    "torn_words": "repro.objstore.layout",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(home), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = list(_HOMES)
