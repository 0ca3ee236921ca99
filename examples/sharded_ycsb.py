#!/usr/bin/env python3
"""The sharded rack-scale KV service under YCSB-style load.

Walks the three things the sharded layer adds on top of the two-node
FaRM deployment:

1. consistent-hash placement with primary/backup replication,
2. YCSB core mixes (A/B/C, uniform vs Zipfian) with per-shard
   load/conflict stats,
3. read fallback to a backup replica when the primary copy is wedged.

Run:  PYTHONPATH=src python examples/sharded_ycsb.py
"""

from contextlib import closing

from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.workloads.ycsb import YcsbConfig, run_ycsb


def demo_placement() -> None:
    print("--- consistent-hash placement (4 shards, replication 2) ---")
    cfg = ShardedConfig(n_shards=4, replication=2, n_objects=8)
    with closing(ShardedKV(cfg)) as kv:
        for key in kv.keys():
            primary, backup = kv.replicas_of(key)
            print(f"{key:8s} -> primary shard {primary}, backup shard {backup}")
        per_shard = [len(store) for store in kv.stores]
        print(f"objects per shard: {per_shard}")


def demo_mixes() -> None:
    print("\n--- YCSB mixes on 4 shards (SABRe reads, Zipfian keys) ---")
    for workload in ("A", "B", "C"):
        result = run_ycsb(
            YcsbConfig(
                workload=workload,
                distribution="zipfian",
                n_shards=4,
                n_objects=256,
                duration_ns=100_000.0,
                warmup_ns=15_000.0,
            )
        )
        print(
            f"workload {workload}: {result.reads_completed:4d} reads "
            f"({result.mean_read_ns:7.1f} ns), "
            f"{result.writes_completed:4d} writes, "
            f"{result.read_goodput_gbps:5.2f} GB/s, "
            f"imbalance {result.shard_imbalance:.2f}, "
            f"violations {result.undetected_violations}"
        )


def demo_shard_stats() -> None:
    print("\n--- per-shard load under a skewed write-heavy mix ---")
    result = run_ycsb(
        YcsbConfig(
            workload="A",
            distribution="zipfian",
            zipf_theta=1.2,
            n_shards=4,
            n_objects=256,
            duration_ns=100_000.0,
            warmup_ns=15_000.0,
        )
    )
    for row in result.shard_rows:
        print(
            f"shard {row['shard']}: {row['objects']:3.0f} objects, "
            f"{row['reads_routed']:4.0f} reads, "
            f"{row['writes_routed']:3.0f} writes, "
            f"{row['sabre_aborts']:3.0f} aborts, "
            f"{row['replica_updates']:3.0f} replica updates"
        )


def demo_fallback() -> None:
    print("\n--- read fallback: primary copy wedged mid-update ---")
    cfg = ShardedConfig(
        n_shards=2,
        replication=2,
        mechanism="percl_versions",
        n_objects=8,
        fallback_after_ns=2_000.0,
    )
    with closing(ShardedKV(cfg)) as kv:
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary, backup = kv.replicas_of(key)
        store = kv.stores[primary]
        locked = store.current_version(idx) + 1
        store.phys.write(store.version_addr(idx), locked.to_bytes(8, "little"))
        print(f"{key}: primary shard {primary} locked (odd version {locked})")

        session = kv.reader_session(0)
        sim = kv.cluster.sim

        def reader():
            ok = yield from session.lookup(key, t_end=50_000.0)
            print(
                f"lookup ok={ok} after {sim.now:.0f} ns: "
                f"{session.stats[primary].retries} primary retries, "
                f"served by backup shard {backup} "
                f"(fallback_reads={session.stats[backup].fallback_reads})"
            )

        sim.process(reader())
        sim.run()


def main() -> None:
    demo_placement()
    demo_mixes()
    demo_shard_stats()
    demo_fallback()


if __name__ == "__main__":
    main()
