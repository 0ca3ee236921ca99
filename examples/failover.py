#!/usr/bin/env python3
"""Shard crashes, backup promotion, fencing, and recovery re-sync.

Walks the failover subsystem end to end:

1. a scripted crash: in-flight work fails with a typed error, the
   backup is promoted (permanently), reads and writes keep flowing,
   and the rejoining shard re-syncs before serving again,
2. fencing: a request stamped with a superseded epoch is refused by
   the handler — the check that keeps demoted primaries harmless,
3. the availability mix: readers/writers/transactions riding through
   repeated crash/recovery cycles, with the torn-read audit staying
   at zero across every promotion.

Run:  PYTHONPATH=src python examples/failover.py
"""

from contextlib import closing

from repro.faults import FailoverManager
from repro.objstore.sharded import REPLY_FENCED, ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager
from repro.workloads.availability import FailoverMixConfig, run_failover_mix


def demo_crash_promote_recover() -> None:
    print("--- crash, promotion, recovery, re-sync ---")
    cfg = ShardedConfig(n_shards=4, replication=2, n_objects=32, object_size=256)
    with closing(ShardedKV(cfg)) as kv:
        fm = FailoverManager(kv)
        sim = kv.cluster.sim
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary, backup = kv.replicas_of(key)
        print(f"{key}: primary shard {primary}, backup shard {backup}")

        log = []

        def client():
            yield kv.put(0, key)
            log.append(f"t={sim.now:8.0f}  put #1 acked (healthy primary)")
            fm.crash(primary)
            log.append(f"t={sim.now:8.0f}  shard {primary} crashed; epoch={kv.epoch}")
            session = kv.reader_session(0)
            ok = yield from session.lookup(key, t_end=sim.now + 50_000.0)
            served = kv.current_primary(idx)
            log.append(
                f"t={sim.now:8.0f}  read ok={ok} served by promoted shard {served}"
            )
            yield kv.put(0, key)
            log.append(
                f"t={sim.now:8.0f}  put #2 acked by promotee "
                f"(version {kv.stores[served].current_version(idx)})"
            )
            fm.recover(primary)
            log.append(f"t={sim.now:8.0f}  shard {primary} rejoining (re-sync)")

        sim.process(client())
        sim.run()
        for line in log:
            print(line)
        print(
            f"after re-sync: shard {primary} serving={kv.serving[primary]}, "
            f"version there {kv.stores[primary].current_version(idx)} "
            f"(caught up), primary is still shard {kv.current_primary(idx)}"
        )
        print(f"failover events: {[(round(t), e, s) for t, e, s in fm.events]}")


def demo_fencing() -> None:
    print("\n--- fencing: a stale-epoch request is refused ---")
    cfg = ShardedConfig(n_shards=2, replication=2, n_objects=16, object_size=256)
    with closing(ShardedKV(cfg)) as kv:
        FailoverManager(kv)
        key = kv.keys()[0]
        idx = kv.key_index(key)
        primary = kv.primary_of(key)
        for _ in range(2):  # the view moved on; this client's epoch did not
            kv.advance_epoch()
        forged = (0).to_bytes(8, "little") + idx.to_bytes(8, "little") + bytes(
            kv.cfg.payload_len
        )
        replies = []

        def stale_client():
            reply = yield kv.client_rpc(0).call(
                kv.shards[primary].node_id, "shard_put", forged
            )
            replies.append(reply)

        kv.cluster.sim.process(stale_client())
        kv.cluster.sim.run()
        print(
            f"forged epoch-0 put against epoch-{kv.epoch} view -> "
            f"fenced={replies[0] == REPLY_FENCED}, "
            f"object untouched (version "
            f"{kv.stores[primary].current_version(idx)}), "
            f"fenced_rejects={kv.write_stats[primary].fenced_rejects}"
        )


def demo_availability_mix() -> None:
    print("\n--- the availability mix: 3 crash/recovery cycles, 4 shards ---")
    result = run_failover_mix(
        FailoverMixConfig(duration_ns=120_000.0, cycles=3, seed=3)
    )
    print(
        f"reads completed           : {result.reads_completed}\n"
        f"  ... while a shard down  : {result.reads_during_outage} "
        f"({result.outage_read_share:.0%})\n"
        f"writes completed          : {result.writes_completed} "
        f"({result.writes_during_outage} during outages)\n"
        f"txn commits               : {result.commits} "
        f"(+{result.crash_aborts} crash-forced aborts, retried)\n"
        f"crashes/recoveries        : {result.crashes}/{result.recoveries}, "
        f"{result.promotions} key promotions\n"
        f"in-flight failures        : {result.failed_rpcs} rpcs, "
        f"{result.failed_transfers} transfers\n"
        f"fenced / redirected       : {result.fenced_rejects} / "
        f"{result.crash_redirects}\n"
        f"undetected violations     : {result.undetected_violations} "
        f"(torn reads in txns: {result.torn_reads_observed})"
    )
    assert result.reads_during_outage > 0
    assert result.undetected_violations == 0


if __name__ == "__main__":
    demo_crash_promote_recover()
    demo_fencing()
    demo_availability_mix()
