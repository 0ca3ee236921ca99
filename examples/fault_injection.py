#!/usr/bin/env python3
"""Gray failures, partitions, stragglers, and clock skew.

Walks the fault-injection layer (`repro.faults`) end to end:

1. a gray failure: a shard turns 10x slower mid-run — the client RPC
   watchdog fires against the slow-but-alive peer and *re-arms*
   instead of spuriously failing the call,
2. an asymmetric partition: a partition window severs one client->shard
   link; new conversations fail fast with a typed
   ``LinkPartitionedError`` while everyone else keeps full access, and
   in-flight exchanges drain losslessly,
3. clock skew: a skewed observer's lease view lags a real crash, so
   it keeps trusting the dead shard until its own (late) view expires,
4. the gray availability mix: readers/writers/transactions riding
   through slow-but-alive windows with the torn-read audit at zero.

Run:  PYTHONPATH=src python examples/fault_injection.py
"""

from contextlib import closing

from repro.common.errors import LinkPartitionedError
from repro.faults import (
    FailoverManager,
    FaultInjector,
    FaultSchedule,
    FaultWindow,
)
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.objstore.txn import TxnManager
from repro.workloads.availability import FailoverMixConfig, run_failover_mix


def demo_gray_failure() -> None:
    print("--- gray failure: slow-but-alive, watchdog re-arms ---")
    cfg = ShardedConfig(n_shards=4, replication=2, n_objects=32, object_size=256)
    with closing(ShardedKV(cfg)) as kv:
        kv.arm_watchdogs(300.0)  # watchdog far below one RTT; armed first, it wins
        FailoverManager(kv)
        key = kv.keys()[0]
        primary = kv.primary_of(key)
        FaultInjector(
            kv.cluster,
            FaultSchedule(
                [
                    FaultWindow(
                        "gray",
                        start_ns=0.0,
                        end_ns=150_000.0,
                        node=primary,
                        multiplier=40.0,
                    )
                ]
            ),
        )
        manager = TxnManager(kv)
        session = manager.session(0)
        outcomes = []

        def txn():
            outcome = yield from session.run([key], [key], t_end=200_000.0)
            outcomes.append(outcome)

        kv.cluster.sim.process(txn())
        kv.cluster.sim.run()
        rearms = sum(e.watchdog_rearms for e in kv.all_endpoints())
        timed_out = sum(e.timed_out_calls for e in kv.all_endpoints())
        print(
            f"txn through a 40x-slow primary: committed={outcomes[0].committed}, "
            f"watchdog re-arms={rearms}, spurious timeouts={timed_out}"
        )
        assert outcomes[0].committed and rearms > 0 and timed_out == 0


def demo_asymmetric_partition() -> None:
    print("\n--- asymmetric partition: one link severed, rest healthy ---")
    cfg = ShardedConfig(n_shards=2, replication=2, n_objects=16, object_size=256)
    with closing(ShardedKV(cfg)) as kv:
        fabric = kv.cluster.fabric
        shard_node = kv.shards[0].node_id
        client_a = kv.clients[0].node_id
        token = fabric.sever_link(client_a, shard_node)
        replies = {}

        def blocked_client():
            reply = yield kv.client_rpc(0).call(shard_node, "shard_put", b"")
            replies["blocked"] = reply

        def healthy_client():
            session = kv.reader_session(1)
            ok = yield from session.lookup(kv.keys()[0], t_end=50_000.0)
            replies["healthy"] = ok

        kv.cluster.sim.process(blocked_client())
        kv.cluster.sim.process(healthy_client())
        kv.cluster.sim.run()
        print(
            f"severed link: typed refusal="
            f"{isinstance(replies['blocked'], LinkPartitionedError)} "
            f"(refusals={fabric.partition_refusals}); "
            f"other client read ok={replies['healthy']}"
        )
        fabric.restore_link(token)
        healthy = fabric.reachable(client_a, shard_node)
        print(f"window closed: link healthy again={healthy}")


def demo_clock_skew() -> None:
    print("\n--- clock skew: a stale lease view lags a real crash ---")
    cfg = ShardedConfig(n_shards=2, replication=2, n_objects=16, object_size=256)
    with closing(ShardedKV(cfg)) as kv:
        fabric, sim = kv.cluster.fabric, kv.cluster.sim
        sharp, skewed = kv.clients[0].node_id, kv.clients[1].node_id
        fabric.set_clock_skew(skewed, 5_000.0)
        dead = kv.shards[0].node_id
        log = []
        fabric.set_alive(dead, False)  # crash at t=0
        sim.call_at(
            2_000.0,
            lambda: log.append(
                f"t=2000: sharp view alive={fabric.observed_alive(sharp, dead)}, "
                f"skewed view alive={fabric.observed_alive(skewed, dead)}"
            ),
        )
        sim.call_at(
            6_000.0,
            lambda: log.append(
                f"t=6000: skewed view alive={fabric.observed_alive(skewed, dead)}"
                " (skew elapsed)"
            ),
        )
        sim.run()
        for line in log:
            print(line)


def demo_gray_availability_mix() -> None:
    print("\n--- the gray availability mix: 3 slow-windows, 4 shards ---")
    result = run_failover_mix(
        FailoverMixConfig(
            duration_ns=120_000.0,
            cycles=0,
            seed=37,
            distribution="zipfian",
            fault_kind="gray",
            fault_windows=3,
            gray_multiplier=8.0,
            fallback_after_ns=0.0,
        )
    )
    print(
        f"reads completed           : {result.reads_completed}\n"
        f"  ... inside a window     : {result.reads_during_fault} "
        f"({result.fault_read_share:.0%})\n"
        f"writes completed          : {result.writes_completed} "
        f"({result.writes_during_fault} inside windows)\n"
        f"txn commits               : {result.commits}\n"
        f"fault windows             : {result.fault_windows}\n"
        f"undetected violations     : {result.undetected_violations} "
        f"(torn reads in txns: {result.torn_reads_observed})"
    )
    assert result.reads_during_fault > 0
    assert result.undetected_violations == 0


if __name__ == "__main__":
    demo_gray_failure()
    demo_asymmetric_partition()
    demo_clock_skew()
    demo_gray_availability_mix()
