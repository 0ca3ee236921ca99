#!/usr/bin/env python3
"""Live resharding and hotspot rebalancing under load.

Walks the elastic subsystem end to end:

1. a scripted scale-out: a 4-shard deployment grows to 8 mid-run
   while readers and writers keep flowing — per-vnode handoffs,
   double-read windows, writer redirects, and a final placement
   provably identical to a fresh 8-shard deployment,
2. the phased elastic mix, transactions included: pre/mid/post
   metering, the tail-latency blip, and post-window throughput
   converging to a run that *started* at 8 shards,
3. hotspot rebalancing: a Zipfian-head key gains promoted read
   replicas and shard imbalance drops,
4. the cool-down: the hot readers stop while the policy keeps
   running, so the extras demote and the key's placement shrinks
   back to its base width.

Run:  PYTHONPATH=src python examples/elastic_scaling.py
"""

from contextlib import closing

from repro.common.rng import make_rng
from repro.objstore.reshard import ReshardManager
from repro.objstore.ring import HashRing
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.workloads.elastic import ElasticConfig, run_elastic


def demo_scale_out() -> None:
    print("--- scale-out: 4 -> 8 shards under load ---")
    cfg = ShardedConfig(
        n_shards=4,
        max_shards=8,
        n_clients=2,
        replication=2,
        n_objects=48,
        object_size=256,
        seed=11,
    )
    with closing(ShardedKV(cfg)) as kv:
        manager = ReshardManager(kv)
        chosen = manager.scale_out(4, at_ns=8_000.0)
        print(f"members {kv.member_shards()} + spares {chosen} joining at t=8000")

        sim = kv.cluster.sim
        t_end = 40_000.0
        keys = kv.keys()

        def reader(session, label):
            pick = make_rng(5, "demo-reader", label)
            while sim.now < t_end:
                yield from session.lookup(keys[pick.randrange(len(keys))], t_end)

        def writer(client, label):
            pick = make_rng(5, "demo-writer", label)
            while sim.now < t_end:
                yield kv.put(client, keys[pick.randrange(len(keys))], t_end)
                yield sim.timeout(pick.uniform(20.0, 120.0))

        for i in range(2):
            sim.process(reader(kv.reader_session(i), i))
            sim.process(writer(i, i))
        sim.run()

        stats = manager.stats
        fresh = HashRing(range(8), vnodes=cfg.vnodes, seed=cfg.seed)
        identical = all(
            kv.placement(idx) == fresh.replicas(kv.key_name(idx), cfg.replication)
            for idx in range(cfg.n_objects)
        )
        violations = sum(s.undetected_violations for s in kv.all_reader_stats())
        print(
            f"members now               : {kv.member_shards()}\n"
            f"vnode handoffs / keys     : {stats.vnode_handoffs} / "
            f"{stats.keys_migrated} migrated ({stats.replica_copies} copies)\n"
            f"writer redirects          : "
            f"{sum(w.reshard_redirects for w in kv.write_stats)} "
            f"(fenced mid-migration, re-issued with remaining budget)\n"
            f"placement == fresh 8-shard: {identical}\n"
            f"undetected violations     : {violations}"
        )
        for t, event, shard in manager.events:
            print(f"  t={t:8.0f}  {event} shard {shard}")


def demo_elastic_mix() -> None:
    print("\n--- the phased elastic mix (with fresh-8-shard baseline) ---")
    result = run_elastic(
        ElasticConfig(duration_ns=120_000.0, seed=43, txn_sessions_per_client=1)
    )
    print(
        f"reads pre / mid / post    : {result.pre_reads} / "
        f"{result.mid_reads} / {result.post_reads}\n"
        f"  ... during migration    : {result.reads_during_migration}\n"
        f"tail blip (mid/pre p95)   : {result.tail_blip:.2f}x\n"
        f"baseline post reads       : {result.baseline_post_reads}\n"
        f"convergence ratio         : {result.convergence_ratio:.3f} "
        f"(1.0 = fresh-8-shard throughput)\n"
        f"transactions committed    : {result.commits}\n"
        f"undetected violations     : {result.undetected_violations}"
    )
    assert result.commits > 0 and result.undetected_violations == 0


def demo_hotspot_rebalance() -> None:
    print("\n--- hotspot rebalancing: Zipfian head, policy off vs on ---")
    for extras in (0, 2):
        result = run_elastic(
            ElasticConfig(
                target_shards=4,  # no topology change: the policy is the event
                distribution="zipfian",
                rebalance=True,
                max_extra_replicas=extras,
                compare_baseline=False,
                n_objects=64,
                duration_ns=120_000.0,
                seed=47,
            )
        )
        print(
            f"max_extra_replicas={extras}: imbalance "
            f"{result.shard_imbalance:.2f}, "
            f"{result.reshard.hot_promotions} promotions / "
            f"{result.reshard.hot_demotions} demotions, "
            f"violations {result.undetected_violations}"
        )


def demo_hotspot_cooldown() -> None:
    print("\n--- hotspot cool-down: the hot readers stop, the policy runs on ---")
    cfg = ShardedConfig(
        n_shards=4, n_clients=2, replication=2, n_objects=64, object_size=256, seed=47
    )
    with closing(ShardedKV(cfg)) as kv:
        manager = ReshardManager(kv)
        sim = kv.cluster.sim
        t_hot_end, t_end = 60_000.0, 120_000.0
        manager.start_rebalancer(2, until_ns=t_end)
        base_width = len(kv.placement(0))
        hot_width = []

        def reader(session, label):
            pick = make_rng(5, "hot-reader", label)
            while sim.now < t_hot_end:
                idx = 0 if pick.random() < 0.5 else pick.randrange(cfg.n_objects)
                yield from session.lookup(kv.key_name(idx), t_hot_end)

        for i in range(4):
            sim.process(reader(kv.reader_session(i % cfg.n_clients), i))
        sim.call_at(t_hot_end, lambda: hot_width.append(len(kv.placement(0))))
        sim.run()

        stats = manager.stats
        violations = sum(s.undetected_violations for s in kv.all_reader_stats())
        print(
            f"key-0 placement width     : {base_width} -> {hot_width[0]} (hot) "
            f"-> {len(kv.placement(0))} (cooled)\n"
            f"promotions / demotions    : {stats.hot_promotions} / "
            f"{stats.hot_demotions}\n"
            f"undetected violations     : {violations}"
        )
        for t, event, idx in manager.events:
            print(f"  t={t:8.0f}  {event} key {idx}")
        assert hot_width[0] > base_width and stats.hot_demotions >= 1
        assert kv.hot_replicas == {} and len(kv.placement(0)) == base_width
        assert violations == 0


if __name__ == "__main__":
    demo_scale_out()
    demo_elastic_mix()
    demo_hotspot_rebalance()
    demo_hotspot_cooldown()
