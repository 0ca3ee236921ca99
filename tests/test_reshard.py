"""Tests for live resharding: incremental ring membership and its
exact range deltas (collisions included), the ReshardManager scale-out/
scale-in protocol under load, migration-aware write accounting and
deadline propagation, the hotspot rebalance policy, and the registered
elastic experiment specs."""

import os

import pytest

from repro.atomicity.locks import is_locked
from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.experiments import run_sweep
from repro.objstore import reshard
from repro.objstore.layout import stamped_payload
from repro.objstore.reshard import ReshardManager, ReshardOp
from repro.objstore.ring import HashRing
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.workloads.elastic import (
    ELASTIC_SCALING_SPEC,
    HOTKEY_REBALANCE_SPEC,
    ElasticConfig,
    run_elastic,
)
from repro.workloads.fuzz import fuzz_round

KEYS = [f"key-{i}" for i in range(300)]


def elastic_cfg(**kw):
    defaults = dict(
        n_shards=4,
        max_shards=8,
        n_clients=2,
        replication=2,
        mechanism="sabre",
        object_size=256,
        n_objects=48,
        seed=11,
    )
    defaults.update(kw)
    return ShardedConfig(**defaults)


def run_mixed_load(kv, t_end, n_readers=2, n_writers=2, seed=5):
    """Closed-loop readers and writers over every key until ``t_end``
    (the standard background load for a topology change)."""
    sim = kv.cluster.sim
    keys = kv.keys()
    acked = [0]

    def reader(session, label):
        pick = make_rng(seed, "reshard-reader", label)
        while sim.now < t_end:
            yield from session.lookup(keys[pick.randrange(len(keys))], t_end)

    def writer(client, label):
        pick = make_rng(seed, "reshard-writer", label)
        while sim.now < t_end:
            ack = yield kv.put(client, keys[pick.randrange(len(keys))], t_end)
            acked[0] += int(ack is not None)
            yield sim.timeout(pick.uniform(20.0, 120.0))

    for i in range(n_readers):
        sim.process(reader(kv.reader_session(i % kv.cfg.clients), i))
    for i in range(n_writers):
        sim.process(writer(i % kv.cfg.clients, i))
    sim.run()
    return acked[0]


def placements(kv):
    """Every object's holder list, in object order."""
    return [kv.placement(idx) for idx in range(kv.cfg.n_objects)]


def audit_at_rest(kv):
    """Every stored image on every serving member must be a committed
    (even-version) stamp — the migration must never leave a torn or
    locked image at rest."""
    bad = []
    for shard in kv.member_shards():
        store = kv.stores[shard]
        hosted = [idx for idx in range(kv.cfg.n_objects) if idx in store]
        for idx in hosted:
            version = store.current_version(idx)
            handle = store.handle(idx)
            raw = store.phys.read(handle.base_addr, handle.wire_size)
            want = kv.layout.pack(
                version, stamped_payload(version, kv.cfg.payload_len)
            )
            if is_locked(version) or raw != want:
                bad.append((shard, idx, version))
    assert not bad


# ----------------------------------------------------------------------
# incremental ring membership
# ----------------------------------------------------------------------
class TestIncrementalRing:
    def test_add_shard_matches_fresh_build(self):
        ring = HashRing(range(4), vnodes=32, seed=9)
        ring.add_shard(4)
        fresh = HashRing(range(5), vnodes=32, seed=9)
        assert ring._points == fresh._points
        assert [ring.replicas(k, 3) for k in KEYS] == [
            fresh.replicas(k, 3) for k in KEYS
        ]

    def test_remove_shard_matches_fresh_build(self):
        ring = HashRing(range(5), vnodes=32, seed=9)
        ring.remove_shard(2)
        fresh = HashRing([0, 1, 3, 4], vnodes=32, seed=9)
        assert ring._points == fresh._points
        assert [ring.replicas(k, 3) for k in KEYS] == [
            fresh.replicas(k, 3) for k in KEYS
        ]

    def test_add_then_remove_roundtrips(self):
        ring = HashRing(range(4), vnodes=16, seed=3)
        before = list(ring._points)
        ring.add_shard(7)
        ring.remove_shard(7)
        assert ring._points == before
        assert sorted(ring.shard_ids) == [0, 1, 2, 3]

    def test_add_deltas_name_exactly_the_moved_keys(self):
        ring = HashRing(range(4), vnodes=32, seed=9)
        old = {k: ring.replicas(k, 1)[0] for k in KEYS}
        deltas = ring.add_shard(4)
        assert deltas
        for key in KEYS:
            h = ring.key_hash(key)
            covering = [d for d in deltas if d.covers(h)]
            if ring.replicas(key, 1)[0] != old[key]:
                # A moved key is covered by exactly one delta, and that
                # delta's arc ends at the new shard's vnode point.
                assert len(covering) == 1
                assert ring.replicas(key, 1)[0] == 4
                assert covering[0].hi == ring._point(4, covering[0].vnode)
            else:
                assert not covering

    def test_remove_deltas_name_exactly_the_moved_keys(self):
        ring = HashRing(range(5), vnodes=32, seed=9)
        old = {k: ring.replicas(k, 1)[0] for k in KEYS}
        deltas = ring.remove_shard(1)
        for key in KEYS:
            h = ring.key_hash(key)
            covering = [d for d in deltas if d.covers(h)]
            if old[key] == 1:
                assert len(covering) == 1
                assert ring.replicas(key, 1)[0] != 1
                assert covering[0].hi == ring._point(1, covering[0].vnode)
            else:
                assert ring.replicas(key, 1)[0] == old[key]
                assert not covering


class _CollidingRing(HashRing):
    """Every shard's vnode ``v`` lands on the same 64-bit point, so the
    entire ring is hash-collision runs — ownership must come from the
    (point, shard, vnode) tie-break, never construction order."""

    def _point(self, shard, vnode):
        return (vnode + 1) << 32


class TestRingCollisions:
    def test_colliding_points_order_by_shard_then_vnode(self):
        ring = _CollidingRing((1, 2), vnodes=8, seed=1)
        # Within every equal-hash run the tuple-smallest shard owns.
        assert all(ring.replicas(k, 1)[0] == 1 for k in KEYS)
        # Shadowed shards still appear in successor lists (the walk
        # covers every point, collisions included).
        assert all(sorted(ring.replicas(k, 2)) == [1, 2] for k in KEYS)

    def test_incremental_build_is_stable_under_collisions(self):
        """Regression: adding/removing a shard whose points collide
        with existing ones must produce the same ring as a fresh build
        — the tie-break, not insertion order, decides ownership."""
        ring = _CollidingRing((1, 2), vnodes=8, seed=1)
        deltas = ring.add_shard(0)
        fresh = _CollidingRing((0, 1, 2), vnodes=8, seed=1)
        assert ring._points == fresh._points
        assert [ring.replicas(k, 1)[0] for k in KEYS] == [
            fresh.replicas(k, 1)[0] for k in KEYS
        ]
        # Shard 0 sorts ahead of shard 1 at every collision point, so
        # it takes over every run head — and the deltas say so exactly.
        assert all(ring.replicas(k, 1)[0] == 0 for k in KEYS)
        assert sorted(d.vnode for d in deltas) == list(range(8))
        ring.remove_shard(0)
        assert ring._points == _CollidingRing((1, 2), vnodes=8, seed=1)._points

    def test_shadowed_shard_owns_nothing_and_reports_no_deltas(self):
        """Adding a shard whose every point is shadowed by a smaller
        (hash, shard) tuple moves no keys and must say so: zero deltas,
        primaries untouched."""
        ring = _CollidingRing((0, 1), vnodes=8, seed=1)
        old = {k: ring.replicas(k, 1)[0] for k in KEYS}
        deltas = ring.add_shard(2)
        assert deltas == []
        assert {k: ring.replicas(k, 1)[0] for k in KEYS} == old
        # The shadowed member is still reachable as a replica.
        assert all(2 in ring.replicas(k, 3) for k in KEYS)
        # And removing it is a no-op for ownership, symmetrically.
        assert ring.remove_shard(2) == []
        assert {k: ring.replicas(k, 1)[0] for k in KEYS} == old


# ----------------------------------------------------------------------
# membership lifecycle
# ----------------------------------------------------------------------
class TestMembership:
    def test_activate_and_deactivate_spare(self):
        kv = ShardedKV(elastic_cfg(n_shards=2, max_shards=3))
        assert kv.member_shards() == [0, 1]
        epoch = kv.epoch
        kv.activate_shard(2)
        assert kv.member_shards() == [0, 1, 2]
        assert kv.serving[2]
        assert kv.epoch == epoch + 1
        kv.deactivate_shard(2)  # nothing routes to it yet
        assert kv.member_shards() == [0, 1]

    def test_activation_validation(self):
        kv = ShardedKV(elastic_cfg(n_shards=2, max_shards=3))
        with pytest.raises(ConfigError):
            kv.activate_shard(0)  # already a member
        with pytest.raises(ConfigError):
            kv.activate_shard(3)  # beyond the provisioned slots
        with pytest.raises(ConfigError):
            kv.deactivate_shard(2)  # not a member
        with pytest.raises(ConfigError):
            kv.deactivate_shard(0)  # placement still routes to it

    def test_spares_do_not_count_as_an_outage(self):
        from repro.objstore.failover import FailoverManager, FailurePlan

        kv = ShardedKV(elastic_cfg(n_shards=2, max_shards=4))
        injector = FailoverManager(kv, FailurePlan(faults=()))
        assert not injector.any_down()

    def test_reshard_op_validation(self):
        kv = ShardedKV(elastic_cfg())
        with pytest.raises(ConfigError):
            ReshardOp("split", 0).validate(kv)
        with pytest.raises(ConfigError):
            ReshardOp("add", 99).validate(kv)


# ----------------------------------------------------------------------
# the manager protocol under load
# ----------------------------------------------------------------------
class TestReshardManager:
    @pytest.mark.parametrize("mechanism", ("sabre", "checksum"))
    def test_scale_out_under_load_matches_fresh_deployment(self, mechanism):
        cfg = elastic_cfg(mechanism=mechanism)
        kv = ShardedKV(cfg)
        manager = ReshardManager(kv)
        chosen = manager.scale_out(4, at_ns=8_000.0)
        assert chosen == [4, 5, 6, 7]
        acked = run_mixed_load(kv, t_end=40_000.0)
        assert acked > 0
        assert kv.member_shards() == list(range(8))
        assert manager.stats.shards_added == 4
        assert manager.stats.keys_migrated > 0
        assert manager.stats.vnode_handoffs > 0
        assert not kv.double_read
        # Zero undetected violations through the whole migration.
        assert sum(
            s.undetected_violations for s in kv.all_reader_stats()
        ) == 0
        audit_at_rest(kv)
        # Placement-identical to a deployment that *started* at 8.
        fresh = ShardedKV(elastic_cfg(mechanism=mechanism, n_shards=8))
        assert placements(kv) == placements(fresh)

    def test_scale_in_returns_members_to_spares(self):
        cfg = elastic_cfg(n_shards=6, max_shards=6)
        kv = ShardedKV(cfg)
        manager = ReshardManager(kv)
        manager.scale_in([4, 5], at_ns=8_000.0)
        run_mixed_load(kv, t_end=40_000.0)
        assert kv.member_shards() == [0, 1, 2, 3]
        assert not kv.members[4] and not kv.serving[5]
        assert [s for _t, kind, s in manager.events if kind == "removed"] == [4, 5]
        assert sum(
            s.undetected_violations for s in kv.all_reader_stats()
        ) == 0
        audit_at_rest(kv)
        fresh = ShardedKV(elastic_cfg(n_shards=4, max_shards=6))
        assert placements(kv) == placements(fresh)
        # The departed shards hold no routed state anymore.
        for idx in range(cfg.n_objects):
            assert not set(kv.placement(idx)) & {4, 5}

    def test_scale_out_needs_enough_spares(self):
        kv = ShardedKV(elastic_cfg(n_shards=4, max_shards=5))
        manager = ReshardManager(kv)
        with pytest.raises(ConfigError):
            manager.scale_out(2, at_ns=100.0)
        # A scheduled (not yet executed) scale-out claims its slot.
        manager.scale_out(1, at_ns=100.0)
        assert manager.spare_slots() == []
        with pytest.raises(ConfigError):
            manager.scale_out(1, at_ns=200.0)

    def test_scale_in_below_replication_rejected(self):
        kv = ShardedKV(elastic_cfg(n_shards=3, max_shards=3))
        manager = ReshardManager(kv)
        with pytest.raises(ConfigError):
            manager.scale_in([1, 2], at_ns=10.0)  # would leave 1 < repl 2
        # Rejected at schedule time: nothing queued, the run is clean.
        kv.cluster.sim.run()
        assert manager.events == []
        assert kv.member_shards() == [0, 1, 2]

    def test_membership_conflicts_rejected_at_schedule_time(self):
        """Regression: membership-intent conflicts (adding a member,
        removing a spare, two plans draining the same shard) surface
        as schedule-time ConfigErrors, not mid-simulation crashes."""
        kv = ShardedKV(elastic_cfg(n_shards=4, max_shards=6, n_objects=12))
        manager = ReshardManager(kv)
        with pytest.raises(ConfigError):
            manager.schedule([ReshardOp("add", 0)], at_ns=10.0)  # member
        with pytest.raises(ConfigError):
            manager.scale_in([5], at_ns=10.0)  # spare, not a member
        manager.scale_in([3], at_ns=1_000.0)
        with pytest.raises(ConfigError):
            manager.scale_in([3], at_ns=2_000.0)  # already leaving
        chosen = manager.scale_out(1, at_ns=1_000.0)
        with pytest.raises(ConfigError):
            # A slot claimed by a scheduled scale-out cannot join twice.
            manager.schedule([ReshardOp("add", chosen[0])], at_ns=2_000.0)
        # The valid plans still execute cleanly.
        kv.cluster.sim.run()
        assert kv.member_shards() == [0, 1, 2, chosen[0]]
        assert not any(e[1] == "plan_error" for e in manager.events)

    def test_scale_in_recopies_stale_prior_owner_images(self):
        """Regression: a scale-out moves keys off their owners (whose
        at-rest images stay behind), writes advance the keys on the
        new owner, and a scale-in hands them back.  The returning
        owners must be re-copied, not trusted on their stale images —
        pinned by version monotonicity: no at-rest copy anywhere may
        exceed its key's current primary."""
        cfg = elastic_cfg(n_objects=32, max_shards=5)
        kv = ShardedKV(cfg)
        manager = ReshardManager(kv)
        added = manager.scale_out(1, at_ns=2_000.0)
        manager.scale_in(added, at_ns=25_000.0)
        acked = run_mixed_load(kv, t_end=50_000.0)
        assert acked > 0
        assert manager.stats.shards_added == 1
        assert [s for _t, kind, s in manager.events if kind == "removed"] == added
        assert kv.member_shards() == [0, 1, 2, 3]
        for idx in range(cfg.n_objects):
            v_primary = kv.stores[kv.placement(idx)[0]].current_version(idx)
            # Every routed replica converged to the primary's version.
            for s in kv.placement(idx):
                assert kv.stores[s].current_version(idx) == v_primary
            # No stale (or regressed) image anywhere outruns the key.
            for s in range(kv.provisioned):
                if idx in kv.stores[s]:
                    assert kv.stores[s].current_version(idx) <= v_primary, (
                        idx,
                        s,
                    )
        audit_at_rest(kv)

    def test_reads_keep_completing_mid_migration(self):
        cfg = elastic_cfg()
        kv = ShardedKV(cfg)
        manager = ReshardManager(kv)
        manager.scale_out(4, at_ns=5_000.0)
        sim = kv.cluster.sim
        mid = [0]
        t_end = 30_000.0

        def reader(session):
            pick = make_rng(5, "mid-reader")
            keys = kv.keys()
            while sim.now < t_end:
                ok = yield from session.lookup(
                    keys[pick.randrange(len(keys))], t_end
                )
                if ok and manager.any_migrating():
                    mid[0] += 1

        sim.process(reader(kv.reader_session(0)))
        sim.run()
        assert mid[0] > 0
        # The migration took simulated time: the last shard joined
        # well after the change started.
        joined = [t for t, kind, _s in manager.events if kind == "added"]
        assert len(joined) == 4 and max(joined) > 5_000.0


# ----------------------------------------------------------------------
# write accounting and deadlines across migration re-routes
# ----------------------------------------------------------------------
class TestMigrationWriteAccounting:
    def _kv(self):
        return ShardedKV(
            elastic_cfg(n_shards=2, max_shards=2, n_clients=1, n_objects=8)
        )

    def test_redirect_charged_once_to_the_fencing_shard(self):
        """A migration flipping ownership between a put's issue and its
        service fences the write exactly once: one ``fenced_rejects``
        and one paired ``reshard_redirects`` on the stale owner, the
        committed update on the new one — no double-charged retries, no
        orphaned counters."""
        kv = self._kv()
        sim = kv.cluster.sim
        key = kv.key_name(0)
        src, dst = kv.placement(0)
        acks = []

        def driver():
            ack = yield kv.put(0, key, t_end=50_000.0)
            acks.append(ack)

        sim.process(driver())

        def flip():
            kv.flip(0, (dst, src))
            kv.advance_epoch()

        sim.call_at(0.5, flip)  # put issued, not yet served
        sim.run()
        assert acks and acks[0] is not None
        ws_src, ws_dst = kv.write_stats[src], kv.write_stats[dst]
        assert ws_src.fenced_rejects == 1
        assert ws_src.reshard_redirects == 1
        assert ws_dst.fenced_rejects == 0
        assert ws_dst.reshard_redirects == 0
        assert ws_dst.primary_updates == 1
        assert ws_src.primary_updates == 0
        # The busy ledger stays paired and untouched.
        assert sum(w.write_retries for w in kv.write_stats) == 0
        assert sum(w.busy_rejects for w in kv.write_stats) == 0
        # Both attempts are routed; nothing issued twice or lost.
        assert sum(w.writes_routed for w in kv.write_stats) == 2

    def test_fence_without_ownership_move_is_not_a_reshard_redirect(self):
        """An epoch bump alone (same primary) fences the write but must
        not charge the migration-redirect counter."""
        kv = self._kv()
        sim = kv.cluster.sim
        key = kv.key_name(0)
        acks = []

        def driver():
            ack = yield kv.put(0, key, t_end=50_000.0)
            acks.append(ack)

        sim.process(driver())
        sim.call_at(0.5, kv.advance_epoch)
        sim.run()
        assert acks and acks[0] is not None
        assert sum(w.fenced_rejects for w in kv.write_stats) == 1
        assert sum(w.reshard_redirects for w in kv.write_stats) == 0

    def test_permanently_migrating_key_cannot_spin_past_deadline(self):
        """A redirected put carries its *remaining* budget: if the key
        keeps migrating forever, the put resolves ``None`` at the
        deadline instead of restarting its budget on every re-route."""
        kv = self._kv()
        sim = kv.cluster.sim
        idx = 0
        key = kv.key_name(idx)
        t_dead = 4_000.0

        def flipper():
            # Flip ownership + epoch faster than any RPC round trip,
            # so every re-issued put arrives already stale.  Bounded
            # well past the deadline so the heap still drains.
            while sim.now < 12_000.0:
                p = kv.placement(idx)
                kv.flip(idx, (p[1], p[0]))
                kv.advance_epoch()
                yield sim.timeout(1.0)

        sim.process(flipper())
        done = []

        def driver():
            ack = yield kv.put(0, key, t_end=t_dead)
            done.append((ack, sim.now))

        sim.process(driver())
        sim.run()
        ack, t_done = done[0]
        assert ack is None
        assert t_done >= t_dead  # used the full remaining budget ...
        assert t_done <= 12_000.0  # ... and stopped promptly after it
        assert sum(w.reshard_redirects for w in kv.write_stats) > 0


# ----------------------------------------------------------------------
# hotspot rebalancing
# ----------------------------------------------------------------------
class TestHotspotPolicy:
    def test_rebalance_config_validation(self):
        with pytest.raises(ConfigError):
            ElasticConfig(max_extra_replicas=-1).validate()
        assert 0.0 < reshard.COOL_SHARE <= reshard.HOT_SHARE <= 1.0

    def test_hot_key_promoted_then_demoted(self, monkeypatch):
        """A key concentrating reads gains extra replicas; once its
        share cools the extras drop and placement collapses back."""
        monkeypatch.setattr(reshard, "REBALANCE_INTERVAL_NS", 4_000.0)
        monkeypatch.setattr(reshard, "HOT_SHARE", 0.3)
        monkeypatch.setattr(reshard, "COOL_SHARE", 0.05)
        monkeypatch.setattr(reshard, "REBALANCE_MIN_READS", 8)
        kv = ShardedKV(elastic_cfg(max_shards=4, n_objects=32))
        manager = ReshardManager(kv)
        manager.start_rebalancer(2, until_ns=60_000.0)
        sim = kv.cluster.sim
        t_hot_end = 30_000.0
        base_width = len(kv.placement(0))

        def reader(session, label):
            pick = make_rng(3, "hot-reader", label)
            while sim.now < t_hot_end:
                idx = 0 if pick.random() < 0.8 else pick.randrange(32)
                yield from session.lookup(kv.key_name(idx), t_hot_end)

        for i in range(2):
            sim.process(reader(kv.reader_session(i % kv.cfg.clients), i))
        sim.run()
        assert manager.stats.hot_promotions >= 1
        assert manager.stats.hot_demotions >= 1
        assert any(e[1] == "promote" and e[2] == 0 for e in manager.events)
        # Load is gone, so the extras are gone too.
        assert kv.hot_replicas == {}
        assert len(kv.placement(0)) == base_width
        assert sum(
            s.undetected_violations for s in kv.all_reader_stats()
        ) == 0
        audit_at_rest(kv)

    def test_repromotion_refreshes_stale_at_rest_image(self, monkeypatch):
        """Regression: promote -> demote -> write -> re-promote onto
        the same shard.  The ex-extra still holds an at-rest copy from
        its first tour; the re-promotion must overwrite it with the
        current committed image, never serve the stale one."""
        monkeypatch.setattr(reshard, "DRAIN_NS", 500.0)
        kv = ShardedKV(elastic_cfg(n_shards=3, max_shards=3, n_objects=4))
        manager = ReshardManager(kv)
        sim = kv.cluster.sim
        idx = 0
        key = kv.key_name(idx)
        done = []

        def driver():
            yield from manager._promote(idx, 2)
            extra = kv.hot_replicas[idx][0]
            manager._demote(idx)
            yield sim.timeout(1_000.0)  # past the drain: extra pruned
            assert extra not in kv.placement(idx)
            stale = kv.stores[extra].current_version(idx)
            for _ in range(3):
                ack = yield kv.put(0, key, t_end=sim.now + 50_000.0)
                assert ack is not None
            yield sim.timeout(2_000.0)  # replication fan-out drains
            yield from manager._promote(idx, 2)
            assert kv.hot_replicas[idx] == [extra]
            v_primary = kv.stores[kv.placement(idx)[0]].current_version(
                idx
            )
            assert v_primary > stale
            assert kv.stores[extra].current_version(idx) == v_primary
            done.append(True)

        sim.process(driver())
        sim.run()
        assert done
        audit_at_rest(kv)

    def test_demote_keeps_extra_readable_for_drain_grace(self, monkeypatch):
        """Mirror of the migration drain: a demoted extra stops being
        routed to immediately but stays on the placement tail — still
        replicated-to — for ``DRAIN_NS``, so an in-flight read routed
        pre-demotion can never consume a stale copy."""
        monkeypatch.setattr(reshard, "DRAIN_NS", 2_000.0)
        kv = ShardedKV(elastic_cfg(n_shards=3, max_shards=3, n_objects=4))
        manager = ReshardManager(kv)
        sim = kv.cluster.sim
        idx = 0
        done = []

        def driver():
            yield from manager._promote(idx, 2)
            extra = kv.hot_replicas[idx][0]
            manager._demote(idx)
            # Routing stopped at once ...
            assert kv.hot_replicas == {}
            # ... but the ex-extra is still placed during the grace,
            assert extra in kv.placement(idx)
            # ... and still covered by the replication fan-out:
            ack = yield kv.put(0, kv.key_name(idx), t_end=sim.now + 10_000.0)
            assert ack is not None
            yield sim.timeout(1_000.0)  # replication drains (< grace)
            v_primary = kv.stores[kv.placement(idx)[0]].current_version(
                idx
            )
            assert kv.stores[extra].current_version(idx) == v_primary
            yield sim.timeout(2_000.0)  # past the grace: now pruned
            assert extra not in kv.placement(idx)
            done.append(True)

        sim.process(driver())
        sim.run()
        assert done
        assert manager.stats.hot_demotions == 1


# ----------------------------------------------------------------------
# the elastic workload + registered specs
# ----------------------------------------------------------------------
class TestElasticWorkload:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            # The fault lane's last window would close at 1.05 x the run.
            ElasticConfig(fault_kind="gray", fault_windows=4).validate()
        with pytest.raises(ConfigError):
            ElasticConfig(warmup_ns=80_000.0).validate()
        with pytest.raises(ConfigError):
            ElasticConfig(fault_kind="meteor").validate()
        with pytest.raises(ConfigError):
            ElasticConfig(n_clients=0).validate()
        with pytest.raises(ConfigError):
            ElasticConfig(target_shards=1, replication=2).validate()

    @pytest.mark.parametrize(
        "mechanism", ("sabre", "percl_versions", "checksum", "drtm_lock")
    )
    def test_scale_out_mid_run_zero_violations(self, mechanism):
        result = run_elastic(
            ElasticConfig(
                mechanism=mechanism,
                duration_ns=60_000.0,
                compare_baseline=False,
                seed=43,
            )
        )
        assert result.undetected_violations == 0
        assert result.reshard.shards_added == 4
        assert result.reshard.keys_migrated > 0
        assert result.reads_during_migration > 0
        assert result.post_reads > 0
        assert sum(row["member"] for row in result.shard_rows) == 8

    def test_scale_in_mid_run(self):
        result = run_elastic(
            ElasticConfig(
                n_shards=6,
                target_shards=4,
                duration_ns=60_000.0,
                compare_baseline=False,
                seed=43,
            )
        )
        assert result.undetected_violations == 0
        assert sum(kind == "removed" for _t, kind, _s in result.events) == 2
        assert sum(row["member"] for row in result.shard_rows) == 4

    def test_migration_composes_with_gray_windows(self):
        result = run_elastic(
            ElasticConfig(
                duration_ns=60_000.0,
                compare_baseline=False,
                fault_kind="gray",
                fault_windows=2,
                seed=43,
            )
        )
        assert result.undetected_violations == 0
        assert result.reshard.shards_added == 4

    @pytest.mark.smoke
    @pytest.mark.parametrize("seed", (43, 101, 202))
    def test_acceptance_scale_out_converges(self, seed):
        """The headline criterion: 4 -> 8 mid-run, zero undetected
        violations, post-window throughput within 10% of a run that
        started at 8 shards."""
        result = run_elastic(
            ElasticConfig(duration_ns=120_000.0, seed=seed)
        )
        assert result.undetected_violations == 0
        assert result.reshard.shards_added == 4
        assert 0.9 <= result.convergence_ratio <= 1.1, (
            seed,
            result.convergence_ratio,
        )

    def test_elastic_scaling_parallel_sweep_matches_serial(self):
        axes = {"target_shards": (8,)}
        serial = run_sweep(ELASTIC_SCALING_SPEC, scale=0.1, axes=axes)
        parallel = run_sweep(
            ELASTIC_SCALING_SPEC, scale=0.1, axes=axes, jobs=2
        )
        assert repr(serial.rows) == repr(parallel.rows)

    def test_hotkey_rebalance_parallel_sweep_matches_serial(self):
        serial = run_sweep(HOTKEY_REBALANCE_SPEC, scale=0.1)
        parallel = run_sweep(HOTKEY_REBALANCE_SPEC, scale=0.1, jobs=2)
        assert repr(serial.rows) == repr(parallel.rows)


# ----------------------------------------------------------------------
# fuzz composition: migration x crash x gray x partition
# ----------------------------------------------------------------------
class TestElasticFuzzLane:
    def test_reshard_lane_is_deterministic(self):
        kw = dict(duration_ns=40_000.0, reshard_adds=2)
        for seed in (1, 7):
            a = fuzz_round("sabre", 4, seed=seed, **kw)
            b = fuzz_round("sabre", 4, seed=seed, **kw)
            assert a.fingerprint == b.fingerprint, seed
            assert a.undetected_violations == 0
            assert a.shards_added == 2
            assert a.keys_migrated > 0

    def test_reshard_composes_with_crash_and_fault_lanes(self):
        out = fuzz_round(
            "sabre",
            4,
            seed=7,
            duration_ns=50_000.0,
            crash_cycles=1,
            gray_windows=1,
            partition_windows=1,
            skew_max_ns=200.0,
            reshard_adds=2,
        )
        assert out.undetected_violations == 0
        assert out.torn_reads_observed == 0
        assert out.shards_added == 2
        assert out.crashes >= 1

    @pytest.mark.slow
    def test_migration_soak(self):
        """Nightly lane: many seeds of the fully-composed schedule
        (migration x crash x gray x partition x skew)."""
        rounds = int(os.environ.get("SABRES_FUZZ_ROUNDS", "6"))
        for i in range(rounds):
            for mechanism in ("sabre", "checksum"):
                out = fuzz_round(
                    mechanism,
                    4,
                    seed=9_000 + i,
                    duration_ns=60_000.0,
                    crash_cycles=2,
                    gray_windows=2,
                    partition_windows=1,
                    skew_max_ns=500.0,
                    reshard_adds=2,
                )
                assert out.undetected_violations == 0, (mechanism, i)
                assert out.torn_reads_observed == 0, (mechanism, i)
                assert out.shards_added == 2
