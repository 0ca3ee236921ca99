"""The service view's own invariants, over every operation its owner
(:class:`~repro.objstore.sharded.ShardedKV`) offers failover and
resharding: whatever order they are called in, no placement repeats a
shard, the primary is the first serving holder, the epoch only rises —
and rises with every membership or serving change — and a shard that
is not a member hosts nothing."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.common.errors import ConfigError
from repro.objstore.sharded import ShardedConfig, ShardedKV

SLOTS = 5
OBJECTS = 6

shards = st.integers(0, SLOTS - 1)
objects = st.integers(0, OBJECTS - 1)


class ViewMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.kv = ShardedKV(
            ShardedConfig(
                n_shards=3,
                max_shards=SLOTS,
                n_clients=1,
                replication=2,
                n_objects=OBJECTS,
                object_size=64,
                seed=4,
            )
        )
        self.seen = self.snapshot()

    def teardown(self):
        self.kv.close()

    def snapshot(self):
        kv = self.kv
        return kv.epoch, list(kv.members), list(kv.serving)

    def members(self, serving=None):
        kv = self.kv
        return [
            s
            for s in kv.member_shards()
            if serving is None or kv.serving[s] == serving
        ]

    # -- failover -------------------------------------------------------
    @precondition(lambda self: self.members(serving=True))
    @rule(pick=shards)
    def demote(self, pick):
        kv = self.kv
        up = self.members(serving=True)
        shard = up[pick % len(up)]
        was_primary = sum(
            kv.placement(i)[0] == shard for i in range(OBJECTS)
        )
        hosted = kv.hosted_on(shard)
        assert kv.mark_down(shard) == was_primary
        assert not kv.serving[shard]
        assert kv.hosted_on(shard) == hosted  # demoted, never dropped
        assert all(kv.placement(i)[-1] == shard for i in hosted)

    @precondition(lambda self: self.members(serving=False))
    @rule(pick=shards)
    def readmit(self, pick):
        down = self.members(serving=False)
        shard = down[pick % len(down)]
        self.kv.mark_serving(shard)
        assert self.kv.serving[shard]

    # -- membership (the ring follows it, as the reshard manager's) -----
    @rule(shard=shards)
    def activate(self, shard):
        kv = self.kv
        if kv.members[shard]:
            with pytest.raises(ConfigError):
                kv.activate_shard(shard)
        else:
            kv.activate_shard(shard)
            kv.ring.add_shard(shard)
            assert kv.members[shard] and kv.serving[shard]

    @rule(shard=shards)
    def deactivate(self, shard):
        kv = self.kv
        if not kv.members[shard] or kv.hosted_on(shard):
            with pytest.raises(ConfigError):
                kv.deactivate_shard(shard)
        else:
            kv.ring.remove_shard(shard)
            kv.deactivate_shard(shard)
            assert not kv.members[shard] and not kv.serving[shard]

    # -- placement ------------------------------------------------------
    @rule(idx=objects, picks=st.lists(shards, min_size=1, max_size=3))
    def flip(self, idx, picks):
        kv = self.kv
        members = kv.member_shards()
        holders = tuple(dict.fromkeys(members[p % len(members)] for p in picks))
        old = kv.placement(idx)
        epoch = kv.epoch
        kv.flip(idx, holders)
        new = kv.placement(idx)
        assert new[: len(holders)] == holders
        # The old holders stay on the tail, in their old order.
        assert new[len(holders) :] == tuple(s for s in old if s not in holders)
        assert kv.epoch == epoch  # the batch closes the epoch, not the key

    @rule(idx=objects, pick=shards)
    def append_extra(self, idx, pick):
        kv = self.kv
        old = kv.placement(idx)
        spare = [s for s in kv.member_shards() if s not in old]
        if spare:
            extra = spare[pick % len(spare)]
            kv.flip(idx, old + (extra,))
            assert kv.placement(idx) == old + (extra,)

    @rule(idx=objects)
    def drop_extra(self, idx):
        kv = self.kv
        old = kv.placement(idx)
        epoch = kv.epoch
        gone = {old[-1]} if len(old) > 1 else set(range(SLOTS)) - set(old)
        kv.drop_holders(idx, gone)
        assert kv.placement(idx) == tuple(s for s in old if s not in gone)
        assert kv.epoch == epoch + (len(old) > 1)

    @rule(idx=objects)
    def collapse(self, idx):
        kv = self.kv
        kv.collapse(idx)
        assert kv.placement(idx) == kv.ring.replicas(
            kv.key_name(idx), kv.cfg.replication
        )

    @rule()
    def advance(self):
        epoch = self.kv.epoch
        self.kv.advance_epoch()
        assert self.kv.epoch == epoch + 1

    # -- what holds after every step --------------------------------------
    @invariant()
    def placements_are_sets_with_a_first_serving_primary(self):
        kv = self.kv
        for idx in range(OBJECTS):
            place = kv.placement(idx)
            assert place and len(set(place)) == len(place)
            route = tuple(s for s in place if kv.serving[s])
            assert kv.read_route(idx) == route
            assert kv.current_primary(idx) == (route[0] if route else None)
            assert kv.replicas_of(kv.key_name(idx)) == place

    @invariant()
    def epoch_rises_with_every_membership_or_serving_change(self):
        epoch, members, serving = self.seen
        now = self.snapshot()
        assert now[0] >= epoch
        if now[1:] != (members, serving):
            assert now[0] > epoch
        self.seen = now

    @invariant()
    def a_non_member_hosts_nothing_and_does_not_serve(self):
        kv = self.kv
        for shard in range(SLOTS):
            if not kv.members[shard]:
                assert not kv.serving[shard]
                assert kv.hosted_on(shard) == []


TestServiceView = ViewMachine.TestCase
TestServiceView.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
