"""Race reproduction tests.

These reproduce Fig. 2's reader-writer race deterministically: block 1
is made LLC-resident (fast reply) while block 0 (the header) is cold
(slow ~90 ns memory reply), and a writer commits a full update in the
gap between the two replies.  The naive overlap consumes torn data;
LightSABRes' stream-buffer snooping aborts instead.
"""

import dataclasses

from repro.common.config import SabreMode, sabre_cluster
from repro.objstore.layout import RawLayout, stamped_payload, torn_words
from repro.objstore.store import ObjectStore
from repro.sonuma.node import Cluster


PAYLOAD_LEN = 100  # wire = 108 B -> 2 cache blocks


def build_race(mode):
    cluster = Cluster(sabre_cluster(mode=mode))
    dst, src = cluster.node(0), cluster.node(1)
    store = ObjectStore(dst.phys, RawLayout())
    store.create(1, stamped_payload(0, PAYLOAD_LEN), version=0)
    handle = store.handle(1)
    # Warm block 1 into the destination LLC so its SABRe read replies
    # quickly; block 0 stays memory-resident (~90 ns).
    dst.chip.read_block(0, handle.base_addr + 64)
    return cluster, dst, src, store, handle


def racing_writer(cluster, dst, store, at_ns=100.0):
    """Commit a full update (version 0 -> 2) instantaneously at
    ``at_ns``.

    With Table 2 timing the SABRe's block 1 (LLC hit) reply lands at
    ~75 ns and block 0's memory reply at ~143 ns; committing at 100 ns
    puts the update exactly inside Fig. 2's race window."""

    def write_now():
        steps, _v = store.update_steps(1, stamped_payload(2, PAYLOAD_LEN))
        for addr, chunk in steps:
            dst.chip.write_block(0, addr, chunk)

    cluster.sim.call_later(at_ns, write_now)


def run_sabre(cluster, src, handle):
    buf = src.alloc_buffer(handle.wire_size)
    results = []

    def proc():
        result = yield src.sabre_read(0, handle.base_addr, handle.wire_size, buf)
        results.append(result)

    cluster.sim.process(proc())
    cluster.run()
    raw = src.read_local(buf, handle.wire_size)
    strip = RawLayout().unpack(raw, PAYLOAD_LEN)
    return results[0], strip.data


class TestFig2Race:
    def test_naive_overlap_returns_torn_data_undetected(self):
        """The straw man of Fig. 2: reply reordering + a racing writer
        produce a success report for a torn read."""
        cluster, dst, src, store, handle = build_race(SabreMode.NAIVE_UNSAFE)
        racing_writer(cluster, dst, store)
        result, data = run_sabre(cluster, src, handle)
        assert result.success  # hardware wrongly reports atomicity
        torn, words = torn_words(data)
        assert torn  # ... but the payload mixes versions 0 and 2
        assert words == {0, 2}

    def test_lightsabres_detects_the_same_race(self):
        """Same schedule, speculative LightSABRes: the write to block 1
        invalidates a tracked stream-buffer entry during the window of
        vulnerability, so the SABRe aborts (§3.3)."""
        cluster, dst, src, store, handle = build_race(SabreMode.SPECULATIVE)
        racing_writer(cluster, dst, store)
        result, _data = run_sabre(cluster, src, handle)
        assert not result.success
        assert cluster.node(0).counters.get("abort_window_invalidation") == 1

    def test_no_speculation_is_also_safe(self):
        """The serialized variant never reads data before the version,
        so the same schedule yields either an abort or a consistent
        (post-update) image — never torn data."""
        cluster, dst, src, store, handle = build_race(SabreMode.NO_SPECULATION)
        racing_writer(cluster, dst, store)
        result, data = run_sabre(cluster, src, handle)
        if result.success:
            assert not torn_words(data)[0]
        else:
            assert cluster.node(0).counters.get("sabre_aborts") == 1

    def test_retry_after_abort_succeeds_with_new_data(self):
        cluster, dst, src, store, handle = build_race(SabreMode.SPECULATIVE)
        racing_writer(cluster, dst, store)
        buf = src.alloc_buffer(handle.wire_size)
        outcomes = []

        def proc():
            result = yield src.sabre_read(0, handle.base_addr, handle.wire_size, buf)
            outcomes.append(result.success)
            while not outcomes[-1]:
                result = yield src.sabre_read(
                    0, handle.base_addr, handle.wire_size, buf
                )
                outcomes.append(result.success)

        cluster.sim.process(proc())
        cluster.run()
        assert outcomes[-1] is True
        raw = src.read_local(buf, handle.wire_size)
        data = RawLayout().unpack(raw, PAYLOAD_LEN).data
        assert data == stamped_payload(2, PAYLOAD_LEN)


class TestBaseBlockAmbiguity:
    def test_post_window_write_caught_by_validate_stage(self):
        """A writer that starts after the version read must be caught by
        the validate stage's version re-read (§4.2)."""
        cluster = Cluster(sabre_cluster(mode=SabreMode.SPECULATIVE))
        dst, src = cluster.node(0), cluster.node(1)
        store = ObjectStore(dst.phys, RawLayout())
        payload_len = 8000  # long transfer: plenty of post-window time
        store.create(1, stamped_payload(0, payload_len), version=0)
        handle = store.handle(1)

        def write_late():
            steps, _v = store.update_steps(1, stamped_payload(2, payload_len))
            for addr, chunk in steps:
                dst.chip.write_block(0, addr, chunk)

        # The version read completes within ~150 ns; the full transfer
        # takes >450 ns.  Write at 300 ns: post-window, mid-transfer.
        cluster.sim.call_later(300.0, write_late)
        buf = src.alloc_buffer(handle.wire_size)
        results = []

        def proc():
            result = yield src.sabre_read(0, handle.base_addr, handle.wire_size, buf)
            results.append(result)

        cluster.sim.process(proc())
        cluster.run()
        assert not results[0].success
        assert dst.counters.get("abort_validate_mismatch") == 1
        assert dst.counters.get("sabre_aborts") == 1

    def test_base_eviction_false_alarm_validates_successfully(self):
        """An eviction-triggered invalidation of the base block is a
        false alarm: the validate stage re-reads the version, finds it
        unchanged, and confirms success (§4.2)."""
        cluster = Cluster(sabre_cluster(mode=SabreMode.SPECULATIVE))
        dst, src = cluster.node(0), cluster.node(1)
        store = ObjectStore(dst.phys, RawLayout())
        payload_len = 8000
        store.create(1, stamped_payload(4, payload_len), version=4)
        handle = store.handle(1)

        def evict_base():
            # Stream unrelated blocks through the LLC until the object's
            # base block is evicted.
            filler = dst.phys.allocate(64 * (dst.chip.llc.capacity + 64))
            for i in range(dst.chip.llc.capacity + 64):
                dst.chip.read_block(0, filler + 64 * i)

        cluster.sim.call_later(300.0, evict_base)
        entries = []
        cluster.sim.call_later(
            301.0,
            lambda: entries.extend(e for r in dst.r2p2s for e in r.att.entries()),
        )
        buf = src.alloc_buffer(handle.wire_size)
        results = []

        def proc():
            result = yield src.sabre_read(0, handle.base_addr, handle.wire_size, buf)
            results.append(result)

        cluster.sim.process(proc())
        cluster.run()
        assert results[0].success  # no writer: atomicity holds
        assert [e.validating for e in entries] == [True]  # re-read ran
        assert dst.counters.get("sabre_aborts") == 0
        raw = src.read_local(buf, handle.wire_size)
        assert RawLayout().unpack(raw, payload_len).data == stamped_payload(
            4, payload_len
        )


class TestHardwareRetry:
    def test_hardware_retry_recovers_transparently(self):
        """§5.1 ablation: with hardware retry enabled and a conflict
        detected before any reply left, the R2P2 retries internally and
        the source still sees one successful completion."""
        cfg = sabre_cluster(mode=SabreMode.SPECULATIVE)
        sabre = dataclasses.replace(cfg.node.sabre, hardware_retry=True)
        node = dataclasses.replace(cfg.node, sabre=sabre)
        cfg = dataclasses.replace(cfg, node=node)
        cluster = Cluster(cfg)
        dst, src = cluster.node(0), cluster.node(1)
        store = ObjectStore(dst.phys, RawLayout())
        store.create(1, stamped_payload(0, PAYLOAD_LEN), version=0)
        handle = store.handle(1)
        dst.chip.read_block(0, handle.base_addr + 64)  # warm block 1

        def write_now():
            steps, _v = store.update_steps(1, stamped_payload(2, PAYLOAD_LEN))
            for addr, chunk in steps:
                dst.chip.write_block(0, addr, chunk)

        # The conflict must land after the reads are issued (~67 ns)
        # but before the first memory reply (~75 ns): no reply has been
        # sent yet, so the transparent retry is legal (§5.1).
        cluster.sim.call_later(70.0, write_now)
        buf = src.alloc_buffer(handle.wire_size)
        results = []

        def proc():
            result = yield src.sabre_read(0, handle.base_addr, handle.wire_size, buf)
            results.append(result)

        cluster.sim.process(proc())
        cluster.run()
        assert dst.counters.get("hardware_retries") >= 1
        assert results[0].success
        raw = src.read_local(buf, handle.wire_size)
        assert RawLayout().unpack(raw, PAYLOAD_LEN).data == stamped_payload(
            2, PAYLOAD_LEN
        )
