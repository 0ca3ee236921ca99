"""Tests for the fault-injection layer: schedules, severed links,
gray/straggler multipliers, clock skew, and their composition with the
crash/failover machinery."""

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import (
    ConfigError,
    LinkPartitionedError,
    ShardCrashedError,
)
from repro.experiments import run_sweep
from repro.fabric.packets import Packet, PacketKind
from repro.faults import (
    FaultInjector,
    FaultSchedule,
    FaultWindow,
    cycle_fault_schedule,
)
from repro.sonuma.node import Cluster
from repro.sonuma.rpc import RpcEndpoint
from repro.workloads.availability import (
    GRAY_AVAILABILITY_SPEC,
    PARTITION_AVAILABILITY_SPEC,
)


def service_multiplier(cluster, node_id):
    """The multiplier node ``node_id`` serves at right now: its chip's
    or its RPC endpoint's, whichever a gray or straggler window slowed."""
    node = cluster.node(node_id)
    return max(node.chip._svc_mult, node.rpc_endpoint.service_multiplier)


# ----------------------------------------------------------------------
# schedule validation
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule([FaultWindow("meteor", 0.0, 10.0, node=0)])

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule([FaultWindow("gray", 10.0, 10.0, node=0)])

    def test_gray_needs_node_and_sane_multiplier(self):
        with pytest.raises(ConfigError):
            FaultSchedule([FaultWindow("gray", 0.0, 10.0, multiplier=4.0)])
        with pytest.raises(ConfigError):
            FaultSchedule(
                [FaultWindow("gray", 0.0, 10.0, node=0, multiplier=0.5)]
            )

    def test_partition_needs_an_endpoint(self):
        with pytest.raises(ConfigError):
            FaultSchedule([FaultWindow("partition", 0.0, 10.0)])
        with pytest.raises(ConfigError):
            FaultSchedule([FaultWindow("partition", 0.0, 10.0, src=1, dst=1)])
        # The links are the whole window: a partition severs them.
        FaultSchedule([FaultWindow("partition", 0.0, 10.0, src=0, dst=1)])

    def test_negative_skew_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule(clock_skew_ns={0: -1.0})

    def test_windows_sorted_and_end_ns(self):
        sched = FaultSchedule(
            [
                FaultWindow("gray", 50.0, 80.0, node=1, multiplier=2.0),
                FaultWindow("partition", 10.0, 95.0, dst=0),
            ]
        )
        assert [w.start_ns for w in sched.windows] == [10.0, 50.0]
        assert sched.end_ns() == 95.0

    def test_cycle_builders_shape(self):
        def lane(kind, n_shards, count):
            return cycle_fault_schedule(
                kind, n_shards, count, duration_ns=1_000.0, first_frac=0.1,
                width_frac=0.05, gap_frac=0.025, multiplier=4.0,
            ).windows

        gray = lane("gray", 2, 3)
        assert [w.node for w in gray] == [0, 1, 0]
        assert [(w.start_ns, w.end_ns) for w in gray] == [
            (100.0, 150.0), (175.0, 225.0), (250.0, 300.0)
        ]
        assert all(w.multiplier == 4.0 for w in gray)
        strag = lane("straggler", 1, 2)
        assert [(w.kind, w.node) for w in strag] == [("straggler", 0)] * 2
        # Partition windows isolate one shard at a time: every ingress
        # link, no multiplier.
        part = lane("partition", 2, 2)
        assert [(w.src, w.dst, w.node) for w in part] == [
            (None, 0, None), (None, 1, None)
        ]
        assert not lane("none", 2, 3) and not lane("gray", 2, 0)

    def test_injector_rejects_out_of_range_targets(self):
        cluster = Cluster(ClusterConfig(nodes=2))
        with pytest.raises(ConfigError):
            FaultInjector(
                cluster,
                FaultSchedule(
                    [FaultWindow("gray", 0.0, 10.0, node=5, multiplier=2.0)]
                ),
            )
        with pytest.raises(ConfigError):
            FaultInjector(cluster, FaultSchedule(clock_skew_ns={9: 1.0}))


# ----------------------------------------------------------------------
# fabric-level severed links
# ----------------------------------------------------------------------
class TestLinkDegradation:
    def test_degrade_and_restore_tokens_compose(self):
        """Sever tokens on one link stack: it stays severed until the
        last one is restored."""
        fabric = Cluster(ClusterConfig(nodes=3)).fabric
        a = fabric.sever_link(0, 1)
        b = fabric.sever_link(0, 1)
        assert fabric.link_severed(0, 1)
        fabric.restore_link(b)
        assert fabric.link_severed(0, 1)
        fabric.restore_link(a)
        assert not fabric.link_severed(0, 1)
        assert not fabric._link_faults

    def test_double_restore_is_an_error(self):
        fabric = Cluster(ClusterConfig(nodes=2)).fabric
        tok = fabric.sever_link(0, 1)
        fabric.restore_link(tok)
        with pytest.raises(ConfigError):
            fabric.restore_link(tok)

    def test_degradation_validation(self):
        fabric = Cluster(ClusterConfig(nodes=2)).fabric
        with pytest.raises(ConfigError):
            fabric.sever_link(0, 0)
        with pytest.raises(ConfigError):
            fabric.sever_link(0, 2)  # outside the fabric
        assert not fabric._link_faults

    def test_severed_is_bidirectional_reachable_is_not_confused(self):
        fabric = Cluster(ClusterConfig(nodes=3)).fabric
        tok = fabric.sever_link(0, 1)
        assert fabric.link_severed(0, 1)
        assert fabric.link_severed(1, 0)  # replies cannot return either
        assert not fabric.link_severed(0, 2)
        assert not fabric.reachable(0, 1)
        assert fabric.reachable(2, 1)
        fabric.restore_link(tok)
        assert fabric.reachable(0, 1)

    def test_drop_window_does_not_lose_inflight_packets(self):
        """The drain semantics: a drop window refuses *new*
        conversations but never destroys packets already on the wire,
        nor delays them: the arrival is the healthy serializer plus one
        hop, to the bit, whether the window opened before the packet was
        committed to the wire (the endpoints refuse, the fabric does
        not) or after."""

        def arrivals(sever_at):
            cluster = Cluster(ClusterConfig(nodes=2))
            fabric, sim = cluster.fabric, cluster.sim
            seen = []
            fabric.attach(1, lambda p: seen.append(sim.now))
            if sever_at == "before":
                fabric.sever_link(0, 1)
            fabric.send(Packet(
                PacketKind.READ_REPLY, 0, 1, 1, 0, size_bytes=64, payload=b"x" * 64
            ))
            if sever_at == "after":
                fabric.sever_link(0, 1)
            sim.run()
            return seen

        cfg = ClusterConfig().fabric
        wire = cfg.header_bytes + 64
        healthy = arrivals(None)
        assert healthy == [wire / cfg.link_gbps + cfg.hop_latency_ns]
        assert arrivals("before") == healthy
        assert arrivals("after") == healthy

    def test_packets_from_or_to_a_crashed_node_reach_no_handler(self):
        cluster = Cluster(ClusterConfig(nodes=3))
        fabric, sim = cluster.fabric, cluster.sim
        seen = {1: [], 2: []}
        for node in seen:
            fabric.attach(node, lambda p, node=node: seen[node].append(p.src_node))
        fabric.set_alive(1, False)
        for src, dst in ((0, 1), (1, 2), (0, 2)):
            fabric.send(Packet(
                PacketKind.READ_REPLY, src, dst, 1, 0, size_bytes=64, payload=b"x" * 64
            ))
        sim.run()
        assert seen == {1: [], 2: [0]}


# ----------------------------------------------------------------------
# RPC-level behavior under partitions and gray windows
# ----------------------------------------------------------------------
def make_pair():
    cluster = Cluster()
    a = RpcEndpoint(cluster.node(0), workers=1)
    b = RpcEndpoint(cluster.node(1), workers=1)
    return cluster, a, b


class TestRpcUnderFaults:
    def test_severed_link_refuses_new_calls_with_typed_error(self):
        cluster, a, b = make_pair()
        served = []
        a.register("echo", lambda payload: (served.append(payload) or payload, 10.0))
        cluster.fabric.sever_link(1, 0)
        replies = []

        def client():
            reply = yield b.call(0, "echo", b"hi")
            replies.append(reply)

        cluster.sim.process(client())
        cluster.run()
        assert isinstance(replies[0], LinkPartitionedError)
        assert isinstance(replies[0], ShardCrashedError)  # crash paths work
        assert cluster.fabric.partition_refusals == 1
        assert served == []  # nothing reached the server

    def test_inflight_call_drains_through_drop_window(self):
        """A call issued before the window opens completes: requests
        already sent (and their replies) drain losslessly."""
        cluster, a, b = make_pair()
        a.register("slow", lambda payload: (b"ok", 5_000.0))
        replies = []

        def client():
            reply = yield b.call(0, "slow", b"x")
            replies.append(reply)

        cluster.sim.process(client())
        # Open the drop window while the request is being served.
        cluster.sim.call_at(
            1_000.0, lambda: cluster.fabric.sever_link(1, 0)
        )
        cluster.run()
        assert replies == [b"ok"]

    def test_gray_window_slows_service(self):
        def run(multiplier):
            cluster, a, b = make_pair()
            a.service_multiplier = multiplier
            a.register("work", lambda payload: (b"", 500.0))
            done = []

            def client():
                yield b.call(0, "work", b"x")
                done.append(cluster.sim.now)

            cluster.sim.process(client())
            cluster.run()
            return done[0]

        assert run(8.0) > run(1.0) + 3_000.0  # dispatch+service both scale


# ----------------------------------------------------------------------
# injector end-to-end on a bare cluster
# ----------------------------------------------------------------------
class TestInjector:
    def test_gray_window_applies_and_restores_both_planes(self):
        cluster = Cluster(ClusterConfig(nodes=2))
        RpcEndpoint(cluster.node(0), workers=1)
        RpcEndpoint(cluster.node(1), workers=1)
        inj = FaultInjector(
            cluster,
            FaultSchedule(
                [FaultWindow("gray", 100.0, 200.0, node=0, multiplier=6.0)]
            ),
        )
        node = cluster.nodes[0]
        probes = {}

        def probe(label):
            probes[label] = (
                node.chip._svc_mult,
                node.rpc_endpoint.service_multiplier,
                inj.any_active(),
            )

        sim = cluster.sim
        sim.call_at(50.0, probe, "before")
        sim.call_at(150.0, probe, "during")
        sim.call_at(250.0, probe, "after")
        sim.run()
        assert probes["before"] == (1.0, 1.0, False)
        assert probes["during"] == (6.0, 6.0, True)
        assert probes["after"] == (1.0, 1.0, False)
        assert inj.stats.gray_windows == 1
        assert [e[1] for e in inj.events] == ["open", "close"]

    def test_straggler_window_slows_rpc_plane_only(self):
        cluster = Cluster(ClusterConfig(nodes=2))
        RpcEndpoint(cluster.node(0), workers=1)
        RpcEndpoint(cluster.node(1), workers=1)
        FaultInjector(
            cluster,
            FaultSchedule(
                [
                    FaultWindow(
                        "straggler", 100.0, 200.0, node=0, multiplier=4.0
                    )
                ]
            ),
        )
        node = cluster.nodes[0]
        probes = {}
        cluster.sim.call_at(
            150.0,
            lambda: probes.update(
                chip=node.chip._svc_mult,
                rpc=node.rpc_endpoint.service_multiplier,
            ),
        )
        cluster.sim.run()
        assert probes["chip"] == 1.0  # one-sided reads keep full speed
        assert probes["rpc"] == 4.0

    def test_overlapping_windows_multiply(self):
        cluster = Cluster(ClusterConfig(nodes=2))
        RpcEndpoint(cluster.node(0), workers=1)
        FaultInjector(
            cluster,
            FaultSchedule(
                [
                    FaultWindow("gray", 0.0, 300.0, node=0, multiplier=2.0),
                    FaultWindow("gray", 100.0, 200.0, node=0, multiplier=3.0),
                ]
            ),
        )
        got = {}
        cluster.sim.call_at(
            150.0, lambda: got.update(m=service_multiplier(cluster, 0))
        )
        cluster.sim.call_at(
            250.0, lambda: got.update(late=service_multiplier(cluster, 0))
        )
        cluster.sim.run()
        assert got["m"] == 6.0
        assert got["late"] == 2.0

    def test_partition_window_expands_wildcards(self):
        cluster = Cluster(ClusterConfig(nodes=4))
        inj = FaultInjector(
            cluster,
            FaultSchedule(
                [FaultWindow("partition", 10.0, 20.0, dst=2)]
            ),
        )
        fabric = cluster.fabric
        hit = {}
        cluster.sim.call_at(
            15.0,
            lambda: hit.update(
                severed=[fabric.link_severed(s, 2) for s in (0, 1, 3)],
                open_links=len(fabric._link_faults),
            ),
        )
        cluster.sim.run()
        assert hit["severed"] == [True, True, True]
        assert hit["open_links"] == 3  # every ingress link, nothing else
        assert not fabric._link_faults  # all restored at close

    def test_crash_inside_partition_window_recovers_clean(self):
        """The composition fix: ``set_alive`` and severed links never
        leak into each other.  A node that crashes inside a partition
        window and recovers after it closes comes back with clean link
        tables and full reachability."""
        cluster = Cluster(ClusterConfig(nodes=3))
        FaultInjector(
            cluster,
            FaultSchedule(
                [FaultWindow("partition", 100.0, 300.0, dst=1)]
            ),
        )
        fabric, sim = cluster.fabric, cluster.sim
        sim.call_at(150.0, fabric.set_alive, 1, False)  # crash mid-window
        sim.call_at(400.0, fabric.set_alive, 1, True)  # recover after close
        checks = {}
        sim.call_at(
            200.0,
            lambda: checks.update(
                down_and_severed=(
                    not fabric.alive(1) and fabric.link_severed(0, 1)
                )
            ),
        )
        sim.call_at(
            350.0,
            lambda: checks.update(
                still_down_link_clean=(
                    not fabric.alive(1)
                    and not fabric._link_faults
                    and not fabric.link_severed(0, 1)
                )
            ),
        )
        sim.call_at(
            450.0,
            lambda: checks.update(
                recovered_clean=(
                    fabric.alive(1)
                    and fabric.reachable(0, 1)
                    and not fabric._link_faults
                )
            ),
        )
        sim.run()
        assert checks == {
            "down_and_severed": True,
            "still_down_link_clean": True,
            "recovered_clean": True,
        }


# ----------------------------------------------------------------------
# clock skew
# ----------------------------------------------------------------------
class TestClockSkew:
    def test_skewed_observer_lags_membership_transitions(self):
        cluster = Cluster(ClusterConfig(nodes=3))
        fabric, sim = cluster.fabric, cluster.sim
        fabric.set_clock_skew(2, 100.0)
        fabric.set_alive(1, False)  # crash at t=0
        views = {}
        sim.call_at(
            50.0,
            lambda: views.update(
                sharp=fabric.observed_alive(0, 1),
                skewed=fabric.observed_alive(2, 1),
            ),
        )
        sim.call_at(
            150.0,
            lambda: views.update(late=fabric.observed_alive(2, 1)),
        )
        sim.run()
        assert views["sharp"] is False  # unskewed observer sees it now
        assert views["skewed"] is True  # stale lease still held
        assert views["late"] is False  # skew elapsed, crash visible

    def test_skewed_watchdog_deadline_stretches(self):
        cluster = Cluster()
        a = RpcEndpoint(cluster.node(0), workers=1)
        b = RpcEndpoint(cluster.node(1), workers=1)
        cluster.fabric.set_clock_skew(1, 2_000.0)
        a.register("never", lambda payload: (b"", 10.0))
        # Crash the server before serving so the watchdog must fire.
        cluster.sim.call_at(
            10.0, cluster.fabric.set_alive, 0, False
        )
        done = []

        def client():
            reply = yield b.call(0, "never", b"x", timeout_ns=500.0)
            done.append((cluster.sim.now, reply))

        cluster.sim.process(client())
        cluster.run()
        t, reply = done[0]
        assert isinstance(reply, ShardCrashedError)
        # Deadline = marshal + timeout + skew: far past the bare 500 ns.
        assert t >= 2_500.0


# ----------------------------------------------------------------------
# determinism: serial vs parallel sweeps of the new fault specs
# ----------------------------------------------------------------------
class TestFaultSweepDeterminism:
    def test_gray_parallel_sweep_byte_identical_to_serial(self):
        serial = run_sweep(GRAY_AVAILABILITY_SPEC, scale=0.1)
        parallel = run_sweep(
            GRAY_AVAILABILITY_SPEC, scale=0.1, jobs=2
        )
        assert repr(serial.rows) == repr(parallel.rows)

    def test_partition_parallel_sweep_byte_identical_to_serial(self):
        serial = run_sweep(PARTITION_AVAILABILITY_SPEC, scale=0.1)
        parallel = run_sweep(
            PARTITION_AVAILABILITY_SPEC, scale=0.1, jobs=2
        )
        assert repr(serial.rows) == repr(parallel.rows)


# ----------------------------------------------------------------------
# window-boundary metering
# ----------------------------------------------------------------------
class TestWindowBoundaryMetering:
    """Pin the boundary semantics the availability metering relies on:
    ``any_active()`` (what ``reads_during_fault`` samples at read
    completion) treats a window as half-open ``[start, end)`` for any
    event scheduled after the injector was built — open/close callbacks
    were enqueued at construction, so at equal times they fire first."""

    def _probed(self, windows):
        cluster = Cluster(ClusterConfig(nodes=2))
        RpcEndpoint(cluster.node(0), workers=1)
        RpcEndpoint(cluster.node(1), workers=1)
        inj = FaultInjector(cluster, FaultSchedule(windows))
        probes = {}

        def probe(t):
            probes[t] = (inj.any_active(), service_multiplier(cluster, 0))

        for t in (99.0, 100.0, 150.0, 200.0, 250.0):
            cluster.sim.call_at(t, probe, t)
        cluster.sim.run()
        return inj, probes

    def test_event_at_window_open_counts_as_during_fault(self):
        inj, probes = self._probed(
            [FaultWindow("gray", 100.0, 200.0, node=0, multiplier=6.0)]
        )
        assert probes[99.0] == (False, 1.0)
        # t == open: the open callback fired first, so a read completing
        # exactly at the boundary meters as a fault read.
        assert probes[100.0] == (True, 6.0)
        assert probes[150.0] == (True, 6.0)
        # t == close: the close callback fired first — the window is
        # over, the multiplier restored, nothing meters against it.
        assert probes[200.0] == (False, 1.0)
        assert probes[250.0] == (False, 1.0)
        assert [e[1] for e in inj.events] == ["open", "close"]

    def test_back_to_back_windows_hand_off_at_the_shared_boundary(self):
        """Adjacent windows [100,200) + [200,300): at the shared instant
        the first closes before the second opens, so the boundary event
        sees exactly one window active with only the second multiplier —
        no double-composed slowdown, no metering gap."""
        inj, probes = self._probed(
            [
                FaultWindow("gray", 100.0, 200.0, node=0, multiplier=6.0),
                FaultWindow("gray", 200.0, 300.0, node=0, multiplier=3.0),
            ]
        )
        assert probes[150.0] == (True, 6.0)
        assert probes[200.0] == (True, 3.0)
        assert probes[250.0] == (True, 3.0)
        assert inj.stats.gray_windows == 2
        assert [e[1] for e in inj.events] == ["open", "close", "open", "close"]
