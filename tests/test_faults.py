"""Tests for the fault-injection layer: schedules, link degradation,
gray/straggler multipliers, clock skew, and their composition with the
crash/failover machinery."""

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import (
    ConfigError,
    LinkPartitionedError,
    ShardCrashedError,
)
from repro.experiments.runner import SweepRunner
from repro.fabric.packets import read_reply
from repro.faults import FaultInjector, FaultSchedule, FaultWindow
from repro.sonuma.node import Cluster
from repro.sonuma.rpc import RpcEndpoint
from repro.workloads.availability import (
    GRAY_AVAILABILITY_SPEC,
    PARTITION_AVAILABILITY_SPEC,
)


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

    def test_partition_needs_an_endpoint_and_an_effect(self):
        with pytest.raises(ConfigError):
            FaultSchedule([FaultWindow("partition", 0.0, 10.0, drop=True)])
        with pytest.raises(ConfigError):
            FaultSchedule(
                [FaultWindow("partition", 0.0, 10.0, src=0, dst=1)]
            )
        with pytest.raises(ConfigError):
            FaultSchedule(
                [FaultWindow("partition", 0.0, 10.0, src=1, dst=1, drop=True)]
            )

    def test_negative_skew_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule(clock_skew_ns={0: -1.0})

    def test_windows_sorted_and_end_ns(self):
        sched = FaultSchedule(
            [
                FaultWindow("gray", 50.0, 80.0, node=1, multiplier=2.0),
                FaultWindow("partition", 10.0, 95.0, dst=0, drop=True),
            ]
        )
        assert [w.start_ns for w in sched.windows] == [10.0, 50.0]
        assert sched.end_ns() == 95.0
        assert len(sched.windows_of("partition")) == 1

    def test_merged_rejects_conflicting_skews(self):
        a = FaultSchedule(clock_skew_ns={0: 5.0})
        b = FaultSchedule(clock_skew_ns={0: 7.0})
        with pytest.raises(ConfigError):
            a.merged(b)
        c = a.merged(FaultSchedule(clock_skew_ns={1: 3.0}))
        assert c.clock_skew_ns == {0: 5.0, 1: 3.0}

    def test_cycle_builders_shape(self):
        gray = FaultSchedule.gray_cycles(
            [0, 1], first_ns=100.0, width_ns=50.0, gap_ns=25.0, count=3,
            multiplier=4.0,
        )
        assert [w.node for w in gray.windows] == [0, 1, 0]
        assert gray.windows[1].start_ns == 175.0
        strag = FaultSchedule.straggler_cycles(
            [2], first_ns=0.0, width_ns=10.0, gap_ns=0.0, count=2,
            multiplier=3.0,
        )
        assert all(w.kind == "straggler" for w in strag.windows)
        part = FaultSchedule.partition_cycles(
            [(None, 0)], first_ns=5.0, width_ns=10.0, gap_ns=5.0, count=2
        )
        assert all(w.drop for w in part.windows)

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
# fabric-level link degradation
# ----------------------------------------------------------------------
class TestLinkDegradation:
    def test_degrade_and_restore_tokens_compose(self):
        fabric = Cluster(ClusterConfig(nodes=3)).fabric
        a = fabric.degrade_link(0, 1, latency_mult=2.0)
        b = fabric.degrade_link(0, 1, drop=True, bw_mult=0.5)
        assert fabric.degradation(0, 1) == (True, 2.0, 0.5)
        fabric.restore_link(b)
        assert fabric.degradation(0, 1) == (False, 2.0, 1.0)
        fabric.restore_link(a)
        assert fabric.degradation(0, 1) is None
        assert not fabric._faulty

    def test_double_restore_is_an_error(self):
        fabric = Cluster(ClusterConfig(nodes=2)).fabric
        tok = fabric.degrade_link(0, 1, drop=True)
        fabric.restore_link(tok)
        with pytest.raises(ConfigError):
            fabric.restore_link(tok)

    def test_degradation_validation(self):
        fabric = Cluster(ClusterConfig(nodes=2)).fabric
        with pytest.raises(ConfigError):
            fabric.degrade_link(0, 0, drop=True)
        with pytest.raises(ConfigError):
            fabric.degrade_link(0, 1, latency_mult=0.5)
        with pytest.raises(ConfigError):
            fabric.degrade_link(0, 1, bw_mult=1.5)
        with pytest.raises(ConfigError):
            fabric.degrade_link(0, 1)  # no effect at all

    def test_severed_is_bidirectional_reachable_is_not_confused(self):
        fabric = Cluster(ClusterConfig(nodes=3)).fabric
        tok = fabric.degrade_link(0, 1, drop=True)
        assert fabric.link_severed(0, 1)
        assert fabric.link_severed(1, 0)  # replies cannot return either
        assert not fabric.link_severed(0, 2)
        assert not fabric.reachable(0, 1)
        assert fabric.reachable(2, 1)
        fabric.restore_link(tok)
        assert fabric.reachable(0, 1)

    def test_latency_multiplier_slows_delivery(self):
        def arrival(**degrade):
            cluster = Cluster(ClusterConfig(nodes=2))
            fabric, sim = cluster.fabric, cluster.sim
            arrivals = []
            fabric.attach(1, lambda p: arrivals.append(sim.now))
            if degrade:
                fabric.degrade_link(0, 1, **degrade)
            fabric.send(read_reply(0, 1, 1, 0, b"x" * 64))
            sim.run()
            return arrivals[0]

        cfg = ClusterConfig().fabric
        wire = cfg.header_bytes + 64
        healthy = arrival()
        assert healthy == wire / cfg.link_gbps + cfg.hop_latency_ns
        # The multipliers scale the serializer rate and the propagation
        # floor, exactly: bandwidth alone leaves the floor alone.
        assert arrival(bw_mult=0.25) == (
            wire / (cfg.link_gbps * 0.25) + cfg.hop_latency_ns
        )
        both = arrival(latency_mult=3.0, bw_mult=0.5)
        assert both == wire / (cfg.link_gbps * 0.5) + cfg.hop_latency_ns * 3.0
        assert both > healthy

    def test_drop_window_does_not_lose_inflight_packets(self):
        """The drain semantics: a drop window refuses *new*
        conversations but never destroys packets already on the wire."""
        cluster = Cluster(ClusterConfig(nodes=2))
        fabric, sim = cluster.fabric, cluster.sim
        arrivals = []
        fabric.attach(1, lambda p: arrivals.append(sim.now))
        fabric.send(read_reply(0, 1, 1, 0, b"x" * 64))
        fabric.degrade_link(0, 1, drop=True)  # opens after the send
        sim.run()
        assert len(arrivals) == 1
        assert fabric.packets_dropped == 0


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
        a.register("echo", lambda payload: (payload, 10.0))
        cluster.fabric.degrade_link(1, 0, drop=True)
        replies = []

        def client():
            reply = yield b.call(0, "echo", b"hi")
            replies.append(reply)

        cluster.sim.process(client())
        cluster.run()
        assert isinstance(replies[0], LinkPartitionedError)
        assert isinstance(replies[0], ShardCrashedError)  # crash paths work
        assert cluster.fabric.partition_refusals == 1
        assert a.served == 0  # nothing reached the server

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
            1_000.0, lambda: cluster.fabric.degrade_link(1, 0, drop=True)
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
        assert inj.stats.windows_closed == 1

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
        inj = FaultInjector(
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
            150.0, lambda: got.update(m=inj.active_multiplier(0))
        )
        cluster.sim.call_at(
            250.0, lambda: got.update(late=inj.active_multiplier(0))
        )
        cluster.sim.run()
        assert got["m"] == 6.0
        assert got["late"] == 2.0

    def test_partition_window_expands_wildcards(self):
        cluster = Cluster(ClusterConfig(nodes=4))
        inj = FaultInjector(
            cluster,
            FaultSchedule(
                [FaultWindow("partition", 10.0, 20.0, dst=2, drop=True)]
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
        assert inj.stats.links_degraded == 3
        assert not fabric._link_faults  # all restored at close

    def test_crash_inside_partition_window_recovers_clean(self):
        """The composition fix: ``set_alive`` and link degradation never
        leak into each other.  A node that crashes inside a partition
        window and recovers after it closes comes back with clean link
        tables and full reachability."""
        cluster = Cluster(ClusterConfig(nodes=3))
        FaultInjector(
            cluster,
            FaultSchedule(
                [FaultWindow("partition", 100.0, 300.0, dst=1, drop=True)]
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
                    and not fabric._faulty
                )
            ),
        )
        sim.call_at(
            450.0,
            lambda: checks.update(
                recovered_clean=(
                    fabric.alive(1)
                    and fabric.reachable(0, 1)
                    and fabric.degradation(0, 1) is None
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
        serial = SweepRunner(GRAY_AVAILABILITY_SPEC, scale=0.1).run()
        parallel = SweepRunner(
            GRAY_AVAILABILITY_SPEC, scale=0.1, jobs=2
        ).run()
        assert repr(serial.rows) == repr(parallel.rows)

    def test_partition_parallel_sweep_byte_identical_to_serial(self):
        serial = SweepRunner(PARTITION_AVAILABILITY_SPEC, scale=0.1).run()
        parallel = SweepRunner(
            PARTITION_AVAILABILITY_SPEC, scale=0.1, jobs=2
        ).run()
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
            probes[t] = (inj.any_active(), inj.active_multiplier(0))

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
        assert inj.stats.windows_closed == 1

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
        assert inj.stats.windows_closed == 2
