"""A rack's end of life: ``Cluster.close()`` and the one-shot entry
points that call it.

The memory tests run with the collector off under ``tracemalloc``: a
finished rack is cyclic garbage, so what a run function leaves behind
with ``gc`` disabled is what a long-lived worker carries from point to
point until a full collection happens to run.
"""

import gc
import tracemalloc
from contextlib import contextmanager
from dataclasses import fields

import pytest

from repro.common.errors import SimulationError
from repro.mem.backing import PhysicalMemory
from repro.sim.engine import Simulator
from repro.sim.stats import Samples, ThroughputMeter
from repro.sonuma.node import Cluster
from repro.workloads.fuzz import fuzz_round
from repro.workloads.microbench import (
    Microbenchmark,
    MicrobenchConfig,
    run_microbench,
)
from repro.workloads.ycsb import YcsbConfig, run_ycsb

pytestmark = pytest.mark.smoke

MIB = float(2**20)

#: What one finished point may leave allocated, in MiB.  Measured with
#: this file's configs: 0.6 for the fig7b point (13.3 before racks were
#: closed, 8.0 of it the store), 0.5 for the YCSB run, 0.2 for the fuzz
#: round.
LEFT_PER_POINT_MIB = 2.0

#: The fig7b peak-bandwidth point: 8 KB x 1 000 objects, 16 readers
#: with 8 transfers in flight each, 20 us.
FIG7B = dict(
    mechanism="sabre",
    object_size=8192,
    n_objects=1000,
    readers=16,
    async_window=8,
    duration_ns=20_000.0,
    warmup_ns=5_000.0,
)


def fig7b_point(**overrides):
    return run_microbench(MicrobenchConfig(**{**FIG7B, **overrides}))


@contextmanager
def traced_without_gc():
    """Yields a function reading the traced memory in MiB."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        yield lambda: tracemalloc.get_traced_memory()[0] / MIB
    finally:
        tracemalloc.stop()
        gc.enable()


def left_behind_mib(point):
    """MiB one call of ``point`` leaves allocated, measured on a second
    call: the first pays for whatever first use of the code allocates."""
    with traced_without_gc() as traced:
        point()
        before = traced()
        point()
        return traced() - before


# ----------------------------------------------------------------------
# memory: a point's memory ends with the point
# ----------------------------------------------------------------------


def test_fig7b_points_leave_no_store_behind():
    with traced_without_gc() as traced:
        fig7b_point(n_objects=10, duration_ns=6_000.0)  # first-use costs
        for _ in range(3):
            before = traced()
            fig7b_point()
            assert traced() - before <= LEFT_PER_POINT_MIB


def test_ycsb_run_leaves_no_stores_behind():
    cfg = YcsbConfig(duration_ns=20_000.0, warmup_ns=5_000.0)
    assert left_behind_mib(lambda: run_ycsb(cfg)) <= LEFT_PER_POINT_MIB


def test_fuzz_round_leaves_no_stores_behind():
    def point():
        fuzz_round("sabre", 2, seed=5, duration_ns=15_000.0, crash_cycles=1)

    assert left_behind_mib(point) <= LEFT_PER_POINT_MIB


def test_release_that_keeps_the_buffers_fails_the_bound(monkeypatch):
    """The control for the bound above: unmapping the regions without
    emptying their buffers leaves the bytes to the cells that transfers
    and ATT entries cached, and the bound sees it."""

    def unmap_only(phys):
        phys._starts.clear()
        phys._regions.clear()

    monkeypatch.setattr(PhysicalMemory, "release", unmap_only)
    left = left_behind_mib(lambda: fig7b_point(duration_ns=6_000.0))
    assert left > LEFT_PER_POINT_MIB


def test_a_run_that_raises_still_closes_its_rack(monkeypatch):
    """The exception's traceback holds the run's frames, and through
    them the whole rack: it must hold an emptied one."""
    monkeypatch.setattr(ThroughputMeter, "stop", lambda meter, now: None)
    with traced_without_gc() as traced:
        before = traced()
        with pytest.raises(SimulationError, match="still recording") as caught:
            fig7b_point(duration_ns=6_000.0)
        assert caught.traceback  # still referenced here
        assert traced() - before <= LEFT_PER_POINT_MIB


# ----------------------------------------------------------------------
# the closed state
# ----------------------------------------------------------------------


def small_bench():
    return Microbenchmark(
        MicrobenchConfig(
            object_size=1024, n_objects=16, readers=2, writers=1,
            duration_ns=20_000.0, warmup_ns=2_000.0,
        )
    )


def test_closed_rack_is_terminal_but_readable():
    bench = small_bench()
    bench.run()
    cluster, sim = bench.cluster, bench.cluster.sim
    addr = bench.store.handle(0).base_addr
    assert len(bench.dst.phys.read(addr, 8)) == 8
    scalars = (sim.now, sim.events_fired, sim.events_scheduled)
    counters = bench.dst.counters.as_dict()

    bench.close()
    bench.close()  # idempotent
    cluster.close()

    assert (sim.now, sim.events_fired, sim.events_scheduled) == scalars
    assert sim.heap_size == sim.live_calls == 0
    assert bench.dst.counters.as_dict() == counters
    for run in (cluster.run, sim.run):
        with pytest.raises(SimulationError, match="closed"):
            run()
    for node in cluster.nodes:
        with pytest.raises(SimulationError, match="unmapped address"):
            node.phys.read(addr, 8)
        with pytest.raises(SimulationError, match="unmapped address"):
            node.phys.write(addr, b"\x01" * 8)
        with pytest.raises(SimulationError, match="unmapped address"):
            node.chip.write_block(0, addr, b"\x01" * 8)
        assert node.in_flight == 0 and len(node.chip.llc) == 0
        assert all(r2p2.att.occupancy == 0 for r2p2 in node.r2p2s)


def test_with_statement_closes():
    with Cluster() as cluster:
        addr = cluster.node(0).alloc_buffer(64)
        cluster.node(0).phys.write(addr, b"x")
    with pytest.raises(SimulationError, match="closed"):
        cluster.run()
    with pytest.raises(SimulationError, match="unmapped address"):
        cluster.node(0).phys.read(addr, 1)


def test_close_from_a_callback_ends_the_run_there():
    """The run returns when the closing callback does, at its time;
    neither what was pending nor what that callback schedules after the
    close ever fires, and the close itself counts as no event."""
    bench = small_bench()
    sim = bench.cluster.sim
    fired = []

    def closer():
        bench.close()
        sim.call_soon(fired.append, "soon")
        sim.call_later(5.0, fired.append, "later")
        bench.close()

    sim.call_later(3_000.0, closer)
    sim.process(bench._reader_slot(0, 0, 20_000.0))
    sim.run(until=10_000.0)

    assert sim.now == 3_000.0 and fired == []
    assert sim.heap_size == 0 and bench.src.in_flight == 0
    with pytest.raises(SimulationError, match="closed"):
        sim.run()

    plain = Simulator()
    plain.call_later(1.0, plain.close)
    plain.call_later(2.0, fired.append, "pending")
    assert plain.run() == 1.0 and fired == []
    assert plain.events_fired == 1 and plain.events_scheduled == 2


def test_closing_changes_no_result():
    cfg = MicrobenchConfig(**{**FIG7B, "n_objects": 64, "duration_ns": 8_000.0})
    closed = run_microbench(cfg)
    kept_open = Microbenchmark(cfg).run()
    for field in fields(closed):
        a, b = getattr(closed, field.name), getattr(kept_open, field.name)
        if isinstance(a, Samples):
            a, b = a.values, b.values
        assert a == b, field.name
    assert closed.ops_completed > 0
