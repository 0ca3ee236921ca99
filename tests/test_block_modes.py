"""Batched-vs-stepwise block-stream parity.

The batched block-stream kernel (``REPRO_SIM_BLOCKS=batched``, the
default) issues/serves/replies whole runs of blocks in one pass through
:meth:`Simulator.schedule_batch`; the stepwise path is the original
block-at-a-time callback chain, kept as the determinism reference.  The
two must be *indistinguishable in results*: every registered
experiment's artifact byte-identical, and the randomized crash lane's
violation fingerprints unchanged.

The tier-1 lane covers the flagship spec subset at a tiny scale across
>=3 seeds; the ``slow`` (nightly) lane sweeps every registered spec.
Direct unit tests pin :meth:`schedule_batch` itself to per-entry
``call_at`` semantics.
"""

import json
import os

import pytest

from repro.experiments import registry
from repro.experiments.runner import run_sweep
from repro.sim.engine import BLOCKS_ENV, SimulationError, Simulator, block_mode
from repro.workloads.fuzz import fuzz_round

SEEDS = (1, 7, 23)

#: Tier-1 subset: the flagship service workloads plus one figure spec.
SMOKE_SPECS = (
    "ycsb_latency",
    "txn_abort_rate",
    "failover_availability",
    "fig7a",
)

SMOKE_SCALE = 0.02


def _artifact_bytes(spec_name: str, mode: str, seed: int, scale: float) -> bytes:
    os.environ[BLOCKS_ENV] = mode
    try:
        result = run_sweep(registry.get(spec_name), scale=scale, base_seed=seed)
    finally:
        os.environ.pop(BLOCKS_ENV, None)
    payload = result.to_json_dict()
    payload["elapsed_s"] = 0.0  # wall clock: the one legitimately varying field
    return json.dumps(payload, sort_keys=True).encode()


def test_block_mode_selection():
    assert block_mode() == "batched"
    os.environ[BLOCKS_ENV] = "stepwise"
    try:
        assert block_mode() == "stepwise"
    finally:
        os.environ.pop(BLOCKS_ENV, None)
    os.environ[BLOCKS_ENV] = "nonsense"
    try:
        with pytest.raises(SimulationError):
            block_mode()
    finally:
        os.environ.pop(BLOCKS_ENV, None)


@pytest.mark.parametrize("spec_name", SMOKE_SPECS)
def test_batched_matches_stepwise_artifacts(spec_name):
    for seed in SEEDS:
        stepwise = _artifact_bytes(spec_name, "stepwise", seed, SMOKE_SCALE)
        batched = _artifact_bytes(spec_name, "batched", seed, SMOKE_SCALE)
        assert stepwise == batched, (spec_name, seed)


def test_fuzz_fingerprints_identical_across_block_modes():
    """The randomized crash lane — in-flight SABRes cancelled at
    failover, the hardest thing for a batch split to get right — must
    produce identical violation fingerprints in both modes."""
    for seed in (505, 616):
        os.environ[BLOCKS_ENV] = "stepwise"
        try:
            a = fuzz_round("sabre", 4, seed=seed, duration_ns=40_000.0,
                           crash_cycles=3)
        finally:
            os.environ.pop(BLOCKS_ENV, None)
        b = fuzz_round("sabre", 4, seed=seed, duration_ns=40_000.0,
                       crash_cycles=3)
        assert a.fingerprint == b.fingerprint, seed


@pytest.mark.parametrize(
    "spec_name", ("gray_availability", "partition_availability")
)
def test_fault_specs_are_block_mode_invariant(spec_name):
    """The fault-injection sweeps: gray/partition windows open and
    close while block streams are mid-flight, and the degradation
    table and service multipliers are read at fire time — so the
    batched kernel must land on the very same per-packet faults the
    stepwise reference does."""
    for seed in SEEDS:
        stepwise = _artifact_bytes(spec_name, "stepwise", seed, SMOKE_SCALE)
        batched = _artifact_bytes(spec_name, "batched", seed, SMOKE_SCALE)
        assert stepwise == batched, (spec_name, seed)


def test_fault_fuzz_fingerprints_identical_across_block_modes():
    """Mid-transfer fault windows under both kernels: gray + partition
    + skew (and crashes) opening while multi-block SABRes stream.  The
    fingerprints — including refusal and re-arm counters — must not
    depend on the block path."""
    kw = dict(
        duration_ns=40_000.0,
        crash_cycles=2,
        gray_windows=2,
        partition_windows=2,
        skew_max_ns=1_000.0,
    )
    for seed in (505, 616):
        os.environ[BLOCKS_ENV] = "stepwise"
        try:
            a = fuzz_round("sabre", 4, seed=seed, **kw)
        finally:
            os.environ.pop(BLOCKS_ENV, None)
        b = fuzz_round("sabre", 4, seed=seed, **kw)
        assert a.fingerprint == b.fingerprint, seed
        assert a.gray_windows + a.straggler_windows == 2


@pytest.mark.slow
@pytest.mark.parametrize("spec_name", sorted(set(registry.names())))
def test_every_registered_spec_is_block_mode_invariant(spec_name):
    """Nightly lane: the full registry, three seeds, both block paths."""
    for seed in SEEDS:
        stepwise = _artifact_bytes(spec_name, "stepwise", seed, SMOKE_SCALE)
        batched = _artifact_bytes(spec_name, "batched", seed, SMOKE_SCALE)
        assert stepwise == batched, (spec_name, seed)


# ----------------------------------------------------------------------
# schedule_batch: the kernel's scheduling primitive
# ----------------------------------------------------------------------

def _record(order, sim, tag):
    order.append((sim.now, tag))


def _dispatch_order(schedule):
    """Dispatch order of ``schedule(sim, order)`` driven to completion.

    ``schedule`` runs *inside* a callback (the realistic caller: the
    batched kernel always schedules from within event dispatch).
    """
    sim = Simulator()
    order = []
    # Prime the scheduler: pending entries on both sides of the batch.
    for d in (0.0, 10.0, 50.0, 90.0, 5_000.0, 9_000.0):
        sim.call_later(d, _record, order, sim, f"prime@{d}")
    sim.call_later(20.0, schedule, sim, order)
    sim.run()
    return order


def _batch_via_call_at(entries):
    def schedule(sim, order):
        for when, tag in entries:
            sim.call_at(when, _record, order, sim, tag)
    return schedule


def _batch_via_schedule_batch(entries):
    def schedule(sim, order):
        sim.schedule_batch(
            [(when, _record, (order, sim, tag)) for when, tag in entries]
        )
    return schedule


def _assert_batch_equivalent(entries):
    """schedule_batch must dispatch exactly like per-entry call_at."""
    a = _dispatch_order(_batch_via_call_at(entries))
    b = _dispatch_order(_batch_via_schedule_batch(entries))
    assert a == b, entries


def test_schedule_batch_presorted_run():
    # The kernel's common case: consecutive block timestamps landing
    # in one gap between pending entries.
    _assert_batch_equivalent([(21.0 + 2.0 * i, f"b{i}") for i in range(8)])


def test_schedule_batch_spans_all_lanes():
    # Immediate (when == now at schedule time 20.0), soon and
    # far-future entries in one batch.
    _assert_batch_equivalent(
        [(20.0, "imm"), (25.0, "near1"), (30.0, "near2"), (8_000.0, "far")]
    )


def test_schedule_batch_run_leaves_the_gap():
    # A run that starts between two existing entries (prime@50, prime@90)
    # and then passes the later one.
    _assert_batch_equivalent(
        [(60.0, "in-gap1"), (65.0, "in-gap2"), (95.0, "past-gap")]
    )


def test_schedule_batch_out_of_order_input():
    # Not presorted: dispatch order is still (when, seq).
    _assert_batch_equivalent(
        [(40.0, "x"), (22.0, "y"), (70.0, "z"), (22.0, "y2"), (41.0, "w")]
    )


def test_schedule_batch_equal_times_fifo():
    # Equal timestamps dispatch in submission (seq) order.
    _assert_batch_equivalent([(33.0, f"t{i}") for i in range(6)])


def test_schedule_batch_past_time_raises_and_preserves_state():
    sim = Simulator()
    order = []
    boom = []

    def schedule(sim, order):
        try:
            sim.schedule_batch(
                [
                    (25.0, _record, (order, sim, "ok")),
                    (1.0, _record, (order, sim, "past")),
                ]
            )
        except SimulationError as exc:
            boom.append(str(exc))

    for d in (10.0, 50.0):
        sim.call_later(d, _record, order, sim, f"prime@{d}")
    sim.call_later(20.0, schedule, sim, order)
    sim.run()
    assert boom and "past" in boom[0]
    # The pre-raise entry was injected and fires; nothing is duplicated.
    assert (25.0, "ok") in order
    assert [tag for _, tag in order].count("prime@50.0") == 1


def test_schedule_batch_returns_cancellable_handles():
    sim = Simulator()
    order = []

    def schedule(sim, order):
        handles = sim.schedule_batch(
            [
                (25.0, _record, (order, sim, "keep")),
                (26.0, _record, (order, sim, "drop")),
                (27.0, _record, (order, sim, "keep2")),
            ]
        )
        sim.cancel_call(handles[1])

    sim.call_later(20.0, schedule, sim, order)
    sim.run()
    assert [tag for _, tag in order] == ["keep", "keep2"]
    assert sim.events_cancelled == 1
