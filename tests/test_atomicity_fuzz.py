"""Seeded randomized atomicity fuzzing across the whole read-protocol
design space.

The round driver itself lives in :mod:`repro.workloads.fuzz` (the perf
suite times it too); each round builds a small, hot sharded deployment
and lets randomized reader, writer, and multi-object-transaction
processes interleave for a while.  The assertions here audit the
*audit*:

* every detecting mechanism (``sabre``, ``percl_versions``,
  ``checksum``, ``drtm_lock``) consumes zero torn payloads — the
  ground-truth word check (`undetected_violations`) and the
  transaction-side read-set audit (`torn_reads_observed`) both stay at
  zero — while conflicts demonstrably *happened* (aborts, software
  conflicts, retries, lock conflicts);
* the ``remote_read`` baseline, given forced conflicts, *does* consume
  torn snapshots — proving the audit machinery detects real tearing
  rather than vacuously passing.

The default (tier-1) parametrization stays small; the scheduled CI
lane runs the ``slow``-marked soak with more rounds per combination
(``SABRES_FUZZ_ROUNDS``, default 6).
"""

import os

import pytest

from repro.objstore.protocols import protocol_names
from repro.workloads.fuzz import DETECTING, fuzz_round

SHARD_COUNTS = (1, 4)


def test_fuzz_covers_every_registered_protocol():
    assert set(DETECTING) | {"remote_read"} == set(protocol_names())


@pytest.mark.smoke
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("mechanism", DETECTING)
def test_detecting_protocols_never_consume_torn_reads(mechanism, n_shards):
    outcome = fuzz_round(mechanism, n_shards, seed=101)
    assert outcome.reads_consumed > 0
    assert outcome.writes > 0
    assert outcome.undetected_violations == 0
    assert outcome.torn_reads_observed == 0
    # The run was genuinely contended: conflicts happened and every one
    # was *detected* (abort/retry), not leaked.
    assert outcome.detected_conflicts > 0


@pytest.mark.smoke
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_remote_read_observes_torn_reads_under_forced_conflicts(n_shards):
    """The audit itself is exercised: with no atomicity enforcement and
    writers tearing large objects mid-transfer, the transaction-side
    ground-truth check must catch torn snapshots."""
    torn = 0
    for seed in (7, 11, 13):
        outcome = fuzz_round(
            "remote_read",
            n_shards,
            seed=seed,
            duration_ns=40_000.0,
            object_size=2048,  # 32-block transfers: a wide tear window
        )
        assert outcome.undetected_violations == 0  # remote_read never audits
        torn += outcome.torn_reads_observed
    assert torn > 0


@pytest.mark.smoke
def test_fuzz_rounds_are_deterministic():
    a = fuzz_round("sabre", 4, seed=202)
    b = fuzz_round("sabre", 4, seed=202)
    assert a.fingerprint == b.fingerprint


def test_different_seeds_explore_different_schedules():
    a = fuzz_round("percl_versions", 1, seed=303)
    b = fuzz_round("percl_versions", 1, seed=304)
    assert a.fingerprint != b.fingerprint


@pytest.mark.smoke
@pytest.mark.parametrize("mechanism", DETECTING)
def test_detecting_protocols_survive_mid_txn_crashes(mechanism):
    """The crash lane: shards crash and recover *while* transactions
    are mid-commit and readers race writers.  Detecting protocols must
    consume zero torn reads across promotions and re-syncs, and the
    crashes must demonstrably have hit live work (forced aborts)."""
    crashed_work = 0
    for seed in (401, 402):
        outcome = fuzz_round(
            mechanism, 4, seed=seed, duration_ns=45_000.0, crash_cycles=3
        )
        assert outcome.crashes == 3, (mechanism, seed)
        assert outcome.recoveries == 3, (mechanism, seed)
        assert outcome.promotions > 0, (mechanism, seed)
        assert outcome.reads_consumed > 0, (mechanism, seed)
        assert outcome.undetected_violations == 0, (mechanism, seed)
        assert outcome.torn_reads_observed == 0, (mechanism, seed)
        crashed_work += outcome.crash_disruptions
    # Across the seeds, the crashes demonstrably interrupted live work
    # (forced aborts, fenced locks, or failed in-flight operations) —
    # the lane is not vacuously passing on an idle service.
    assert crashed_work > 0, mechanism


@pytest.mark.smoke
def test_crash_fuzz_rounds_are_deterministic():
    a = fuzz_round("sabre", 4, seed=505, duration_ns=45_000.0, crash_cycles=3)
    b = fuzz_round("sabre", 4, seed=505, duration_ns=45_000.0, crash_cycles=3)
    assert a.crashes == 3
    assert a.fingerprint == b.fingerprint


@pytest.mark.smoke
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("mechanism", DETECTING)
def test_detecting_protocols_survive_gray_windows(mechanism, n_shards):
    """The gray lane: shards turn slow-but-alive (a seed-derived mix of
    full gray failures and RPC-only stragglers) while readers, writers,
    and transactions keep running.  Slowness must never become
    tearing."""
    windows = 0
    for seed in (601, 602, 603):
        outcome = fuzz_round(mechanism, n_shards, seed=seed, gray_windows=2)
        assert outcome.reads_consumed > 0, (mechanism, n_shards, seed)
        assert outcome.undetected_violations == 0, (mechanism, n_shards, seed)
        assert outcome.torn_reads_observed == 0, (mechanism, n_shards, seed)
        windows += outcome.gray_windows + outcome.straggler_windows
        assert outcome.gray_windows + outcome.straggler_windows == 2
    assert windows == 6


@pytest.mark.smoke
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("mechanism", DETECTING)
def test_detecting_protocols_survive_partition_windows(mechanism, n_shards):
    """The partition lane: drop windows isolate a shard or sever one
    client->shard link mid-run.  Refused conversations must surface as
    typed failures (counted as refusals), never as torn reads."""
    refusals = 0
    for seed in (701, 702, 703):
        outcome = fuzz_round(
            mechanism, n_shards, seed=seed, partition_windows=2
        )
        assert outcome.partition_windows == 2, (mechanism, n_shards, seed)
        assert outcome.reads_consumed > 0, (mechanism, n_shards, seed)
        assert outcome.undetected_violations == 0, (mechanism, n_shards, seed)
        assert outcome.torn_reads_observed == 0, (mechanism, n_shards, seed)
        refusals += outcome.partition_refusals
    # Across the seeds the partitions demonstrably severed live
    # conversations — the lane is not vacuously passing.
    assert refusals > 0, (mechanism, n_shards)


@pytest.mark.parametrize(
    "fault_kw",
    [{"gray_windows": 2}, {"partition_windows": 2}],
    ids=["gray", "partition"],
)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_remote_read_tears_under_fault_windows(n_shards, fault_kw):
    """The fault lanes are torn-read-capable: the bare ``remote_read``
    baseline, run through the very same gray/partition schedules the
    detecting protocols survive, *does* consume torn snapshots — so the
    zero-violation results above are earned, not vacuous."""
    torn = 0
    for seed in (7, 11, 13):
        outcome = fuzz_round(
            "remote_read",
            n_shards,
            seed=seed,
            duration_ns=40_000.0,
            object_size=2048,
            **fault_kw,
        )
        assert outcome.undetected_violations == 0  # remote_read never audits
        torn += outcome.torn_reads_observed
    assert torn > 0


@pytest.mark.smoke
def test_fault_fuzz_rounds_are_deterministic():
    """Fingerprint determinism for the full fault composition: gray +
    partition + skew + crash in one round."""
    kw = dict(
        duration_ns=45_000.0,
        crash_cycles=2,
        gray_windows=1,
        partition_windows=1,
        skew_max_ns=1_000.0,
    )
    a = fuzz_round("sabre", 4, seed=808, **kw)
    b = fuzz_round("sabre", 4, seed=808, **kw)
    assert a.fingerprint == b.fingerprint
    c = fuzz_round("sabre", 4, seed=809, **kw)
    assert a.fingerprint != c.fingerprint


@pytest.mark.slow
@pytest.mark.parametrize("mechanism", DETECTING)
def test_soak_fault_composition_lane(mechanism):
    """Scheduled-lane soak: gray + partition + skew (and crash cycles)
    composed in every round, many rounds per mechanism."""
    rounds = int(os.environ.get("SABRES_FUZZ_ROUNDS", "6"))
    for i in range(rounds):
        outcome = fuzz_round(
            mechanism,
            4,
            seed=4000 + i,
            duration_ns=60_000.0,
            object_size=1024,
            crash_cycles=2,
            gray_windows=2,
            partition_windows=2,
            skew_max_ns=1_500.0,
        )
        assert outcome.crashes == 2, (mechanism, i)
        assert outcome.gray_windows + outcome.straggler_windows == 2
        assert outcome.partition_windows == 2, (mechanism, i)
        assert outcome.undetected_violations == 0, (mechanism, i)
        assert outcome.torn_reads_observed == 0, (mechanism, i)
        assert outcome.reads_consumed > 0, (mechanism, i)


@pytest.mark.slow
def test_soak_remote_read_keeps_tearing_under_faults():
    rounds = int(os.environ.get("SABRES_FUZZ_ROUNDS", "6"))
    torn = 0
    for i in range(rounds):
        outcome = fuzz_round(
            "remote_read", 1, seed=5000 + i,
            duration_ns=60_000.0, object_size=2048,
            gray_windows=1, partition_windows=1,
        )
        torn += outcome.torn_reads_observed
    assert torn > 0


@pytest.mark.slow
@pytest.mark.parametrize("mechanism", DETECTING)
def test_soak_crash_lane(mechanism):
    """Scheduled-lane soak: many crash-cycle rounds per mechanism."""
    rounds = int(os.environ.get("SABRES_FUZZ_ROUNDS", "6"))
    for i in range(rounds):
        outcome = fuzz_round(
            mechanism,
            4,
            seed=3000 + i,
            duration_ns=60_000.0,
            object_size=1024,
            crash_cycles=4,
        )
        assert outcome.crashes == 4, (mechanism, i)
        assert outcome.undetected_violations == 0, (mechanism, i)
        assert outcome.torn_reads_observed == 0, (mechanism, i)
        assert outcome.reads_consumed > 0, (mechanism, i)


@pytest.mark.slow
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("mechanism", DETECTING)
def test_soak_detecting_protocols(mechanism, n_shards):
    """Scheduled-lane soak: many independent rounds per combination."""
    rounds = int(os.environ.get("SABRES_FUZZ_ROUNDS", "6"))
    for i in range(rounds):
        outcome = fuzz_round(
            mechanism,
            n_shards,
            seed=1000 + i,
            duration_ns=60_000.0,
            object_size=1024,
        )
        assert outcome.undetected_violations == 0, (mechanism, n_shards, i)
        assert outcome.torn_reads_observed == 0, (mechanism, n_shards, i)
        assert outcome.reads_consumed > 0


@pytest.mark.slow
def test_soak_remote_read_keeps_observing_tearing():
    rounds = int(os.environ.get("SABRES_FUZZ_ROUNDS", "6"))
    torn = 0
    for i in range(rounds):
        outcome = fuzz_round(
            "remote_read", 1, seed=2000 + i,
            duration_ns=60_000.0, object_size=2048,
        )
        torn += outcome.torn_reads_observed
    assert torn > 0
