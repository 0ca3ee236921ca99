"""Tests for the microbenchmark workload driver."""

import pytest

from repro.common.config import SabreMode, sabre_cluster
from repro.common.errors import ConfigError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.stats import ThroughputMeter
from repro.workloads.generators import CrewPartition, UniformPicker
from repro.workloads.microbench import (
    Microbenchmark,
    MicrobenchConfig,
    run_microbench,
)


class TestGenerators:
    def test_uniform_picker_covers_objects(self):
        picker = UniformPicker(range(10), seed=1)
        seen = {picker.pick() for _ in range(500)}
        assert seen == set(range(10))

    def test_uniform_picker_deterministic(self):
        a = [UniformPicker(range(10), seed=1).pick() for _ in range(20)]
        b = [UniformPicker(range(10), seed=1).pick() for _ in range(20)]
        assert a == b

    def test_uniform_picker_empty_rejected(self):
        with pytest.raises(ValueError):
            UniformPicker([], seed=1)

    def test_crew_partition_disjoint_and_complete(self):
        part = CrewPartition(range(100), writers=7)
        subsets = [part.subset(w) for w in range(7)]
        combined = [obj for s in subsets for obj in s]
        assert sorted(combined) == list(range(100))
        assert len(set(combined)) == 100

    def test_crew_zero_writers(self):
        part = CrewPartition(range(10), writers=0)
        assert part.subset(0) == []

    def test_crew_negative_rejected(self):
        with pytest.raises(ValueError):
            CrewPartition(range(10), writers=-1)


class TestConfigValidation:
    def test_unknown_mechanism(self):
        with pytest.raises(ConfigError):
            MicrobenchConfig(mechanism="nope").validate()

    def test_tiny_object(self):
        with pytest.raises(ConfigError):
            MicrobenchConfig(object_size=8).validate()

    def test_warmup_must_precede_end(self):
        with pytest.raises(ConfigError):
            MicrobenchConfig(duration_ns=100, warmup_ns=200).validate()

    def test_payload_len(self):
        assert MicrobenchConfig(object_size=128).payload_len == 120


def quick(mechanism, **kw):
    defaults = dict(
        mechanism=mechanism,
        object_size=256,
        n_objects=16,
        readers=2,
        writers=0,
        duration_ns=40_000.0,
        warmup_ns=5_000.0,
        seed=2,
    )
    defaults.update(kw)
    return run_microbench(MicrobenchConfig(**defaults))


class TestQuiescentRuns:
    @pytest.mark.parametrize(
        "mechanism", ["remote_read", "sabre", "percl_versions", "checksum"]
    )
    def test_no_writers_no_conflicts(self, mechanism):
        result = quick(mechanism)
        assert result.ops_completed > 10
        assert result.sabre_aborts == 0
        assert result.software_conflicts == 0
        assert result.retries == 0
        assert result.undetected_violations == 0

    def test_sabre_faster_than_percl(self):
        sabre = quick("sabre", object_size=2048)
        percl = quick("percl_versions", object_size=2048)
        assert sabre.mean_op_latency_ns < percl.mean_op_latency_ns

    def test_checksum_slowest(self):
        percl = quick("percl_versions", object_size=2048)
        checksum = quick("checksum", object_size=2048)
        assert checksum.mean_op_latency_ns > 2 * percl.mean_op_latency_ns

    def test_goodput_counts_only_measurement_window(self):
        result = quick("sabre")
        assert result.goodput_gbps > 0


class TestContendedRuns:
    def test_sabre_with_writers_detects_conflicts(self):
        result = quick("sabre", writers=4, n_objects=8, duration_ns=80_000.0)
        assert result.writer_updates > 0
        assert result.sabre_aborts > 0
        assert result.retries == result.sabre_aborts
        assert result.undetected_violations == 0

    def test_percl_with_writers_detects_conflicts(self):
        result = quick(
            "percl_versions", writers=4, n_objects=8, duration_ns=80_000.0
        )
        assert result.software_conflicts > 0
        assert result.undetected_violations == 0

    def test_locking_mode_never_aborts(self):
        result = quick(
            "sabre",
            writers=2,
            n_objects=16,
            duration_ns=80_000.0,
            writer_think_ns=500.0,
            cluster=sabre_cluster(mode=SabreMode.LOCKING),
        )
        assert result.sabre_aborts == 0
        assert result.undetected_violations == 0
        assert result.ops_completed > 0

    def test_no_speculation_safe_under_writers(self):
        result = quick(
            "sabre",
            writers=4,
            n_objects=8,
            duration_ns=80_000.0,
            cluster=sabre_cluster(mode=SabreMode.NO_SPECULATION),
        )
        assert result.undetected_violations == 0

    @pytest.mark.parametrize(
        "mode", [SabreMode.SPECULATIVE, SabreMode.NO_SPECULATION]
    )
    def test_every_abort_counts_its_cause(self, mode):
        """The NI's verdict is one abort bit per SABRe, and each abort
        counts its cause beside it, so ``sabre_aborts`` is the sum of
        the ``abort_<cause>`` counters — the validate stage's aborts
        included."""
        result = quick(
            "sabre",
            object_size=1024,
            readers=4,
            writers=8,
            duration_ns=60_000.0,
            warmup_ns=20_000.0,
            seed=1,
            cluster=sabre_cluster(mode=mode),
        )
        counters = result.destination_counters
        causes = {
            name: count for name, count in counters.items()
            if name.startswith("abort_")
        }
        assert causes.get("abort_validate_mismatch", 0) > 0
        assert sum(causes.values()) == counters["sabre_aborts"]
        assert counters["sabre_aborts"] == result.sabre_aborts

    def test_async_window_transport_mode(self):
        result = quick("sabre", async_window=4, readers=4)
        assert result.ops_completed > 20
        assert result.goodput_gbps > 0


def stamped(cfg):
    """A benchmark whose op-latency samples are stamped with the time
    they were taken: ``(bench, stamps)``."""
    bench = Microbenchmark(cfg)
    sim, stamps = bench.cluster.sim, []
    add = bench.stats.op_latency.add

    def stamped_add(value):
        stamps.append(sim.now)
        add(value)

    bench.stats.op_latency.add = stamped_add
    return bench, stamps


class TestRunEndsWithItsMeasurement:
    """An asynchronous run stops at the instant its meter does; a
    synchronous one lets every reader finish its last operation."""

    ASYNC = dict(
        mechanism="sabre",
        object_size=1024,
        n_objects=32,
        readers=4,
        async_window=4,
        duration_ns=20_000.0,
        warmup_ns=4_000.0,
        seed=3,
    )

    def test_async_run_stops_at_the_meter(self, monkeypatch):
        cfg = MicrobenchConfig(**self.ASYNC)
        bench, stamps = stamped(cfg)
        result = bench.run()
        sim = bench.cluster.sim
        assert sim.now == cfg.duration_ns
        assert sim.heap_size == 0 and sim.live_calls == 0
        assert stamps and max(stamps) <= sim.now
        assert len(result.op_latency) == len(stamps)

        # The reference drains the queue: same benchmark, plain run().
        drain = Simulator.run
        monkeypatch.setattr(Simulator, "run", lambda sim, until=None: drain(sim))
        ref_bench, ref_stamps = stamped(cfg)
        ref = ref_bench.run()
        assert ref_bench.cluster.sim.now > cfg.duration_ns
        assert ref_bench.cluster.sim.events_fired > sim.events_fired

        # What the meter reports does not depend on the drain ...
        assert result.goodput_gbps == ref.goodput_gbps > 0
        assert result.ops_completed == ref.ops_completed > 20
        # ... and the samples are the reference's up to the stop: the
        # drain's completions (a window per reader, plus the read a
        # thread inside its issue gap at the stop still posts) are the
        # rest.
        n = len(stamps)
        assert ref_stamps[:n] == stamps
        assert ref.op_latency.values[:n] == result.op_latency.values
        in_flight = cfg.readers * cfg.async_window
        assert in_flight <= len(ref_stamps) - n <= in_flight + cfg.readers
        assert min(ref_stamps[n:]) > cfg.duration_ns

    def test_sync_run_finishes_every_readers_last_operation(self):
        cfg = MicrobenchConfig(**{**self.ASYNC, "async_window": 1})
        bench, stamps = stamped(cfg)
        result = bench.run()
        sim = bench.cluster.sim
        assert sim.now > cfg.duration_ns
        assert sim.heap_size == 0
        assert sum(t >= cfg.duration_ns for t in stamps) == cfg.readers
        assert len(result.op_latency) == len(stamps)
        assert sim.now == max(stamps)

    @pytest.mark.parametrize(
        "w,d",
        [
            (874.3470064201256, 9727.264281274141),  # stops an ulp early
            (856.7696144955071, 11612.729292333452),  # an ulp late
        ],
    )
    def test_stop_instant_is_the_metering_process_arithmetic(self, w, d):
        """``warmup + (duration - warmup)`` is one ulp off ``duration``
        for these pairs; where it is later, stopping at ``duration``
        itself would leave the meter running and the goodput 0.0."""
        assert w + (d - w) != d
        bench = Microbenchmark(
            MicrobenchConfig(**{**self.ASYNC, "warmup_ns": w, "duration_ns": d})
        )
        result = bench.run()
        assert bench.cluster.sim.now == w + (d - w)
        assert result.goodput_gbps > 0 and result.ops_completed > 0

    @pytest.mark.parametrize("window", [1, 4])
    def test_meter_left_recording_is_an_error(self, monkeypatch, window):
        monkeypatch.setattr(ThroughputMeter, "stop", lambda meter, now: None)
        with pytest.raises(SimulationError, match="still recording"):
            run_microbench(
                MicrobenchConfig(**{**self.ASYNC, "async_window": window})
            )
