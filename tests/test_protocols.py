"""Tests for the pluggable ReadProtocol layer: registry dispatch, the
DrTM source-locking path under concurrent writers, and Zipfian-skew
behavior in full microbenchmark runs."""

import pytest

from repro.common.errors import ConfigError
from repro.objstore import protocols
from repro.objstore.layout import ChecksumLayout, RawLayout
from repro.objstore.protocols import (
    RawRemoteReadProtocol,
    ReadProtocol,
    SoftwareCheckProtocol,
    get_protocol,
    protocol_names,
    register_protocol,
)
from repro.objstore.sharded import ShardedConfig, ShardedKV
from repro.workloads.generators import ZipfianPicker
from repro.workloads.microbench import (
    MECHANISMS,
    MicrobenchConfig,
    run_microbench,
)


class TestProtocolRegistry:
    def test_builtin_names_match_legacy_mechanisms(self):
        assert protocol_names() == (
            "remote_read",
            "sabre",
            "percl_versions",
            "checksum",
            "drtm_lock",
        )
        assert MECHANISMS == protocol_names()

    def test_get_unknown_protocol(self):
        with pytest.raises(ConfigError):
            get_protocol("nope")

    def test_new_protocol_needs_no_reader_loop_edits(self):
        """Registering a strategy is enough: the reader loop and config
        validation pick it up through the registry."""

        class EchoProtocol(RawRemoteReadProtocol):
            name = "test_echo_read"

        register_protocol(EchoProtocol)
        try:
            cfg = MicrobenchConfig(
                mechanism="test_echo_read",
                object_size=256,
                n_objects=8,
                readers=1,
                duration_ns=40_000.0,
                warmup_ns=5_000.0,
            )
            cfg.validate()  # registry-backed: no MECHANISMS edit needed
            result = run_microbench(cfg)
            assert result.ops_completed > 0
            assert result.undetected_violations == 0
        finally:
            protocols._PROTOCOLS.pop("test_echo_read", None)

    def test_unnamed_protocol_rejected(self):
        with pytest.raises(ConfigError):
            register_protocol(type("Anon", (ReadProtocol,), {}))


class DoubleReadProtocol(ReadProtocol):
    """The docs/architecture.md tutorial's protocol, verbatim: no
    layout override (the store stays raw) and its own wire dance."""

    name = "double_read"

    def read_once(self, handle, buf, wire, t_end):
        sim = self.sim
        version_addr = self.store.version_addr(handle.obj_id)
        t0 = sim.now
        while True:
            yield self.costs.microbench_loop_ns
            read = yield self.issue(handle, wire, buf)
            strip = self.layout.unpack(
                self.src.read_local(buf, wire), self.payload_len
            )
            # Second round trip: just the 8 B version word.
            yield self.src.remote_read(self.dst.node_id, version_addr, 8, buf)
            again = int.from_bytes(self.src.read_local(buf, 8), "little")
            if strip.ok and strip.version == again:
                self.audit(strip.data)
                self.stats.op_latency.add(sim.now - t0)
                self.stats.transfer_latency.add(read.timings.end_to_end_ns)
                self.stats.meter.record(self.payload_len)
                return True
            self.stats.software_conflicts += 1
            self.stats.retries += 1
            if sim.now >= t_end:
                return False


class ChecksumTwinProtocol(SoftwareCheckProtocol):
    """A software-check cell declared by its layout alone."""

    name = "test_checksum_twin"

    @staticmethod
    def make_layout(version_bits):
        return ChecksumLayout()


class TestOneClassPerMechanism:
    """A new Table 1 cell is one registered class: its layout reaches
    both stores, and its reads stay atomic under writers."""

    @pytest.mark.parametrize(
        "cls, layout_type",
        [(DoubleReadProtocol, RawLayout), (ChecksumTwinProtocol, ChecksumLayout)],
        ids=["double_read", "checksum_twin"],
    )
    def test_registered_class_runs_clean(self, cls, layout_type):
        register_protocol(cls)
        try:
            result = contended(cls.name)
            assert result.writer_updates > 0
            assert result.ops_completed > 0
            assert result.undetected_violations == 0
            kv = ShardedKV(
                ShardedConfig(
                    n_shards=2, mechanism=cls.name, object_size=256, n_objects=8
                )
            )
            try:
                assert type(kv.layout) is layout_type
                assert all(store.layout is kv.layout for store in kv.stores)
            finally:
                kv.close()
        finally:
            protocols._PROTOCOLS.pop(cls.name, None)


def contended(mechanism, **kw):
    defaults = dict(
        mechanism=mechanism,
        object_size=256,
        n_objects=8,
        readers=2,
        writers=4,
        duration_ns=80_000.0,
        warmup_ns=5_000.0,
        seed=2,
    )
    defaults.update(kw)
    return run_microbench(MicrobenchConfig(**defaults))


class TestDrtmLockProtocol:
    def test_quiescent_run_completes(self):
        # One reader, no writers: nobody to contend with, so the lock
        # dance never retries.  (With >= 2 readers, reader-reader CAS
        # contention on the version word already forces retries — the
        # cost Table 1 charges to source-side locking.)
        result = contended("drtm_lock", readers=1, writers=0)
        assert result.ops_completed > 10
        assert result.retries == 0
        assert result.undetected_violations == 0

    def test_never_consumes_torn_reads_under_writers(self):
        """Source locking prevents conflicts outright: even with
        concurrent CREW writers the audit must never fire."""
        result = contended("drtm_lock")
        assert result.writer_updates > 0
        assert result.ops_completed > 0
        assert result.undetected_violations == 0

    def test_lock_contention_forces_retries(self):
        result = contended("drtm_lock", writers=6, n_objects=4)
        assert result.retries > 0
        assert result.undetected_violations == 0

    def test_slower_than_sabre(self):
        """Two extra round trips per read (CAS + unlock write)."""
        drtm = contended("drtm_lock", writers=0)
        sabre = contended("sabre", writers=0)
        assert drtm.mean_op_latency_ns > 1.5 * sabre.mean_op_latency_ns


class TestZipfianSkew:
    def test_theta_099_concentrates_accesses(self):
        """A YCSB-style theta=0.99 run concentrates accesses: the top
        10 % of keys draw far more than their uniform share (0.1) of
        the picks."""
        picker = ZipfianPicker(range(100), seed=3, theta=0.99)
        counts = {}
        for _ in range(4000):
            obj = picker.pick()
            counts[obj] = counts.get(obj, 0) + 1
        head = sum(counts.get(i, 0) for i in range(10))
        assert head / 4000 > 0.4

    def test_skewed_run_raises_conflict_rate(self):
        uniform = contended("sabre", n_objects=64, writer_think_ns=500.0)
        skewed = contended(
            "sabre", n_objects=64, writer_think_ns=500.0, zipf_theta=0.99
        )
        uniform_rate = uniform.sabre_aborts / max(uniform.ops_completed, 1)
        skewed_rate = skewed.sabre_aborts / max(skewed.ops_completed, 1)
        assert skewed_rate > uniform_rate
        assert skewed.undetected_violations == 0

    def test_drtm_safe_under_skewed_writers(self):
        result = contended("drtm_lock", zipf_theta=0.99)
        assert result.ops_completed > 0
        assert result.undetected_violations == 0
