"""Tests for the FaRM framework layer (Fig. 9 machinery)."""

import pytest

from repro.common.errors import ConfigError
from repro.objstore.farm import FarmConfig, FarmKV, run_farm


def small_cfg(**kw):
    defaults = dict(
        object_size=512,
        n_objects=64,
        readers=1,
        duration_ns=60_000.0,
        warmup_ns=8_000.0,
        seed=4,
    )
    defaults.update(kw)
    return FarmConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FarmConfig(object_size=8).validate()
        with pytest.raises(ConfigError):
            FarmConfig(readers=0).validate()
        with pytest.raises(ConfigError):
            FarmConfig(n_objects=0).validate()

    def test_payload_len(self):
        assert FarmConfig(object_size=128).payload_len == 120


class TestReadPath:
    def test_baseline_breaks_down_into_components(self):
        result = run_farm(small_cfg(use_sabre=False))
        means = result.breakdown.means()
        assert means["transfer"] > 0
        assert means["framework"] > 0
        assert means["stripping"] > 0
        assert means["application"] > 0
        assert result.ops_completed > 10
        assert result.undetected_violations == 0

    def test_sabre_build_has_no_stripping(self):
        result = run_farm(small_cfg(use_sabre=True))
        means = result.breakdown.means()
        assert means["stripping"] == 0.0
        assert result.undetected_violations == 0

    def test_sabre_build_is_faster(self):
        base = run_farm(small_cfg(use_sabre=False))
        sabre = run_farm(small_cfg(use_sabre=True))
        assert sabre.mean_latency_ns < base.mean_latency_ns

    def test_sabre_framework_component_smaller(self):
        """Zero-copy + smaller instruction footprint shrink the
        framework component (§7.3)."""
        base = run_farm(small_cfg(use_sabre=False))
        sabre = run_farm(small_cfg(use_sabre=True))
        assert (
            sabre.breakdown.means()["framework"]
            < base.breakdown.means()["framework"]
        )

    def test_sabre_application_component_larger(self):
        """§7.3: the SABRe build's application phase reads the object
        from the LLC (no strip pulled it into the L1d first)."""
        base = run_farm(small_cfg(use_sabre=False, object_size=4096))
        sabre = run_farm(small_cfg(use_sabre=True, object_size=4096))
        assert (
            sabre.breakdown.means()["application"]
            > base.breakdown.means()["application"]
        )

    def test_improvement_grows_with_object_size(self):
        gains = []
        for size in (128, 8192):
            base = run_farm(small_cfg(use_sabre=False, object_size=size))
            sabre = run_farm(small_cfg(use_sabre=True, object_size=size))
            gains.append(base.mean_latency_ns / sabre.mean_latency_ns)
        assert gains[1] > gains[0]

    def test_128b_improvement_near_paper(self):
        """§7.3 reports a 35 % latency improvement for 128 B objects."""
        base = run_farm(small_cfg(use_sabre=False, object_size=128, n_objects=2048))
        sabre = run_farm(small_cfg(use_sabre=True, object_size=128, n_objects=2048))
        improvement = base.mean_latency_ns / sabre.mean_latency_ns - 1.0
        assert 0.20 <= improvement <= 0.50


class TestWritePath:
    def test_put_updates_remote_object(self):
        kv = FarmKV(small_cfg(use_sabre=True))
        sim = kv.cluster.sim
        outcome = []

        def client():
            reply = yield kv.put("key-3", b"z" * kv.cfg.payload_len)
            outcome.append(reply)

        sim.process(client())
        sim.run()
        assert outcome == [b"\x01"]
        assert kv.store.read(3).data == b"z" * kv.cfg.payload_len
        assert kv.store.current_version(3) == 2

    def test_put_takes_rpc_time(self):
        kv = FarmKV(small_cfg(use_sabre=True))
        sim = kv.cluster.sim
        times = []

        def client():
            yield kv.put("key-0", b"a" * kv.cfg.payload_len)
            times.append(sim.now)

        sim.process(client())
        sim.run()
        # RPC dispatch + fabric round trip + update service time.
        assert times[0] > 250.0

    def test_keys_enumerates_store(self):
        kv = FarmKV(small_cfg(n_objects=5))
        assert len(kv.store) == 5
        kv.put("key-4", b"x")
        with pytest.raises(KeyError):
            kv.put("key-5", b"x")
