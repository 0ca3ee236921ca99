"""Load-generator tests: trace synthesis, the wall-clock open-loop
client against a live gateway, the saturation sweep, and the
registered ``serve_load_sweep`` experiment."""

import asyncio
from dataclasses import fields

import pytest

from repro.common.config import from_fields
from repro.common.errors import ConfigError
from repro.experiments import registry, run_sweep
from repro.loadgen.client import run_open_loop
from repro.loadgen.sweep import (
    SERVE_LOAD_SWEEP_SPEC,
    SaturationConfig,
    SaturationResult,
    run_saturation,
    write_artifact,
)
from repro.loadgen.trace import TraceConfig, build_trace
from repro.serve.gateway import Gateway
from repro.serve.settings import ServeSettings


# ----------------------------------------------------------------------
# trace synthesis
# ----------------------------------------------------------------------


class TestTrace:
    def test_same_config_same_trace(self):
        cfg = TraceConfig(qps=5000.0, n_ops=200, txn_fraction=0.1, seed=9)
        assert build_trace(cfg) == build_trace(cfg)

    def test_different_seed_different_trace(self):
        a = build_trace(TraceConfig(n_ops=100, seed=1))
        b = build_trace(TraceConfig(n_ops=100, seed=2))
        assert a != b

    def test_arrivals_sorted_and_poisson_paced(self):
        trace = build_trace(TraceConfig(qps=1_000_000.0, n_ops=500, seed=3))
        stamps = [op.at_ns for op in trace.ops]
        assert stamps == sorted(stamps)
        # Mean gap should approximate 1/qps = 1000 ns (loose bound:
        # 500 exponential draws).
        mean_gap = stamps[-1] / (len(stamps) - 1)
        assert 700.0 < mean_gap < 1400.0

    def test_workload_mix_respected(self):
        trace = build_trace(
            TraceConfig(workload="A", n_ops=2000, seed=5)
        )
        puts = sum(1 for op in trace.ops if op.kind == "put")
        # Workload A is a 50/50 update mix.
        assert 0.4 < puts / len(trace.ops) < 0.6
        read_only = build_trace(TraceConfig(workload="C", n_ops=300, seed=5))
        assert all(op.kind == "get" for op in read_only.ops)

    def test_txn_fraction_and_distinct_keys(self):
        trace = build_trace(
            TraceConfig(
                n_ops=400,
                txn_fraction=0.5,
                txn_reads=2,
                txn_writes=2,
                seed=11,
            )
        )
        txns = [op for op in trace.ops if op.kind == "txn"]
        assert 0.35 < len(txns) / len(trace.ops) < 0.65
        for op in txns:
            keys = op.read_keys + op.write_keys
            assert len(keys) == 4
            assert len(set(keys)) == len(keys)  # distinct within one txn

    def test_duration_overrides_n_ops(self):
        cfg = TraceConfig(qps=1000.0, n_ops=5, duration_s=1.0)
        assert cfg.total_ops() == 1000
        assert len(build_trace(cfg).ops) == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"qps": 0.0},
            {"workload": "Z"},
            {"distribution": "pareto"},
            {"txn_fraction": 1.5},
            {"txn_fraction": 0.5, "txn_reads": 0, "txn_writes": 0},
            {"txn_reads": 600, "n_objects": 512},
            {"n_ops": 0},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            build_trace(TraceConfig(**kwargs))

    def test_uniform_distribution_spreads_keys(self):
        trace = build_trace(
            TraceConfig(
                distribution="uniform", n_ops=800, n_objects=64, seed=2
            )
        )
        distinct = {op.key for op in trace.ops}
        assert len(distinct) > 40


# ----------------------------------------------------------------------
# wall-clock open-loop client (against a live gateway)
# ----------------------------------------------------------------------


class TestOpenLoopClient:
    def test_client_drives_live_gateway(self):
        trace = build_trace(
            TraceConfig(qps=2000.0, n_ops=80, workload="B", seed=4)
        )

        async def scenario():
            gw = Gateway(ServeSettings(port=0))
            await gw.start()
            for _ in range(200):
                if gw.bridge.ready:
                    break
                await asyncio.sleep(0.01)
            try:
                return await run_open_loop(
                    trace, gw.settings.host, gw.port, time_scale=1.0
                )
            finally:
                await gw.drain()

        report = asyncio.run(scenario())
        assert report.n_ops == 80
        assert report.transport_errors == 0
        assert report.n_ok == 80  # B is get/put over existing keys
        assert report.status_counts == {200: 80}
        assert report.p50_ms > 0
        assert 0 < report.achieved_ratio
        payload = report.to_dict()
        assert payload["n_ok"] == 80 and "ops" not in payload

    def test_unreachable_server_counts_transport_errors(self):
        trace = build_trace(TraceConfig(qps=10_000.0, n_ops=5, seed=4))

        async def scenario():
            # Grab a port and close it so nothing listens there.
            server = await asyncio.start_server(
                lambda r, w: None, "127.0.0.1", 0
            )
            port = server.sockets[0].getsockname()[1]
            server.close()
            await server.wait_closed()
            return await run_open_loop(
                trace, "127.0.0.1", port, time_scale=100.0
            )

        report = asyncio.run(scenario())
        assert report.transport_errors == 5
        assert report.n_ok == 0
        assert report.n_errors == 5


# ----------------------------------------------------------------------
# the saturation sweep
# ----------------------------------------------------------------------


def _small_sweep(**overrides):
    """The sweep, its cluster and its op mix, as ``run_saturation``
    takes them; each override goes to the class with that field."""
    params = dict(
        qps_start=8_000_000.0,
        qps_factor=4.0,
        max_steps=3,
        ops_per_step=150,
        workload="C",
        seed=6,
    )
    params.update(overrides)
    return tuple(
        from_fields(cls, params)
        for cls in (SaturationConfig, ServeSettings, TraceConfig)
    )


class TestSweep:
    def test_sweep_is_deterministic(self):
        first = run_saturation(*_small_sweep())
        second = run_saturation(*_small_sweep())
        assert first.to_dict() == second.to_dict()
        assert first.steps
        assert first.peak_qps > 0
        assert first.undetected_violations == 0

    def test_sweep_steps_offered_qps_geometrically(self):
        result = run_saturation(*_small_sweep())
        offered = [step["offered_qps"] for step in result.steps]
        for prev, cur in zip(offered, offered[1:]):
            assert cur == pytest.approx(prev * 4.0)
        # Stops either at the step budget or at the first collapse.
        if result.collapsed:
            assert result.steps[-1]["achieved_ratio"] < 0.85
        else:
            assert len(result.steps) == 3

    def test_artifact_round_trip(self, tmp_path):
        import json

        result = run_saturation(*_small_sweep(max_steps=1))
        path = tmp_path / "sweep.json"
        write_artifact(result, str(path))
        payload = json.loads(path.read_text())
        assert payload["peak_qps"] == result.peak_qps
        assert payload["config"]["trace"]["workload"] == "C"
        assert payload["config"]["serve"]["seed"] == 6
        assert len(payload["steps"]) == len(result.steps)

    def test_each_setting_has_one_class(self):
        """The sweep declares only its steps: the cluster is a
        ``ServeSettings`` and the op mix a ``TraceConfig``."""
        names = [
            {f.name for f in fields(cls)}
            for cls in (SaturationConfig, ServeSettings, TraceConfig)
        ]
        assert not names[0] & (names[1] | names[2])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_saturation(*_small_sweep(qps_factor=1.0))
        with pytest.raises(ConfigError):
            run_saturation(*_small_sweep(qps_start=0.0))
        with pytest.raises(ConfigError):
            run_saturation(*_small_sweep(collapse_ratio=0.0))
        with pytest.raises(ConfigError):
            run_saturation(*_small_sweep(ops_per_step=0))

    def test_result_properties_on_synthetic_steps(self):
        cfg = _small_sweep()[0]
        result = SaturationResult(
            config=cfg,
            steps=[
                {
                    "offered_qps": 1e6,
                    "achieved_qps": 9.9e5,
                    "achieved_ratio": 0.99,
                    "undetected_violations": 0.0,
                },
                {
                    "offered_qps": 2e6,
                    "achieved_qps": 1.2e6,
                    "achieved_ratio": 0.60,
                    "undetected_violations": 0.0,
                },
            ],
        )
        assert result.collapsed
        assert result.knee_qps == 1e6
        assert result.peak_qps == 1.2e6
        empty = SaturationResult(config=cfg)
        assert not empty.collapsed and empty.peak_qps == 0.0
        first_dies = SaturationResult(
            config=cfg,
            steps=[
                {
                    "offered_qps": 1e6,
                    "achieved_qps": 1e5,
                    "achieved_ratio": 0.1,
                    "undetected_violations": 0.0,
                }
            ],
        )
        assert first_dies.knee_qps == 0.0


# ----------------------------------------------------------------------
# the registered experiment spec
# ----------------------------------------------------------------------


class TestServeLoadSweepSpec:
    def test_spec_is_registered(self):
        assert registry.get("serve_load_sweep") is SERVE_LOAD_SWEEP_SPEC
        assert "serve_load_sweep" in registry.names()

    def test_serial_matches_jobs_parity(self):
        """ISSUE requirement: serial == ``--jobs`` for the new spec.
        Restricted to one workload at a small scale to stay tier-1
        fast; every point is a pure function of config + seed, so the
        rows must match byte for byte."""
        axes = {"workload": ("C",)}
        serial = run_sweep(SERVE_LOAD_SWEEP_SPEC, scale=0.1, axes=axes)
        parallel = run_sweep(
            SERVE_LOAD_SWEEP_SPEC, scale=0.1, axes=axes, jobs=2
        )
        assert repr(serial.rows) == repr(parallel.rows)
        row = serial.rows[0]
        assert row["sabre_peak_qps"] > 0
        assert row["percl_peak_qps"] > 0
        assert row["sabre_violations"] == 0.0

    def test_overrides_reach_the_sweep_config(self):
        """Every ``SaturationConfig`` field layers through the point, not
        just the ones the spec states: a larger object moves the rows."""
        axes = {"workload": ("C",)}
        rows = [
            run_sweep(
                SERVE_LOAD_SWEEP_SPEC, scale=0.02, axes=axes, overrides=over
            ).rows
            for over in ({}, {"object_size": 4096})
        ]
        assert rows[0] != rows[1]

    def test_qa_checks_pass_on_scaled_run(self):
        from repro.experiments.qa import evaluate

        rows = run_sweep(
            SERVE_LOAD_SWEEP_SPEC, scale=0.1, axes={"workload": ("B",)}
        ).rows
        report = evaluate("sweep", SERVE_LOAD_SWEEP_SPEC.qa_checks, rows)
        assert report.verdict == "pass"


# ----------------------------------------------------------------------
# the repro-load command line
# ----------------------------------------------------------------------


def test_replay_honours_mechanism_and_shards(capsys):
    import json

    from repro.loadgen.cli import main

    def replay(*flags):
        argv = ["--replay", "--qps", "500000", "--ops", "200", *flags]
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    sabre = replay()
    assert replay("--mechanism", "sabre", "--shards", "4") == sabre
    assert replay("--mechanism", "percl_versions")["mean_ns"] != sabre["mean_ns"]
    assert replay("--shards", "2") != sabre
