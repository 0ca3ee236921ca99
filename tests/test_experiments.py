"""Tests for the declarative experiment framework: spec expansion,
sweep execution (serial, parallel, cached), the registry, and the CLI
surface built on top of it."""

import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import LayeredConfig
from repro.common.errors import ConfigError
from repro.experiments import (
    CampaignContext,
    ExperimentSpec,
    Variant,
    registry,
    run_sweep,
)
from repro.experiments.context import atomic_write_json
from repro.harness.cli import main
from repro.harness.fig7 import FIG7A_SPEC
from repro.sim.engine import Simulator


def _echo_point(ctx):
    return {f"{ctx.variant}_value": ctx.params["x"] * ctx.params["factor"]}


ECHO_SPEC = ExperimentSpec(
    name="echo",
    description="toy spec for framework tests",
    axes={"x": (1, 2, 3)},
    variants=(Variant("a", {"factor": 10}), Variant("b", {"factor": 100})),
    headers=("x", "a_value", "b_value"),
    point_fn=_echo_point,
)


class TestSpecExpansion:
    def test_grid_times_variants_in_order(self):
        points = ECHO_SPEC.expand()
        assert len(points) == 6
        assert [p.axis_values["x"] for p in points] == [1, 1, 2, 2, 3, 3]
        assert [p.variant.name for p in points] == ["a", "b"] * 3
        assert [p.index for p in points] == list(range(6))

    def test_axis_override_and_unknown_axis(self):
        points = ECHO_SPEC.expand(axes={"x": (7,)})
        assert [p.axis_values["x"] for p in points] == [7, 7]
        with pytest.raises(ConfigError):
            ECHO_SPEC.expand(axes={"nope": (1,)})

    def test_overrides_win_over_variant_params(self):
        points = ECHO_SPEC.expand(overrides={"factor": 2})
        assert all(p.params["factor"] == 2 for p in points)

    def test_per_point_seeds_distinct_and_stable(self):
        a = ECHO_SPEC.expand()
        b = ECHO_SPEC.expand()
        assert [p.seed for p in a] == [p.seed for p in b]
        assert len({p.seed for p in a}) == len(a)

    def test_derive_hook_shapes_params(self):
        spec = ExperimentSpec(
            name="derived",
            axes={"x": (2, 4)},
            derive=lambda p: {**p, "doubled": p["x"] * 2},
            point_fn=lambda ctx: {"y": ctx.params["doubled"]},
        )
        rows = run_sweep(spec).rows
        assert rows == [{"x": 2, "y": 4}, {"x": 4, "y": 8}]


class TestSweepRunner:
    def test_rows_merge_variants(self):
        result = run_sweep(ECHO_SPEC)
        assert result.headers == ("x", "a_value", "b_value")
        assert result.rows == [
            {"x": 1, "a_value": 10, "b_value": 100},
            {"x": 2, "a_value": 20, "b_value": 200},
            {"x": 3, "a_value": 30, "b_value": 300},
        ]

    def test_finalize_row_hook(self):
        spec = ExperimentSpec(
            name="finalized",
            axes={"x": (1, 2)},
            variants=ECHO_SPEC.variants,
            defaults={},
            finalize_row=lambda row: {**row, "sum": row["a_value"] + row["b_value"]},
            point_fn=_echo_point,
        )
        rows = run_sweep(spec).rows
        assert rows[0]["sum"] == 110
        assert rows[1]["sum"] == 220

    def test_parallel_matches_serial(self):
        serial = run_sweep(ECHO_SPEC)
        parallel = run_sweep(ECHO_SPEC, jobs=3)
        assert serial.rows == parallel.rows

    def test_jobs_validation(self):
        with pytest.raises(ConfigError):
            run_sweep(ECHO_SPEC, jobs=0)

    def test_cache_round_trip(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = run_sweep(ECHO_SPEC, context=CampaignContext(cache))
        second = run_sweep(ECHO_SPEC, context=CampaignContext(cache))
        assert first.points_cached == 0
        assert second.points_cached == second.points_total == 6
        assert json.dumps(first.rows_json_dict()) == json.dumps(
            second.rows_json_dict()
        )
        # One store: the cache directory is a campaign journal.
        journal = (tmp_path / "cache" / "journal.jsonl").read_text()
        assert len(journal.splitlines()) == 6

    def test_cache_key_depends_on_scale(self, tmp_path):
        cache = str(tmp_path / "cache")
        run_sweep(ECHO_SPEC, scale=1.0, context=CampaignContext(cache))
        other = run_sweep(ECHO_SPEC, scale=0.5, context=CampaignContext(cache))
        assert other.points_cached == 0

    def test_json_artifact(self, tmp_path):
        path = tmp_path / "echo.json"
        result = run_sweep(ECHO_SPEC)
        atomic_write_json(str(path), result.to_json_dict())
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "echo"
        assert payload["rows"] == result.rows


class TestRegistry:
    def test_builtin_experiments_registered(self):
        names = registry.names()
        for expected in (
            "fig1", "fig7a", "fig7b", "fig8", "fig9a", "fig9b", "fig10",
            "table1", "table2", "ablation_source_locking",
            "ablation_stream_buffer_depth",
        ):
            assert expected in names

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            registry.get("not_an_experiment")

    def test_register_and_unregister(self, monkeypatch):
        """A registered spec is found by name; once it leaves the
        registry (monkeypatch takes it out again) the name is unknown."""
        spec = ExperimentSpec(name="temp_spec", point_fn=lambda ctx: {"v": 1})
        with monkeypatch.context() as patch:
            patch.setitem(registry._REGISTRY, "temp_spec", spec)
            assert registry.register(spec) is spec
            assert registry.get("temp_spec") is spec
        with pytest.raises(ConfigError):
            registry.get("temp_spec")


def _layered_specs():
    """Registered spec -> (the config class its point function builds —
    or the classes, when it builds several from one point — and the
    names its ``derive`` hook or point function consumes that are not
    fields of those classes).  ``None``: the spec builds no layered
    config and all its names are its own."""
    from repro.loadgen.sweep import SaturationConfig
    from repro.loadgen.trace import TraceConfig
    from repro.objstore.farm import FarmConfig
    from repro.objstore.local import LocalReadConfig
    from repro.serve.settings import ServeSettings
    from repro.workloads.availability import FailoverMixConfig
    from repro.workloads.elastic import ElasticConfig
    from repro.workloads.microbench import MicrobenchConfig
    from repro.workloads.txn_mix import TxnMixConfig
    from repro.workloads.ycsb import YcsbConfig

    return {
        "fig1": (FarmConfig, ()),
        "fig7a": (MicrobenchConfig, ("mode",)),
        "fig7b": (MicrobenchConfig, ()),
        "fig8": (MicrobenchConfig, ()),
        "fig9a": (FarmConfig, ("build",)),
        "fig9b": (FarmConfig, ()),
        "fig10": (LocalReadConfig, ()),
        "ablation_source_locking": (MicrobenchConfig, ()),
        "ablation_skewed_access": (MicrobenchConfig, ()),
        "ablation_software_mechanisms": (MicrobenchConfig, ()),
        "ablation_locking_vs_occ": (MicrobenchConfig, ("mode",)),
        "ablation_retry_policy": (MicrobenchConfig, ("policy",)),
        "ablation_r2p2_distribution": (MicrobenchConfig, ("mode",)),
        "ablation_stream_buffer_count": (MicrobenchConfig, ("stream_buffers",)),
        "ablation_stream_buffer_depth": (MicrobenchConfig, ("depth",)),
        "ycsb_latency": (YcsbConfig, ()),
        "ycsb_shard_scaling": (YcsbConfig, ("shards",)),
        "txn_abort_rate": (TxnMixConfig, ()),
        "txn_shard_scaling": (TxnMixConfig, ("shards",)),
        "failover_availability": (FailoverMixConfig, ()),
        "failover_atomicity": (FailoverMixConfig, ()),
        "gray_availability": (FailoverMixConfig, ()),
        "partition_availability": (FailoverMixConfig, ()),
        "elastic_scaling": (ElasticConfig, ()),
        "hotkey_rebalance": (ElasticConfig, ()),
        "serve_load_sweep": ((SaturationConfig, ServeSettings, TraceConfig), ()),
        "table1": (None, ("cc_method",)),
        "table2": (None, ("component", "cluster")),
    }


def _classes(built):
    """The config classes one ``_layered_specs`` entry builds."""
    if built is None:
        return ()
    return built if isinstance(built, tuple) else (built,)


class TestLayeredConfigs:
    @pytest.mark.parametrize("name", registry.names())
    def test_every_spec_parameter_names_a_config_field(self, name):
        """``from_params`` ignores a parameter that names no field, so a
        misspelt default would silently do nothing: every key a spec
        states must be a field of the config it builds, or a name its
        ``derive``/point function is known to consume."""
        table = _layered_specs()
        assert name in table, f"{name}: say which config its point function builds"
        config_cls, consumed = table[name]
        spec = registry.get(name)
        stated = set(spec.defaults) | set(spec.axes)
        for variant in spec.variants:
            stated |= set(variant.params)
        known = set(consumed)
        for cls in _classes(config_cls):
            known |= {f.name for f in dataclasses.fields(cls)}
        assert stated <= known, sorted(stated - known)

    def test_overridden_seed_reaches_an_ablation_that_states_none(self):
        spec = registry.get("ablation_software_mechanisms")
        axes = {"mechanism": ("sabre",)}
        rows = {
            seed: run_sweep(
                spec, scale=0.02, axes=axes, overrides={"seed": seed}
            ).rows
            for seed in (1, 7)
        }
        assert rows[1] != rows[7]

    def test_from_params_layers_defaults_point_and_extra(self):
        from repro.workloads.microbench import MicrobenchConfig

        cfg = MicrobenchConfig.from_params(
            {"readers": 4, "duration_ns": 100_000.0, "mode": "ignored"},
            0.5,
            seed=9,
        )
        assert (cfg.readers, cfg.duration_ns, cfg.seed) == (4, 50_000.0, 9)
        assert cfg.n_objects == MicrobenchConfig.n_objects
        floor = MicrobenchConfig.from_params({}, 0.0)
        assert floor.duration_ns == 30_000.0


def _scalar_fields():
    """(run-config class, field, annotation) for every scalar field of
    the configs the registered specs build."""
    classes = {
        cls
        for built, _consumed in _layered_specs().values()
        for cls in _classes(built)
        if issubclass(cls, LayeredConfig)
    }
    return sorted(
        (
            (cls, f.name, f.type)
            for cls in classes
            for f in dataclasses.fields(cls)
            if f.type in ("int", "float", "bool", "str")
        ),
        key=lambda t: (t[0].__name__, t[1]),
    )


def _fits(annotation, value):
    """An int field takes an int but not a bool, a float field an int
    or a float, bool and str fields only their own type."""
    if annotation == "bool":
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    types = {"int": int, "float": (int, float), "str": str}[annotation]
    return isinstance(value, types)


def _stated_cases():
    """(spec, key, bad value) for every key a registered spec states in
    its defaults, axes or variant params: a value of the wrong type,
    and for a string key (every one of them names a choice) a value
    outside its choices too."""
    cases = []
    for name in registry.names():
        spec = registry.get(name)
        stated = dict(spec.defaults)
        stated.update((axis, values[0]) for axis, values in spec.axes.items())
        for variant in spec.variants:
            stated.update(variant.params)
        for key, value in sorted(stated.items()):
            bad = (1.5, "bogus") if isinstance(value, str) else ("abc",)
            cases.extend((name, key, b) for b in bad)
    return cases


class TestWrongTypeOverrides:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_wrong_type_scalar_is_a_config_error(self, data):
        cls, name, annotation = data.draw(st.sampled_from(_scalar_fields()))
        value = data.draw(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(),
                st.text(max_size=4),
                st.lists(st.integers(), max_size=2),
            ).filter(lambda v: not _fits(annotation, v))
        )
        with pytest.raises(ConfigError, match=f"{cls.__name__}.{name} must be"):
            cls.from_params({name: value}, 1.0)

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--overrides", 'duration_ns="abc"', "duration_ns must be float"),
            ("--axes", "object_size=abc", "object_size must be int"),
            ("--overrides", "seed=1.5", "seed must be int"),
        ],
    )
    def test_cli_exits_2_naming_the_field(self, capsys, flag, value, field):
        assert main(["fig10", "--scale", "0.02", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: LocalReadConfig.") and field in err


    #: (spec, the override its derive hook consumes, the error).
    SABRE_HOOK_CASES = [
        (
            "ablation_stream_buffer_count",
            {"stream_buffers": "abc"},
            "SabreConfig.stream_buffers must be int, got 'abc'",
        ),
        (
            "ablation_stream_buffer_depth",
            {"depth": "abc"},
            "SabreConfig.stream_buffer_depth must be int, got 'abc'",
        ),
        (
            "ablation_stream_buffer_depth",
            {"depth": 1.5},
            "SabreConfig.stream_buffer_depth must be int, got 1.5",
        ),
        ("ablation_retry_policy", {"policy": 1.5}, "policy must be one of"),
        ("fig7a", {"mode": "bogus"}, "SabreConfig.mode must be one of"),
        (
            "ablation_r2p2_distribution",
            {"mode": 1.5},
            "SabreConfig.mode must be one of",
        ),
        (
            "ablation_locking_vs_occ",
            {"mode": "bogus"},
            "SabreConfig.mode must be one of",
        ),
    ]

    def test_the_cases_cover_every_sabre_derive_hook(self):
        """A SABRe derive hook is one whose points carry a ``cluster``
        it built: selected by what the hook does, not by its name."""
        hooks = {
            name
            for name in registry.names()
            if registry.get(name).derive is not None
            and any("cluster" in p.params for p in registry.get(name).expand())
        }
        assert hooks == {spec for spec, _o, _e in self.SABRE_HOOK_CASES}

    @pytest.mark.parametrize("spec, override, error", SABRE_HOOK_CASES)
    def test_a_derive_hook_refuses_a_wrong_type(self, spec, override, error):
        """A parameter a ``derive`` hook consumes into ``SabreConfig``
        is type-checked like one ``from_params`` consumes, before any
        point runs."""
        with pytest.raises(ConfigError, match=re.escape(error)):
            registry.get(spec).expand(overrides=override)

    @pytest.mark.parametrize("name, key, value", _stated_cases())
    def test_every_stated_parameter_is_checked(self, monkeypatch, name, key, value):
        """Every key a registered spec states, set to a value of the
        wrong type or outside its choices, is refused with a
        :class:`ConfigError` naming it — wherever it is read (a config
        field, a derive hook, a table point) and before any simulation
        runs."""

        def no_run(*_args, **_kwargs):
            raise AssertionError(f"a simulation ran with {key}={value!r}")

        monkeypatch.setattr(Simulator, "run", no_run)
        with pytest.raises(ConfigError, match=re.escape(key)):
            run_sweep(registry.get(name), scale=0.01, overrides={key: value})


class TestFigureSpecs:
    def test_fig7a_parallel_sweep_byte_identical_to_serial(self):
        axes = {"object_size": (64, 512)}
        serial = run_sweep(FIG7A_SPEC, scale=0.1, axes=axes)
        parallel = run_sweep(FIG7A_SPEC, scale=0.1, axes=axes, jobs=2)
        assert repr(serial.rows) == repr(parallel.rows)

    def test_registry_sweep_matches_direct_sweep(self):
        axes = {"object_size": (64, 512)}
        named = run_sweep(registry.get("fig7a"), scale=0.1, axes=axes)
        direct = run_sweep(FIG7A_SPEC, scale=0.1, axes=axes, overrides={"seed": 5})
        assert named.headers == direct.headers
        assert repr(named.rows) == repr(direct.rows)


class TestCliExtensions:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7a" in out
        assert "ablation_source_locking" in out

    def test_jobs_and_json_out(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = main(
            ["fig10", "--scale", "0.1", "--jobs", "2", "--json-out", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "fig10"
        assert payload["jobs"] == 2
        assert {"object_size", "speedup"} <= set(payload["rows"][0])

    def test_campaign_dir_flag(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["table2", "--campaign-dir", cache]) == 0
        cold = capsys.readouterr().out
        assert main(["table2", "--campaign-dir", cache]) == 0
        warm = capsys.readouterr().out
        assert "0/9 points cached" in cold
        assert "9/9 points cached" in warm
        # Served from the journal, the table is byte-identical.
        assert cold.split("===\n", 1)[1] == warm.split("===\n", 1)[1]
