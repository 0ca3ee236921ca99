"""Campaign orchestration tests: executor parity, the crash-resumable
journal, QA scoring, the HTML report, and the ``repro-campaign`` CLI.

The acceptance bar for the whole layer is byte-identical row artifacts
across serial, pooled, multi-host, and kill-then-resume executions of
the same campaign — pinned here at test scale and by the CI campaign
smoke job at the CLI level (with a real SIGKILL).
"""

import dataclasses
import importlib.util
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.experiments import (
    CampaignContext,
    CampaignRunner,
    CampaignSpec,
    CampaignStage,
    ExperimentSpec,
    PoolExecutor,
    QaCheck,
    SerialExecutor,
    SubprocessExecutor,
    Variant,
    make_executor,
    point_key,
    registry,
    run_sweep,
)
from repro.experiments import campaign_cli, qa
from repro.experiments.campaign import campaign_status, load_campaign
from repro.experiments.executors import resolve_spec
from repro.experiments.runner import merge_rows
from repro.experiments.worker import serve as worker_serve
from repro.harness.cli import main as harness_main
from repro.harness.htmlreport import render_campaign

REPO_ROOT = Path(__file__).resolve().parents[1]
TESTS_DIR = Path(__file__).resolve().parent


def _mix_point(ctx):
    # Deterministic function of params + the per-point seed, plus one
    # draw from the global RNG to prove per-point seeding holds under
    # every executor.
    import random

    noise = random.random()
    return {
        f"{ctx.variant}_value": ctx.params["x"] * ctx.params["factor"],
        f"{ctx.variant}_noise": round(noise + ctx.seed % 7, 6),
    }


MIX_SPEC = ExperimentSpec(
    name="campaign_mix",
    description="toy spec for campaign tests",
    axes={"x": (1, 2, 3)},
    variants=(Variant("a", {"factor": 10}), Variant("b", {"factor": 100})),
    headers=("x", "a_value", "b_value", "a_noise", "b_noise"),
    point_fn=_mix_point,
)

#: module:attr reference workers can re-resolve (tests dir on PYTHONPATH).
MIX_REF = "test_campaign:MIX_SPEC"

_WORKER_ENV = {
    "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"), str(TESTS_DIR)])
}


def _mix_campaign(**stage_kwargs):
    return CampaignSpec(
        name="toy",
        scale=0.5,
        stages=[CampaignStage(MIX_REF, name="mix", **stage_kwargs)],
    )


class TestExecutors:
    def test_serial_pool_and_workers_byte_identical(self):
        serial = run_sweep(MIX_SPEC, executor=SerialExecutor())
        pool = run_sweep(MIX_SPEC, executor=PoolExecutor(3))
        sub = run_sweep(
            MIX_SPEC,
            executor=SubprocessExecutor(workers=2, ref=MIX_REF, env=_WORKER_ENV),
        )
        assert repr(serial.rows) == repr(pool.rows) == repr(sub.rows)

    def test_subprocess_executor_value_fidelity(self):
        # Tuples and int-vs-float must survive the wire exactly.
        spec = ExperimentSpec(
            name="campaign_types",
            axes={"x": (1,)},
            point_fn=lambda ctx: {"t": (1, 2), "i": 3, "f": 3.0},
        )
        sub = run_sweep(
            spec,
            executor=SubprocessExecutor(
                workers=1, ref="test_campaign:_TYPES_SPEC", env=_WORKER_ENV
            ),
        )
        row = sub.rows[0]
        assert row["t"] == (1, 2) and isinstance(row["t"], tuple)
        assert isinstance(row["i"], int) and isinstance(row["f"], float)

    def test_dead_worker_surfaces_as_config_error(self):
        executor = SubprocessExecutor(
            workers=1,
            command="{python} -c 'import sys; sys.exit(3)'",
            ref=MIX_REF,
            env=_WORKER_ENV,
        )
        with pytest.raises(ConfigError):
            run_sweep(MIX_SPEC, executor=executor)

    def test_make_executor_factory(self):
        """The counts choose the executor, and each reports its own
        ``jobs`` — a subclass that skips ``__init__`` included."""
        assert type(make_executor()) is SerialExecutor
        assert type(make_executor(jobs=1)) is SerialExecutor
        pool = make_executor(jobs=4)
        assert isinstance(pool, PoolExecutor) and pool.jobs == 4
        workers = make_executor(workers=3)
        assert isinstance(workers, SubprocessExecutor) and workers.jobs == 3
        assert workers.describe() == "workers:3"

        class Bare(SerialExecutor):
            def __init__(self):
                pass

        assert Bare().jobs == SerialExecutor().jobs == 1
        for bad in (
            {"jobs": 2, "workers": 2},
            {"jobs": 1, "workers": 2},
            {"jobs": 0},
            {"workers": 0},
            {"command": "{python} -m repro.experiments.worker"},
        ):
            with pytest.raises(ConfigError):
                make_executor(**bad)

    def test_resolve_spec_registry_and_module(self):
        assert resolve_spec(MIX_REF) is MIX_SPEC
        assert resolve_spec("fig10").name == "fig10"
        with pytest.raises(ConfigError):
            resolve_spec("not_an_experiment")


_TYPES_SPEC = ExperimentSpec(
    name="campaign_types",
    axes={"x": (1,)},
    point_fn=lambda ctx: {"t": (1, 2), "i": 3, "f": 3.0},
)


class TestWorkerProtocol:
    def test_serve_round_trip(self):
        import base64
        import io
        import pickle

        points = MIX_SPEC.expand()
        payload = pickle.dumps(
            {"ref": MIX_REF, "scale": 0.5, "points": points[:2]}
        )
        out = io.StringIO()
        assert worker_serve(io.BytesIO(payload), out) == 0
        lines = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [msg["index"] for msg in lines] == [0, 1]
        fragment = pickle.loads(base64.b64decode(lines[0]["data"]))
        assert fragment["a_value"] == 10

    def test_serve_relays_errors(self):
        import io
        import pickle

        payload = pickle.dumps({"ref": "nope_not_registered", "scale": 1.0, "points": []})
        out = io.StringIO()
        assert worker_serve(io.BytesIO(payload), out) == 1
        msg = json.loads(out.getvalue())
        assert "error" in msg


class TestJournal:
    def test_kill_then_resume_serves_exactly_journaled_points(self, tmp_path):
        # Uninterrupted reference run.
        ref_dir = tmp_path / "ref"
        CampaignRunner(
            _mix_campaign(), context=CampaignContext(str(ref_dir))
        ).run()

        # "Killed" run: the executor dies after 2 fragments; the
        # journal must hold exactly those 2 points.
        class DieAfter(SerialExecutor):
            def __init__(self, n):
                self.n = n

            def run(self, spec, points, scale):
                for i, item in enumerate(super().run(spec, points, scale)):
                    if i == self.n:
                        raise RuntimeError("simulated SIGKILL")
                    yield item

        crash_dir = tmp_path / "crash"
        with pytest.raises(RuntimeError):
            CampaignRunner(
                _mix_campaign(),
                executor=DieAfter(2),
                context=CampaignContext(str(crash_dir)),
            ).run()
        journal_lines = (crash_dir / "journal.jsonl").read_text().splitlines()
        assert len(journal_lines) == 2

        # Resume: only the 4 unfinished points execute.
        context = CampaignContext(str(crash_dir))
        result = CampaignRunner(_mix_campaign(), context=context).run()
        assert result.stages[0].journal_hits == 2
        assert result.stages[0].result.points_cached == 2
        assert (crash_dir / "artifacts" / "mix.rows.json").read_bytes() == (
            ref_dir / "artifacts" / "mix.rows.json"
        ).read_bytes()

    def test_point_key_is_pinned(self):
        """Key derivation is the journal's format: a change to it
        orphans every campaign directory already on disk."""
        point = MIX_SPEC.expand()[0]
        assert point_key(MIX_SPEC.name, point, 0.5) == (
            "f893a47eb138caec5da26d80cd373a23d7fa8f7e1348b9a07050d0457fd92cbc"
        )

    def test_corrupt_journal_lines_recompute_not_crash(self, tmp_path):
        from repro.experiments import execute_point

        root = tmp_path / "c"
        context = CampaignContext(str(root))
        points = MIX_SPEC.expand()
        good_key = point_key(MIX_SPEC.name, points[0], 0.5)
        good_fragment = execute_point(MIX_SPEC, points[0], 0.5)
        context.record(good_key, good_fragment, stage="mix")
        context.close()
        with open(root / "journal.jsonl", "a") as fh:
            fh.write("{\"stage\": \"mix\", \"key\": \"abc\", \"frag")  # truncated
            fh.write("\n")
            fh.write("total garbage\n")
            fh.write(json.dumps({"key": "k2", "fragment": 42}) + "\n")  # non-dict
            fh.write(json.dumps({"fragment": {"x": 1}}) + "\n")  # no key

        reopened = CampaignContext(str(root))
        assert reopened.journal_lines_skipped == 4
        assert reopened.get(good_key) == good_fragment

        # A campaign over the damaged journal completes with correct rows.
        result = CampaignRunner(_mix_campaign(), context=reopened).run()
        clean = CampaignRunner(
            _mix_campaign(), context=CampaignContext(str(tmp_path / "clean"))
        ).run()
        assert repr(result.stages[0].result.rows) == repr(clean.stages[0].result.rows)
        assert result.stages[0].journal_hits == 1

    def test_cache_dir_corruption_recomputes(self, tmp_path):
        """A point cache is a journal: a damaged line — truncated, or a
        fragment that parses but is not a dict — costs exactly that
        point, which recomputes to byte-identical rows."""
        cache_dir = tmp_path / "cache"
        first = run_sweep(
            MIX_SPEC, context=CampaignContext(str(cache_dir))
        )
        journal = cache_dir / "journal.jsonl"
        lines = journal.read_text().splitlines()
        assert len(lines) == first.points_total > 2
        lines[0] = lines[0][: len(lines[0]) // 2]  # killed mid-write
        entry = json.loads(lines[1])
        entry["fragment"] = 17  # valid JSON, not a fragment dict
        lines[1] = json.dumps(entry)
        journal.write_text("\n".join(lines) + "\n")
        context = CampaignContext(str(cache_dir))
        again = run_sweep(MIX_SPEC, context=context)
        assert context.journal_lines_skipped == 2
        assert again.points_cached == len(lines) - 2
        assert json.dumps(first.rows_json_dict()) == json.dumps(
            again.rows_json_dict()
        )

    def test_unserializable_fragment_skips_journal(self, tmp_path):
        spec = ExperimentSpec(
            name="campaign_unjson",
            axes={"x": (1,)},
            point_fn=lambda ctx: {"obj": object()},
        )
        context = CampaignContext(str(tmp_path / "u"))
        result = run_sweep(spec, context=context)
        assert result.rows[0]["x"] == 1
        context.close()
        reopened = CampaignContext(str(tmp_path / "u"))
        assert not reopened.completed_keys()  # recomputes next time


class TestMergeAndArtifacts:
    def test_empty_fragment_is_not_missing(self, tmp_path):
        points = MIX_SPEC.expand(axes={"x": (1,)})
        rows_none = merge_rows(MIX_SPEC, points, [None, None])
        rows_empty = merge_rows(MIX_SPEC, points, [{}, {}])
        assert rows_none == rows_empty == [{"x": 1}]
        # And an empty fragment journals/serves as a completed point.
        spec = ExperimentSpec(
            name="campaign_empty",
            axes={"x": (1, 2)},
            point_fn=lambda ctx: {},
        )
        context = CampaignContext(str(tmp_path / "empty"))
        run_sweep(spec, context=context)
        second = run_sweep(spec, context=context)
        assert second.points_cached == 2

    def test_write_json_is_atomic(self, tmp_path):
        """``repro-harness --json-out`` writes then renames (``indent=2``
        plus a newline), so a failed write leaves the old file whole."""
        path = tmp_path / "out.json"
        argv = [MIX_SPEC.name, "--json-out", str(path)]
        registry.register(MIX_SPEC)
        try:
            assert harness_main(argv) == 0
            original = path.read_bytes()
            payload = json.loads(original)
            assert payload["rows"] == run_sweep(MIX_SPEC).rows
            assert original.decode() == json.dumps(payload, indent=2) + "\n"
            assert not (tmp_path / "out.json.tmp").exists()

            # A failed re-write (unserializable row) must leave the
            # original artifact untouched, not truncated.
            poisoned = dataclasses.replace(
                MIX_SPEC, point_fn=lambda ctx: {"poison": object()}
            )
            registry.register(poisoned)
            with pytest.raises(TypeError):
                harness_main(argv)
            assert path.read_bytes() == original
        finally:
            registry.unregister(MIX_SPEC.name)

    def test_stage_meta_records_peak_rss(self, tmp_path, capsys):
        """Each stage's ``meta.json`` carries the process's RSS
        high-water mark at the stage's end (so it cannot fall from one
        stage to the next), the stage line prints it, and ``rows.json``
        does not know about it."""
        campaign = CampaignSpec(
            name="rss",
            scale=0.5,
            stages=[
                CampaignStage(MIX_REF, name=name) for name in ("s1", "s2", "s3")
            ],
        )
        context = CampaignContext(str(tmp_path / "rss"))
        result = CampaignRunner(campaign, context=context).run()
        peaks = []
        for stage in result.stages:
            meta = json.loads(
                Path(context.meta_artifact_path(stage.stage)).read_text()
            )
            assert meta["peak_rss_mb"] == stage.peak_rss_mb
            assert "elapsed_s" in meta
            peaks.append(meta["peak_rss_mb"])
            rows = Path(context.rows_artifact_path(stage.stage)).read_text()
            assert "peak_rss_mb" not in rows
        assert peaks[0] > 0 and peaks == sorted(peaks)
        campaign_cli._print_result(result)
        assert f"peak RSS {peaks[0]:.0f} MiB" in capsys.readouterr().out


class TestQa:
    def test_bounds_and_aggregates(self):
        rows = [{"v": 1.0}, {"v": 3.0}]
        report = qa.evaluate(
            "s",
            [
                QaCheck("v", agg="max", hi=3.0),
                QaCheck("v", agg="min", lo=2.0),
                QaCheck("v", agg="mean", lo=0.0, hi=2.0),
                QaCheck("v", agg="sum", hi=10.0),
            ],
            rows,
        )
        assert [o.passed for o in report.outcomes] == [True, False, True, True]
        assert report.verdict == "fail"

    def test_missing_and_non_numeric_columns_fail_loud(self):
        report = qa.evaluate(
            "s",
            [QaCheck("absent", hi=0), QaCheck("label", hi=0)],
            [{"label": "abc"}],
        )
        assert all(not o.passed for o in report.outcomes)
        assert all(o.reason for o in report.outcomes)

    @pytest.mark.parametrize("agg", ["min", "max", "mean", "sum", "first", "last"])
    @pytest.mark.parametrize("poison", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rows_fail_loud_for_every_agg(self, agg, poison):
        # Before the explicit isfinite guard, NaN rows resolved bound
        # checks by IEEE-comparison accident: min/max over NaN are
        # order-dependent in Python, and `NaN <= hi` is simply False.
        # Bounds chosen so finite rows alone would pass every agg.
        rows = [{"v": 1.0}, {"v": poison}, {"v": 2.0}]
        report = qa.evaluate("s", [QaCheck("v", agg=agg, lo=0.0, hi=10.0)], rows)
        outcome = report.outcomes[0]
        assert not outcome.passed
        assert "non-finite" in outcome.reason
        assert report.verdict == "fail"

    def test_nan_order_does_not_matter(self):
        # The historical accident: [nan, 1.0] vs [1.0, nan] gave
        # different min() results. Both orders must now fail the same.
        for rows in ([{"v": float("nan")}, {"v": 1.0}],
                     [{"v": 1.0}, {"v": float("nan")}]):
            report = qa.evaluate("s", [QaCheck("v", agg="min", lo=0.0)], rows)
            assert not report.outcomes[0].passed
            assert "non-finite" in report.outcomes[0].reason

    def test_finite_rows_overflowing_sum_fail_loud(self):
        big = 1e308
        rows = [{"v": big}, {"v": big}]  # finite inputs, inf sum
        report = qa.evaluate("s", [QaCheck("v", agg="sum", lo=0.0)], rows)
        outcome = report.outcomes[0]
        assert not outcome.passed
        assert "non-finite" in outcome.reason

    def test_check_validation(self):
        with pytest.raises(ConfigError):
            QaCheck("v")  # no bounds
        with pytest.raises(ConfigError):
            QaCheck("v", agg="median", hi=1)

    def test_spec_and_stage_checks_compose(self, tmp_path):
        spec = ExperimentSpec(
            name="campaign_qa",
            axes={"x": (1, 2)},
            point_fn=lambda ctx: {"v": ctx.params["x"]},
            qa_checks=(QaCheck("v", agg="min", lo=0.0),),
        )
        campaign = CampaignSpec(
            name="qa",
            stages=[
                CampaignStage(
                    "test_campaign:_QA_SPEC",
                    name="s",
                    qa=(QaCheck("v", agg="max", hi=1.0),),
                )
            ],
        )
        result = CampaignRunner(
            campaign, context=CampaignContext(str(tmp_path / "q"))
        ).run()
        report = result.stages[0].qa
        assert len(report.outcomes) == 2
        assert report.outcomes[0].passed  # spec check
        assert not report.outcomes[1].passed  # stage check (max v == 2)
        assert result.verdict == "fail"
        qa_payload = json.loads(
            (tmp_path / "q" / "artifacts" / "s.qa.json").read_text()
        )
        assert qa_payload["verdict"] == "fail"


_QA_SPEC = ExperimentSpec(
    name="campaign_qa",
    axes={"x": (1, 2)},
    point_fn=lambda ctx: {"v": ctx.params["x"]},
    qa_checks=(QaCheck("v", agg="min", lo=0.0),),
)


#: The five malformed requests that once ended in a traceback.
_MALFORMED_REQUESTS = (
    {"campaign": "c", "stages": [{"experiment": "nope_mod:thing"}]},
    {"campaign": "c", "stages": [{"name": "no_experiment"}]},
    {"campaign": "c", "stages": ["fig7a"]},
    {
        "campaign": "c",
        "stages": [{"experiment": "fig7a", "axes": {"object_size": 64}}],
    },
    ["fig7a"],
)

_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(
        ["", "c", "fig10", MIX_REF, "nope_mod:thing", ":", ".rel:x", "os:path",
         "object_size", "x", "max"]
    )
)
_REQUEST_KEYS = st.sampled_from(
    ["campaign", "name", "description", "scale", "stages", "experiment",
     "axes", "overrides", "base_seed", "qa", "column", "agg", "lo", "hi",
     "label", "x", "object_size"]
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_REQUEST_KEYS, inner, max_size=4),
    max_leaves=10,
)


def _mostly(good):
    """``good`` three draws in four, arbitrary JSON otherwise, so both
    outcomes of the property below keep occurring."""
    return st.tuples(st.integers(0, 3), good, _JSON).map(
        lambda t: t[2] if t[0] == 0 else t[1]
    )


_STAGES = st.fixed_dictionaries(
    {"experiment": _mostly(st.sampled_from(["fig10", MIX_REF]))},
    optional={
        "name": _mostly(st.sampled_from(["s1", "s2"])),
        "axes": _mostly(
            st.dictionaries(
                st.sampled_from(["x", "object_size"]),
                st.lists(st.integers(1, 3), max_size=2),
                max_size=1,
            )
        ),
        "overrides": _mostly(st.dictionaries(_REQUEST_KEYS, _JSON_SCALARS, max_size=2)),
        "base_seed": _mostly(st.integers(0, 9)),
        "scale": _mostly(st.floats(0.1, 1.0)),
        "qa": _mostly(
            st.lists(
                st.fixed_dictionaries(
                    {"column": st.just("x"), "hi": st.integers(0, 5)}
                ),
                max_size=1,
            )
        ),
    },
)
_REQUESTS = _mostly(
    st.fixed_dictionaries(
        {
            "campaign": _mostly(st.just("c")),
            "stages": _mostly(st.lists(_mostly(_STAGES), min_size=1, max_size=2)),
        },
        optional={
            "scale": _mostly(st.floats(0.1, 1.0)),
            "description": _mostly(st.just("d")),
        },
    )
)


#: A well-formed request except for one axis value that is a JSON
#: list: it must be refused at load time, not inside a point function.
_NESTED_AXIS_REQUEST = {
    "campaign": "x",
    "stages": [{"experiment": "table1", "axes": {"cc_method": [["locking"]]}}],
}
_SCALARS = (str, int, float, bool, type(None))


class TestCampaignSpec:
    @settings(max_examples=150, deadline=None)
    @given(request=_REQUESTS)
    @example(request={"experiment": "nope_mod:thing"})
    @example(request=_MALFORMED_REQUESTS[0])
    @example(request=_MALFORMED_REQUESTS[1])
    @example(request=_MALFORMED_REQUESTS[2])
    @example(request=_MALFORMED_REQUESTS[3])
    @example(request=_MALFORMED_REQUESTS[4])
    @example(request={"campaign": "c", "stages": [{"experiment": MIX_REF}]})
    @example(request=_NESTED_AXIS_REQUEST)
    def test_any_json_request_loads_or_raises_config_error(self, request):
        """A request file either loads into a campaign whose every stage
        resolves (and persists back to JSON) with only JSON scalars on
        its axes, or raises ConfigError."""
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "req.json")
            with open(path, "w") as fh:
                json.dump(request, fh)
            try:
                campaign = load_campaign(path)
                for stage in campaign.stages:
                    resolve_spec(stage.experiment)
            except ConfigError:
                return
        assert isinstance(campaign, CampaignSpec)
        json.dumps(campaign.to_dict())
        for stage in campaign.stages:
            for values in (stage.axes or {}).values():
                assert all(isinstance(v, _SCALARS) for v in values)

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ConfigError):
            CampaignSpec(
                name="dup",
                stages=[CampaignStage("fig10"), CampaignStage("fig10")],
            )

    def test_round_trip_through_dict(self):
        campaign = _mix_campaign(
            axes={"x": (1, 2)},
            overrides={"factor": 5},
            base_seed=9,
            scale=0.25,
            qa=(QaCheck("a_value", hi=100),),
        )
        clone = CampaignSpec.from_dict(campaign.to_dict())
        assert clone.to_dict() == campaign.to_dict()

    def test_load_campaign_json_and_errors(self, tmp_path):
        path = tmp_path / "req.json"
        path.write_text(
            json.dumps(
                {"campaign": "j", "stages": [{"experiment": "fig10"}]}
            )
        )
        campaign = load_campaign(str(path))
        assert campaign.name == "j"
        assert campaign.stages[0].name == "fig10"
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            load_campaign(str(bad))
        with pytest.raises(ConfigError):
            load_campaign(str(tmp_path / "missing.json"))

    def test_status_counts_points(self, tmp_path):
        context = CampaignContext(str(tmp_path / "s"))
        campaign = _mix_campaign()
        assert campaign_status(campaign, context) == [("mix", 0, 6)]
        CampaignRunner(campaign, context=context).run()
        context2 = CampaignContext(str(tmp_path / "s"))
        assert campaign_status(campaign, context2) == [("mix", 6, 6)]


class TestReport:
    def _check_links(self, root: str) -> int:
        spec = importlib.util.spec_from_file_location(
            "check_links", REPO_ROOT / "tools" / "check_links.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main([root])

    def test_report_renders_tables_qa_and_svg(self, tmp_path):
        root = tmp_path / "rep"
        context = CampaignContext(str(root))
        CampaignRunner(
            _mix_campaign(qa=(QaCheck("a_value", agg="max", hi=1000),)),
            context=context,
        ).run()
        page = Path(render_campaign(CampaignContext(str(root))))
        html = page.read_text()
        assert "campaign toy" in html
        assert 'id="mix"' in html
        assert "verdict-pass" in html
        assert "<table>" in html
        assert "<svg" in html  # 3 rows of numeric columns -> a figure
        assert "mix.rows.json" in html
        # Zero broken links in the rendered page (CI reuses this tool).
        assert self._check_links(str(root)) == 0

    def test_broken_report_link_detected(self, tmp_path):
        root = tmp_path / "rep2"
        context = CampaignContext(str(root))
        CampaignRunner(_mix_campaign(), context=context).run()
        page = Path(render_campaign(CampaignContext(str(root))))
        page.write_text(
            page.read_text().replace("mix.rows.json", "gone.rows.json")
        )
        assert self._check_links(str(root)) == 1


class TestCampaignCli:
    def _request(self, tmp_path) -> str:
        path = tmp_path / "req.json"
        path.write_text(
            json.dumps(
                {
                    "campaign": "cli",
                    "scale": 0.5,
                    "stages": [
                        {
                            "experiment": MIX_REF,
                            "name": "mix",
                            "qa": [{"column": "a_value", "agg": "max", "hi": 1e9}],
                        }
                    ],
                }
            )
        )
        return str(path)

    def test_run_status_report(self, tmp_path, capsys):
        request = self._request(tmp_path)
        root = str(tmp_path / "camp")
        assert campaign_cli.main(["run", request, "--dir", root]) == 0
        out = capsys.readouterr().out
        assert "verdict PASS" in out
        assert campaign_cli.main(["status", root]) == 0
        assert "6/6 points" in capsys.readouterr().out
        assert campaign_cli.main(["report", root]) == 0
        assert os.path.exists(os.path.join(root, "report", "index.html"))

    def test_resume_after_interrupt(self, tmp_path, capsys):
        request = self._request(tmp_path)
        root = str(tmp_path / "camp")
        assert campaign_cli.main(["run", request, "--dir", root]) == 0
        capsys.readouterr()
        # Re-running via resume serves every point from the journal.
        assert campaign_cli.main(["resume", root]) == 0
        out = capsys.readouterr().out
        assert "6/6 from journal" in out

    def test_qa_gate_exit_code(self, tmp_path, capsys):
        path = tmp_path / "req.json"
        path.write_text(
            json.dumps(
                {
                    "campaign": "gate",
                    "stages": [
                        {
                            "experiment": MIX_REF,
                            "name": "mix",
                            "qa": [{"column": "a_value", "agg": "max", "hi": -1}],
                        }
                    ],
                }
            )
        )
        root = str(tmp_path / "camp")
        assert campaign_cli.main(["run", str(path), "--dir", root]) == 0
        assert (
            campaign_cli.main(["resume", root, "--qa-gate"]) == 3
        )
        assert campaign_cli.main(["status", str(tmp_path / "nope")]) == 2

    def test_qa_gate_warns_when_nothing_was_checked(self, tmp_path, capsys):
        """A campaign whose stages carry no QA checks rolls up to
        verdict ``none``: the gate still exits 0, but says on stderr
        that it gated nothing.  A campaign with a passing check does
        not warn."""
        warning = "warning: --qa-gate with no QA checks evaluated"
        for name, checks, warns in (
            ("unchecked", [], True),
            ("checked", [{"column": "a_value", "agg": "min", "lo": 0}], False),
        ):
            path = tmp_path / f"{name}.json"
            stage = {"experiment": MIX_REF, "name": "mix", "qa": checks}
            path.write_text(json.dumps({"campaign": name, "stages": [stage]}))
            root = str(tmp_path / name)
            argv = ["run", str(path), "--dir", root, "--qa-gate"]
            assert campaign_cli.main(argv) == 0
            assert (warning in capsys.readouterr().err) is warns

    def test_malformed_request_exits_2(self, tmp_path, capsys):
        for i, request in enumerate(_MALFORMED_REQUESTS):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(request))
            argv = ["run", str(path), "--dir", str(tmp_path / f"d{i}")]
            assert campaign_cli.main(argv) == 2, request
            assert capsys.readouterr().err.startswith("error: ")

    def test_non_scalar_axis_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(_NESTED_AXIS_REQUEST))
        root = tmp_path / "camp"
        assert campaign_cli.main(["run", str(path), "--dir", str(root)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not root.exists()

    def test_jobs_and_workers_are_exclusive(self, tmp_path, capsys):
        root = str(tmp_path / "camp")
        argv = ["run", self._request(tmp_path), "--dir", root]
        assert campaign_cli.main([*argv, "--jobs", "2", "--workers", "2"]) == 2
        assert "not both" in capsys.readouterr().err
        assert not os.path.exists(root)  # refused before the directory exists
        assert campaign_cli.main([*argv, "--jobs", "2"]) == 0
        meta = json.loads(Path(root, "artifacts", "mix.meta.json").read_text())
        assert meta["executor"] == "pool:2"

    @pytest.mark.smoke
    def test_sigkill_then_resume_byte_identical(self, tmp_path):
        """The real thing: SIGKILL a campaign subprocess mid-run, then
        resume and byte-compare against an uninterrupted run."""
        request = tmp_path / "req.json"
        request.write_text(
            json.dumps(
                {
                    "campaign": "kill",
                    "scale": 0.05,
                    "stages": [{"experiment": "fig10", "name": "fig10"}],
                }
            )
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        ref_dir = tmp_path / "ref"
        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments.campaign_cli",
                "run",
                str(request),
                "--dir",
                str(ref_dir),
            ],
            check=True,
            env=env,
            stdout=subprocess.DEVNULL,
        )

        kill_dir = tmp_path / "killed"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.campaign_cli",
                "run",
                str(request),
                "--dir",
                str(kill_dir),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        journal = kill_dir / "journal.jsonl"
        deadline = time.time() + 120
        while time.time() < deadline:
            if journal.exists() and len(journal.read_text().splitlines()) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()

        journaled = len(journal.read_text().splitlines())
        assert journaled >= 2

        from repro.experiments.campaign import load_campaign_dir

        campaign, context = load_campaign_dir(str(kill_dir))
        result = CampaignRunner(campaign, context=context).run()
        # Resume served exactly the journaled prefix, no more.
        assert result.stages[0].journal_hits == journaled
        assert (kill_dir / "artifacts" / "fig10.rows.json").read_bytes() == (
            ref_dir / "artifacts" / "fig10.rows.json"
        ).read_bytes()
