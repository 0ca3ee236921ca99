"""Smoke tests: every figure/table harness runs end to end at a small
scale and reproduces the paper's qualitative claims."""

import pytest

from repro.common import scaled_duration
from repro.experiments import registry, run_sweep
from repro.experiments.runner import format_table
from repro.harness.cli import main
from repro.harness.tables import table1, table2_rows

SCALE = 0.25  # small measurement windows: fast but still meaningful
SIZES = (128, 1024, 4096)


def sweep_rows(name, axes, **overrides):
    """Rows of registered spec ``name`` over ``axes`` at ``SCALE``."""
    spec = registry.get(name)
    return run_sweep(spec, scale=SCALE, axes=axes, overrides=overrides).rows


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(
            ["a", "bb"], [{"a": 1, "bb": 2.5}, {"a": 10, "bb": 0.25}]
        )
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("bb")
        assert "2.50" in lines[2]

    def test_missing_cells_render_empty(self):
        out = format_table(["a", "b"], [{"a": 1}])
        assert out.splitlines()[2].strip().startswith("1")

    def test_scaled_duration_floor(self):
        assert scaled_duration(100_000, 0.0001) == 30_000.0
        assert scaled_duration(100_000, 2.0) == 200_000.0


class TestTables:
    def test_table1_matches_paper(self):
        out = table1()
        assert "DrTM" in out and "SABRes" in out

    def test_table2_lists_all_components(self):
        headers, rows = table2_rows()
        components = {r["component"] for r in rows}
        assert {
            "Cores",
            "L1 Caches",
            "LLC",
            "Coherence",
            "Memory",
            "Interconnect",
            "RMC",
            "LightSABRes",
            "Network",
        } <= components
        sram = next(r for r in rows if r["component"] == "LightSABRes")
        assert "560 B SRAM" in sram["parameters"]


class TestFig1:
    def test_stripping_share_grows_with_size(self):
        rows = sweep_rows("fig1", {"object_size": SIZES})
        shares = [r["stripping_share"] for r in rows]
        assert shares == sorted(shares)
        assert shares[0] < 0.25
        assert shares[-1] > 0.35

    def test_transfer_scales_sublinearly(self):
        rows = sweep_rows("fig1", {"object_size": (128, 4096)})
        ratio = rows[1]["transfer_ns"] / rows[0]["transfer_ns"]
        assert ratio < 32  # 32x the bytes in far less than 32x the time


class TestFig7:
    def test_fig7a_claims(self):
        rows = sweep_rows("fig7a", {"object_size": (64, 1024, 8192)})
        single = rows[0]
        # Single-block: all three variants equal (within noise).
        assert single["sabre_ns"] == pytest.approx(
            single["remote_read_ns"], rel=0.10
        )
        assert single["sabre_no_spec_ns"] == pytest.approx(
            single["remote_read_ns"], rel=0.10
        )
        for row in rows[1:]:
            # No-speculation pays the serialized version read.
            assert row["sabre_no_spec_ns"] > row["sabre_ns"] + 40.0
            # LightSABRes stay close to raw remote reads.
            assert row["sabre_ns"] <= 1.20 * row["remote_read_ns"]

    def test_fig7b_identical_curves(self):
        rows = sweep_rows("fig7b", {"object_size": (512, 8192)})
        for row in rows:
            assert row["sabre_gbps"] == pytest.approx(
                row["remote_read_gbps"], rel=0.15
            )
        # Throughput grows with object size toward the fabric limit.
        assert rows[1]["sabre_gbps"] > rows[0]["sabre_gbps"]
        assert rows[1]["sabre_gbps"] <= 100.0


class TestFig8:
    def test_sabre_always_ahead_and_gap_grows_with_size(self):
        rows = sweep_rows(
            "fig8", {"object_size": (128, 8192), "writers": (0, 8)}
        )
        by_key = {(r["object_size"], r["writers"]): r for r in rows}
        for row in rows:
            assert row["sabre_advantage"] > 0
        assert (
            by_key[(8192, 0)]["sabre_advantage"]
            > by_key[(128, 0)]["sabre_advantage"]
        )

    def test_throughput_degrades_with_writers(self):
        rows = sweep_rows(
            "fig8", {"object_size": (1024,), "writers": (0, 16)}
        )
        assert rows[1]["sabre_gbps"] < rows[0]["sabre_gbps"]
        assert rows[1]["percl_gbps"] < rows[0]["percl_gbps"]
        assert rows[1]["sabre_aborts"] > 0
        assert rows[1]["percl_conflicts"] > 0


class TestFig9:
    def test_fig9a_improvement_band(self):
        rows = sweep_rows("fig9a", {"object_size": (128, 8192)})
        by = {(r["object_size"], r["build"]): r for r in rows}
        small = by[(128, "percl")]["total_ns"] / by[(128, "sabre")]["total_ns"]
        large = by[(8192, "percl")]["total_ns"] / by[(8192, "sabre")]["total_ns"]
        assert 1.15 <= small <= 1.6  # paper: 1.35
        assert 1.3 <= large <= 1.8  # paper: 1.52
        assert by[(8192, "sabre")]["stripping_ns"] == 0.0

    def test_fig9b_improvement_in_paper_band(self):
        rows = sweep_rows("fig9b", {"object_size": (1024,)}, readers=4)
        assert 0.15 <= rows[0]["improvement"] <= 0.9  # paper: 0.30-0.60


class TestFig10:
    def test_speedup_band(self):
        rows = sweep_rows("fig10", {"object_size": (128, 8192)})
        assert 1.05 <= rows[0]["speedup"] <= 1.5  # paper: 1.2
        assert 1.6 <= rows[1]["speedup"] <= 2.6  # paper: 2.1


class TestCli:
    def test_run_experiment_table(self):
        assert "SABRes" in run_sweep(registry.get("table1")).table()
        assert "DDR4" in run_sweep(registry.get("table2")).table()

    def test_cli_main_runs_figure(self, capsys):
        assert main(["fig10", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "speedup" in out

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_parse_axes_and_overrides(self):
        from repro.common.errors import ConfigError
        from repro.harness.cli import parse_axes, parse_overrides

        assert parse_axes(["object_size=64,512"]) == {"object_size": (64, 512)}
        assert parse_axes([]) is None
        assert parse_overrides(["seed=7", "mode='fast'"]) == {
            "seed": 7,
            "mode": "fast",
        }
        assert parse_overrides([]) is None
        with pytest.raises(ConfigError):
            parse_axes(["missing_equals"])
        with pytest.raises(ConfigError):
            parse_overrides(["alsobad"])

    def test_cli_axes_overrides_base_seed(self, capsys):
        assert (
            main(
                [
                    "fig10",
                    "--scale",
                    "0.2",
                    "--axes",
                    "object_size=128,512",
                    "--overrides",
                    "seed=9",
                    "--base-seed",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()[:1].isdigit()]
        assert len(lines) == 2  # only the two requested sizes

    def test_cli_bad_axis_exits_2(self, capsys):
        assert main(["fig10", "--axes", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_campaign_dir_resumes(self, tmp_path, capsys):
        root = str(tmp_path / "camp")
        argv = ["fig10", "--scale", "0.2", "--campaign-dir", root]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0/" in first  # nothing journaled yet
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "points cached" in second
        # Every point served from the journal on the second run.
        import re

        match = re.search(r"(\d+)/(\d+) points cached", second)
        assert match and match.group(1) == match.group(2)
