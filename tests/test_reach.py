"""The reachability census tool (``tools/reach.py``): its allowlist
names only live defs, and the census sees what a driver calls and
nothing else.  The census over the real drivers takes minutes and runs
in the nightly CI job."""

import importlib.util
import os

_TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "reach.py")
_spec = importlib.util.spec_from_file_location("reach_tool", _TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_every_allowlisted_name_is_a_def_with_a_reason(capsys):
    assert reach.main(["--check-allowlist"]) == 0, capsys.readouterr().out


def test_a_decorated_def_is_keyed_by_its_first_decorator():
    """A code object's first line is its first decorator's, so that is
    the line the census matches on."""
    by_name = {name: key for key, (name, _lines) in reach.all_defs().items()}
    path, line = by_name["repro.sim.engine:Simulator.now"]
    with open(path) as fh:
        assert fh.read().splitlines()[line - 1].strip() == "@property"


def test_census_sees_exactly_what_a_driver_calls(tmp_path):
    script = tmp_path / "driver.py"
    script.write_text(
        "from repro.common.units import blocks_in\n"
        "assert blocks_in(65) == 2\n"
    )
    reached, failures = reach.census(1, [("tiny", [str(script)])])
    assert failures == []
    names = {
        name for key, (name, _lines) in reach.all_defs().items() if key in reached
    }
    assert "repro.common.units:blocks_in" in names
    assert "repro.common.units:gbps_to_bytes_per_ns" not in names


def test_a_failing_driver_is_reported(tmp_path):
    script = tmp_path / "driver.py"
    script.write_text("raise SystemExit(5)\n")
    _reached, failures = reach.census(1, [("broken", [str(script)])])
    assert len(failures) == 1 and failures[0].startswith("broken exited 5")
