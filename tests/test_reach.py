"""The reachability census tool (``tools/reach.py``): its allowlist
names only live defs, and the census sees what a driver calls and
nothing else.  The census over the real drivers takes minutes and runs
in the nightly CI job."""

import ast
import importlib.util
import os

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_TOOL = os.path.join(_ROOT, "tools", "reach.py")
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
    reached, failures = reach.census(1, [("tiny", [str(script)], {})])
    assert failures == []
    names = {
        name for key, (name, _lines) in reach.all_defs().items() if key in reached
    }
    assert "repro.common.units:blocks_in" in names
    assert "repro.common.units:gbps_to_bytes_per_ns" not in names


def test_a_failing_driver_is_reported(tmp_path):
    script = tmp_path / "driver.py"
    script.write_text("raise SystemExit(5)\n")
    _reached, failures = reach.census(1, [("broken", [str(script)], {})])
    assert len(failures) == 1 and failures[0].startswith("broken exited 5")


def _console_scripts():
    """``name=module:func`` from setup.py's ``console_scripts``."""
    with open(os.path.join(_ROOT, "setup.py")) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "console_scripts":
                    return [ast.literal_eval(v) for v in value.elts]
    raise AssertionError("setup.py names no console_scripts")


def test_every_entry_point_and_example_is_a_driver():
    """A new console script or example cannot escape the census: each
    is named by a driver's label or run by its argv."""
    drivers = reach.drivers()
    words = [label.split() + argv for label, argv, _env in drivers]
    scripts = _console_scripts()
    assert scripts
    for entry in scripts:
        name, _, target = entry.partition("=")
        module = target.split(":")[0]
        assert any(name in w or module in w for w in words), entry
    examples = os.path.join(_ROOT, "examples")
    run = {os.path.realpath(arg) for w in words for arg in w if arg.endswith(".py")}
    for example in os.listdir(examples):
        if example.endswith(".py"):
            assert os.path.realpath(os.path.join(examples, example)) in run, example


def test_a_traced_subprocess_reports_into_the_drivers_census(tmp_path):
    """``{out}`` in a driver's argv names the file its subprocesses
    trace into, as the campaign driver's ``--worker-command`` does."""
    script = tmp_path / "driver.py"
    script.write_text(
        "import subprocess, sys\n"
        f"tool = {_TOOL!r}\n"
        "inner = 'from repro.common.units import blocks_in; blocks_in(1)'\n"
        "with open(sys.argv[2] + '.py', 'w') as fh:\n"
        "    fh.write(inner)\n"
        "sys.exit(subprocess.call([sys.executable, tool, '--child', sys.argv[1],\n"
        "                          '--', sys.argv[2] + '.py']))\n"
    )
    reached, failures = reach.census(
        1, [("nested", [str(script), reach.SUB_OUT, str(tmp_path / "inner")], {})]
    )
    assert failures == []
    names = {
        name for key, (name, _lines) in reach.all_defs().items() if key in reached
    }
    assert "repro.common.units:blocks_in" in names
