"""The reachability census tool (``tools/reach.py``): its allowlist
names only live defs and state, the census sees what a driver calls
and nothing else, and ``--state`` flags exactly the state the non-test
surface stores and never reads, or never sets.  The census over the
real drivers takes minutes and runs in the nightly CI job; ``--state
--check`` runs here."""

import ast
import importlib.util
import os

import pytest

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


# ----------------------------------------------------------------------
# --state: write-only and never-set state
# ----------------------------------------------------------------------
@pytest.mark.smoke
def test_state_census_is_empty_outside_the_allowlist(capsys):
    assert reach.main(["--state", "--check"]) == 0, capsys.readouterr().out


_MODULE = '''
from dataclasses import dataclass


@dataclass
class ProbeStats:
    kept: int = 0
    dropped: int = 0


@dataclass
class ProbeConfig:
    used: int = 1
    unset: int = 2


class Probe:
    def __init__(self, counters, cfg):
        self.counters = counters
        self.stats = ProbeStats()
        self.hits = 0
        self.used = cfg.used + cfg.unset

    def bump(self):
        self.hits += 1
        self.stats.kept += 1
        self.stats.dropped += 1
        self.counters.add("probe_events")
        self.counters.add(f"probe_cause_{self.used}")
'''

_DRIVER = '''
from repro.probe import Probe, ProbeConfig

probe = Probe({}, ProbeConfig(used=3))
print(probe.stats.kept, probe.used, probe.counters)
'''

#: What the module above stores and never reads, and the config field
#: nothing sets.
_PROBE_FINDINGS = {
    ("repro.probe:Probe.hits", "attr", "write-only"),
    ("repro.probe:ProbeStats.dropped", "field", "write-only"),
    ("repro.probe:counters.probe_events", "counter", "write-only"),
    ("repro.probe:counters.probe_cause_*", "counter", "write-only"),
    ("repro.probe:ProbeConfig.unset", "config", "never set"),
}


def _tree(root, module=_MODULE, driver=_DRIVER, allow=""):
    for rel, text in (
        ("src/repro/probe.py", module),
        ("examples/driver.py", driver),
        ("tests/test_probe.py", "probe.hits; counters.get('probe_events')\n"),
        ("tools/reach_allow.txt", allow),
    ):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


def _findings(root):
    return set(reach._Program(root).findings())


def test_state_flags_each_kind_and_ignores_test_reads(tmp_path):
    """One write-only attribute, field and counter name each (an
    f-string name by its literal head) and one never-set config field
    are flagged; the test file that reads two of them does not count."""
    assert _findings(_tree(tmp_path)) == _PROBE_FINDINGS


@pytest.mark.parametrize(
    "read, cleared",
    [
        ("getattr(probe, 'hits')", "repro.probe:Probe.hits"),
        ("hasattr(probe.stats, 'dropped')", "repro.probe:ProbeStats.dropped"),
        ("probe.stats.dropped", "repro.probe:ProbeStats.dropped"),
        ("probe.counters.get('probe_events')", "repro.probe:counters.probe_events"),
        ("probe.counters.get('probe_cause_3')", "repro.probe:counters.probe_cause_*"),
        ("ProbeConfig(unset=4)", "repro.probe:ProbeConfig.unset"),
        ("{'unset': 4}", "repro.probe:ProbeConfig.unset"),
        ("'--unset'", "repro.probe:ProbeConfig.unset"),
        ("__import__('dataclasses').asdict(probe.stats)",
         "repro.probe:ProbeStats.dropped"),
    ],
)
def test_one_read_or_set_clears_exactly_its_finding(tmp_path, read, cleared):
    root = _tree(tmp_path, driver=_DRIVER + read + "\n")
    assert _findings(root) == {f for f in _PROBE_FINDINGS if f[0] != cleared}


_SINKS = '''
class Recorder:
    def __init__(self, registry):
        self.history = []
        self.hist = registry.histogram("h")
        self.kept = []

    def record(self, value):
        self.history.append(value)
        self.hist.observe(value)
        self.kept.extend([value])
        return len(self.kept)
'''


@pytest.mark.parametrize(
    "read, flagged",
    [
        ("", {"history", "hist"}),
        ("len(recorder.history)", {"hist"}),
        ("print(recorder.hist)", {"history"}),
    ],
)
def test_an_attribute_only_added_to_is_unread(tmp_path, read, flagged):
    """An attribute loaded only as the receiver of ``add``/``append``/
    ``extend``/``inc``/``observe`` is stored and never read; one other
    load (``len(self.kept)``) reads it."""
    root = _tree(tmp_path, driver=_DRIVER + read + "\n")
    (tmp_path / "src/repro/recorder.py").write_text(_SINKS)
    assert _findings(root) - _PROBE_FINDINGS == {
        (f"repro.recorder:Recorder.{name}", "attr", "sink-only") for name in flagged
    }


def test_state_check_fails_outside_the_allowlist_and_on_a_stale_entry(
    tmp_path, capsys
):
    allow = "".join(f"{name} kept for a reason\n" for name, _k, _r in _PROBE_FINDINGS)
    root = _tree(tmp_path, allow=allow)
    assert reach.state_census(root, check=True) == 0
    # Drop one entry: its state is flagged.
    root = _tree(tmp_path, allow=allow.replace("repro.probe:Probe.hits", "#"))
    assert reach.state_census(root, check=True) == 1
    assert "WRITE-ONLY attr    repro.probe:Probe.hits" in capsys.readouterr().out
    # Read an allowlisted piece of state: its entry is stale.
    root = _tree(tmp_path, driver=_DRIVER + "probe.hits\n", allow=allow)
    assert reach.state_census(root, check=True) == 1
    assert "READ       repro.probe:Probe.hits" in capsys.readouterr().out
    assert reach.state_census(root, check=False) == 0


def test_an_allowlisted_piece_of_state_passes_the_allowlist_check():
    """``--check-allowlist`` takes state names as well as defs."""
    state = reach._Program().state_names()
    allow = reach.load_allowlist()
    assert "repro.sonuma.transfer:TransferTimings.pickup" in allow
    assert {name for name in allow if name in state}


_IMPORTS = '''"""Mentions Counter, which is not a use."""
import os.path
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING
import json  # noqa: F401

__all__ = ["OrderedDict"]

if TYPE_CHECKING:
    from decimal import Decimal


def f(x: "Decimal") -> None:
    return os.path
'''


@pytest.mark.parametrize("where", ["src/repro/probe_use.py", "tests/test_use.py",
                                   "benchmarks/bench_use.py", "src/repro/pkg/__init__.py"])
def test_an_unused_import_is_flagged_wherever_it_is(tmp_path, where):
    """A docstring mention is no use; a quoted annotation, an
    ``__all__`` entry and a ``noqa: F401`` line are; a package's
    ``__init__.py`` re-exports."""
    root = _tree(tmp_path)
    (tmp_path / where).parent.mkdir(parents=True, exist_ok=True)
    (tmp_path / where).write_text(_IMPORTS)
    unused = _findings(root) - _PROBE_FINDINGS
    if where.endswith("__init__.py"):
        assert unused == set()
    else:
        assert unused == {(f"{where}:Counter", "import", "unused")}
