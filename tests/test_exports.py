"""Every name a ``repro`` package exports resolves: ``__all__`` lists
nothing that was deleted or renamed."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []


def test_serve_cli_imports_only_the_serving_stack():
    """``repro``'s exports are imported on first use, so the server's
    entry point loads no harness, experiment, workload or load
    generator module."""
    script = (
        "import sys, repro.serve.cli;"
        "print(' '.join(m for m in sys.modules if m.startswith('repro.')))"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "repro.serve.bridge" in loaded
    off_stack = ("harness", "experiments", "workloads", "loadgen")
    assert [m for m in loaded if m.split(".")[1] in off_stack] == []
