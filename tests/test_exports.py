"""Every name a ``repro`` package exports resolves: ``__all__`` lists
nothing that was deleted or renamed."""

import importlib
import pkgutil

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
