"""Every console script ``setup.py`` declares must resolve to an
importable callable that answers ``--help``; a script left pointing at
a deleted module otherwise fails only after ``pip install``."""

import ast
import importlib
import os

import pytest

_SETUP_PY = os.path.join(os.path.dirname(__file__), "..", "setup.py")


def console_scripts():
    """The ``name=module:attr`` strings under ``console_scripts``."""
    with open(_SETUP_PY) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if getattr(key, "value", None) == "console_scripts":
                    return ast.literal_eval(value)
    raise AssertionError("setup.py declares no console_scripts")


@pytest.mark.parametrize("script", console_scripts())
def test_console_script_imports_and_prints_help(script, capsys):
    _name, target = script.split("=")
    module, attr = target.split(":")
    main = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out
