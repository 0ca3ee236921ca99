"""The docs checker (``tools/check_links.py``): the live docs link and
name only what exists, and a moved path or module is caught."""

import importlib.util
import os

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_spec = importlib.util.spec_from_file_location(
    "check_links", os.path.join(_ROOT, "tools", "check_links.py")
)
check_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_links)


def test_live_docs_name_only_what_exists(capsys):
    assert check_links.main([_ROOT]) == 0, capsys.readouterr().out


@pytest.mark.parametrize(
    "span, broken",
    [
        ("src/repro/pkg/mod.py", False),
        ("src/repro/pkg/mod.py:3-9", False),
        ("pkg/mod.py::Thing", False),
        ("pkg/mod.py::Thing::test_x[a-b]", False),
        ("repro.pkg.mod.Thing", False),
        ("repro.pkg", False),
        ("src/repro/*.py", False),
        ("src/<name>.py", False),
        ("rows.json", False),
        ("runs/out/rows.json", False),
        ("runs/rows.json", True),
        ("src/repro/pkg/gone.py", True),
        ("pkg/gone.py:12", True),
        ("pkg/mod.py::Gone", True),
        ("repro.pkg.gone", True),
        ("repro.pkg.mod.Gone", True),
    ],
)
@pytest.mark.parametrize("doc", ["README.md", "docs/guide.md", "ROADMAP.md"])
def test_a_backticked_path_or_module_must_exist(tmp_path, span, broken, doc):
    """History files (ROADMAP.md and the like) are not checked, nor are
    the outputs ``.gitignore`` lists."""
    (tmp_path / ".gitignore").write_text("# outputs\nruns/out/\n*.pyc\n")
    (tmp_path / "runs").mkdir()
    (tmp_path / "src" / "repro" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "pkg" / "__init__.py").write_text("")
    (tmp_path / "src" / "repro" / "pkg" / "mod.py").write_text("class Thing:\n    pass\n")
    (tmp_path / doc).parent.mkdir(exist_ok=True)
    (tmp_path / doc).write_text(f"See `{span}`.\n")
    expected = 1 if broken and doc != "ROADMAP.md" else 0
    assert check_links.main([str(tmp_path)]) == expected
