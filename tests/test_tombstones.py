"""The deleted-name table (``tools/tombstones.py``): the tree matches
none of its patterns, and each pattern can fail — its sample matches
it, and planting the sample in any path of its scope is caught."""

import importlib.util
import os
import re
import sys

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_spec = importlib.util.spec_from_file_location(
    "tombstones", os.path.join(_ROOT, "tools", "tombstones.py")
)
tombstones = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tombstones)

_ENTRIES = [
    pytest.param(entry, id=f"{i}-{entry.deleted_by}")
    for i, entry in enumerate(tombstones.TOMBSTONES)
]


@pytest.mark.smoke
def test_no_deleted_name_is_back(capsys):
    assert tombstones.main() == 0, capsys.readouterr().out


@pytest.mark.smoke
@pytest.mark.parametrize("entry", _ENTRIES)
def test_sample_matches_its_pattern(entry):
    assert re.search(entry.pattern, entry.sample)


@pytest.mark.smoke
@pytest.mark.parametrize("entry", _ENTRIES)
def test_planted_sample_fails_the_scan_in_every_scope_path(entry, tmp_path):
    """One file per scope path — the first the entry scans there — is
    copied with the sample appended; the scan must flag that line."""
    for path in entry.scope:
        rel = next(
            (rel for rel in tombstones.scope_files(tombstones.ROOT, (path,))
             if rel != entry.owner),
            None,
        )
        assert rel is not None, f"{path} holds no file this entry scans"
        root = tmp_path / path.replace("/", "_")
        planted = root / rel
        planted.parent.mkdir(parents=True)
        text = open(os.path.join(tombstones.ROOT, rel)).read()
        text += "" if text.endswith("\n") else "\n"
        planted.write_text(text + entry.sample + "\n")
        hits = tombstones.scan(str(root), [entry])
        assert hits == [(rel, text.count("\n") + 1, entry)], (path, rel)
