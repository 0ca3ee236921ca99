#!/usr/bin/env python3
"""Fail on broken intra-repo markdown and HTML links.

Scans every ``*.md`` file in the repository for inline links and
images (``[text](target)`` / ``![alt](target)``) and every ``*.html``
file for ``href``/``src`` attributes, skips external targets
(``http(s)://``, ``mailto:``) and pure in-page anchors (``#...``),
and verifies that every remaining target resolves to an existing file
or directory relative to the source file (or to the scan root for
absolute ``/``-prefixed targets).  Anchors on file targets
(``foo.md#section``) are checked for file existence only.

In a live markdown file, a backticked repo path (``src/...``, or one
under ``src/repro``; a ``:N``/``:a-b`` suffix dropped) and a
``repro.x.y`` module must exist, and a trailing ``::Name``/``.Name``
occur in the source.  Globs, ``<placeholders>`` and ``.gitignore``
paths are skipped.

Usage::

    python tools/check_links.py [root]

Exits 1 listing every broken link, 0 when the docs are sound.  Run by
tier-1 (``tests/test_docs.py``) so documentation cannot rot silently,
and by the campaign smoke job against rendered ``repro-campaign`` HTML
reports.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown link/image: capture the (non-empty) target.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: HTML link/asset attribute: capture the quoted target.
HTML_RE = re.compile(r"""(?:href|src)\s*=\s*["']([^"']+)["']""")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules"}
#: Reference dumps quoting external repos/papers verbatim: links in
#: quoted material point into *those* trees, not this one.
SKIP_FILES = {"SNIPPETS.md", "PAPERS.md"}
#: The root's live docs.  Its others (the change log, the roadmap) and
#: docs/performance.md record what was: their code spans go unchecked.
LIVE_ROOT_DOCS = {"README.md", "PAPER.md"}
#: A backticked span with no space in it, less a ``:N``/``:a-b`` suffix.
CODE_RE = re.compile(r"`([^`\s]+?)(?::\d+(?:-\d+)?)?`")


def iter_sources(root: Path):
    for pattern in ("*.md", "*.html"):
        for path in sorted(root.rglob(pattern)):
            if path.name in SKIP_FILES and path.parent == root:
                continue
            if not SKIP_DIRS.intersection(part for part in path.parts):
                yield path


def _generated(root: Path) -> tuple:
    """The plain paths ``.gitignore`` lists: outputs a checkout lacks."""
    ignore = root / ".gitignore"
    lines = ignore.read_text().splitlines() if ignore.is_file() else []
    return tuple(line for line in lines if line and not any(c in line for c in "#*?[! "))


def code_span_broken(root: Path, span: str, generated: tuple) -> bool:
    """Whether a backticked repo path (``path[::Name]``) or ``repro.*``
    name in ``span`` names nothing; any other span, or one under a
    ``generated`` path, is not checked."""
    package = root / "src" / "repro"
    if (not package.is_dir() or any(c in span for c in "*?<>{}")
            or span.startswith(generated)):
        return False
    if re.fullmatch(r"repro(\.\w+)+", span):
        names, path = span.split("."), root / "src"
        while names and (path / names[0]).is_dir():
            path = path / names.pop(0)
        module = bool(names) and (path / (names[0] + ".py")).is_file()
        path = path / (names.pop(0) + ".py") if module else path / "__init__.py"
    else:
        rel, _, name = span.partition("::")
        head = rel.split("/")[0]
        base = next((b for b in (root, package) if head and (b / head).exists()), None)
        if "/" not in rel or base is None:
            return False
        path, names = base / rel, [name.split("::")[0].split("[")[0]] if name else []
    if not path.exists():
        return True
    return bool(names) and not re.search(rf"\b{re.escape(names[0])}\b", path.read_text())


def check_file(root: Path, md: Path) -> list:
    broken = []
    pattern = HTML_RE if md.suffix == ".html" else LINK_RE
    rel = md.relative_to(root)
    live = md.suffix == ".md" and (rel.name in LIVE_ROOT_DOCS if len(rel.parts) == 1
                                   else rel.as_posix() != "docs/performance.md")
    generated = _generated(root)
    for lineno, line in enumerate(md.read_text().splitlines(), start=1):
        if live:
            broken.extend(
                (rel, lineno, span)
                for span in CODE_RE.findall(line)
                if code_span_broken(root, span, generated)
            )
        for match in pattern.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            if path_part.startswith("/"):
                resolved = root / path_part.lstrip("/")
            else:
                resolved = md.parent / path_part
            if not resolved.exists():
                broken.append((md.relative_to(root), lineno, target))
    return broken


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parents[1]
    broken = []
    checked = 0
    for md in iter_sources(root):
        checked += 1
        broken.extend(check_file(root, md))
    if broken:
        print(f"{len(broken)} broken intra-repo link(s) or path(s):")
        for path, lineno, target in broken:
            print(f"  {path}:{lineno}: {target}")
        return 1
    print(f"ok: {checked} markdown/html files, no broken intra-repo links or paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
