"""Packages are layers: every import between ``src/repro`` packages
points down one declared order.

The checker ``ast``-walks every module, so an import inside a function
or under ``if TYPE_CHECKING:`` is an edge like any other: a late import
cannot hide a cycle.  Edges that all point down a total order leave no
package cycle.

The framework's plugin seam is not an ``ast`` edge and is not checked:
``experiments.registry`` is the one module that loads specs by name —
``load_builtin`` imports the spec-defining modules (``_BUILTIN_MODULES``)
and ``resolve_spec`` a ``module:attr`` spec reference.  Upper layers
register specs into the framework that way; the framework never names
them in an import statement.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Bottom first.  A package may import only packages before it; the
#: root ``repro/__init__.py`` is the facade above them all.
ORDER = (
    "common",
    "sim",
    "noc",
    "mem",
    "fabric",
    "atomicity",
    "core",
    "sonuma",
    "objstore",
    "faults",
    "experiments",
    "workloads",
    "harness",
    "serve",
    "loadgen",
)


def packages(root):
    """Every package (and top-level module) directly under ``root``."""
    found = {p.name for p in root.iterdir() if (p / "__init__.py").is_file()}
    found |= {p.stem for p in root.glob("*.py") if p.name != "__init__.py"}
    return found


def unplaced(root, order=ORDER):
    return sorted(packages(root) - set(order))


def _targets(node, package_parts):
    """The ``repro`` packages one import statement names ("" for the
    facade itself)."""
    if isinstance(node, ast.Import):
        dotted = [alias.name.split(".") for alias in node.names]
    else:
        base = []
        if node.level:
            base = package_parts[: len(package_parts) - node.level + 1]
        if node.module:
            base = base + node.module.split(".")
        if len(base) > 1:
            dotted = [base]
        else:  # ``from repro import x``: x may be a package or a name
            dotted = [base + [alias.name] for alias in node.names]
    return [d[1] if len(d) > 1 else "" for d in dotted if d[0] == "repro"]


def upward_imports(root, order=ORDER):
    """``file:line: here -> there`` for every import that does not
    point down ``order``, wherever in the module it sits."""
    rank = {name: i for i, name in enumerate(order)}
    placed = set(order)
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel == Path("__init__.py"):
            continue  # the facade sits on top
        here = rel.parts[0] if len(rel.parts) > 1 else rel.stem
        if here not in rank:
            continue  # reported by unplaced()
        # The package a relative import starts from (``__init__`` is
        # the last part for a package's own module).
        package_parts = ["repro", *rel.with_suffix("").parts][:-1]
        tree = ast.parse(path.read_text(), filename=str(path))
        imports = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        for node in sorted(imports, key=lambda node: node.lineno):
            for there in _targets(node, package_parts):
                if there == here or (there and there not in placed):
                    continue
                if not there or rank[there] > rank[here]:
                    found.append(
                        f"{rel.as_posix()}:{node.lineno}: "
                        f"{here} -> {there or 'repro'}"
                    )
    return found


def test_every_package_is_placed_in_the_order():
    assert unplaced(SRC) == []


def test_every_import_points_down_the_order():
    found = upward_imports(SRC)
    assert found == [], "upward imports:\n" + "\n".join(found)


def _write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_the_checker_sees_every_kind_of_upward_import(tmp_path):
    root = tmp_path / "repro"
    for package in ("low", "high", "stray"):
        _write(root, f"{package}/__init__.py", "")
    _write(root, "__init__.py", "from repro.high import top\n")
    _write(
        root,
        "low/mod.py",
        "from typing import TYPE_CHECKING\n"
        "from repro.high.top import thing\n"
        "from repro.low import sibling\n"
        "def late():\n"
        "    from repro.high import top\n"
        "if TYPE_CHECKING:\n"
        "    import repro.high.top\n"
        "from ..high import top as relative\n",
    )
    _write(root, "high/top.py", "from ..low.mod import late\nthing = 1\n")
    order = ("low", "high")
    assert upward_imports(root, order) == [
        "low/mod.py:2: low -> high",
        "low/mod.py:5: low -> high",
        "low/mod.py:7: low -> high",
        "low/mod.py:8: low -> high",
    ]
    assert unplaced(root, order) == ["stray"]
