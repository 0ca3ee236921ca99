#!/usr/bin/env python3
"""Reachability census: which ``def``s in ``src/repro`` does the
non-test surface ever call?

Every driver of that surface runs in its own interpreter under a
call-only trace hook (``sys.settrace`` returning no local tracer, so
one callback per function entry and none per line), which records
every code object entered.  The union is diffed against every ``def``
in ``src/repro`` as ``ast`` lists it.  A ``def`` nothing calls is
either dead, or reached only by unit tests, which stay green whatever
the simulator does; ``tools/reach_allow.txt`` names the few that are
kept anyway, one reason each.

The drivers, one per non-test entry point (``tests/test_reach.py``
holds every console script and example to this list):

* ``tools/golden.py --check`` — every golden spec, fuzz lane and the
  replay, seed 1;
* ``SABRES_BENCH_SCALE=0.25 pytest benchmarks`` — the paper's tables
  and figures;
* every ``examples/*.py``;
* ``repro-harness list``, ``table1``, ``table2`` and one sweep with
  ``--axes`` and ``--overrides``;
* ``repro-campaign`` run serially and with ``--jobs 2``, then
  ``status``, ``resume`` and ``report`` (``tools/reach_drivers.py
  campaign``; forked pool workers are not traced);
* ``repro-serve`` with ``repro-load --url`` against it, a malformed
  request, a ``/metrics`` scrape and the SIGTERM drain, then
  ``repro-load --replay`` and ``--sweep``
  (``tools/reach_drivers.py serve``);
* ``bench/run.py --smoke --workload W`` for every workload.

The trace hook is not ``cProfile`` because ``bench/run.py`` profiles
its own cycles with ``cProfile`` and Python has one profile hook.

``--state`` is the census's static half: a pure-``ast`` pass (no
driver runs) over state rather than defs.  Only ``src/``, ``tools/``,
``bench/`` and ``examples/`` read or set; ``tests/`` do neither.  It
lists

* *write-only* state, stored and never read:
  - a ``self.<attr>`` stored in ``src/repro`` that nothing loads by
    name (``getattr``/``hasattr`` with a string literal loads), or
    loads only to call ``add``/``append``/``extend``/``inc``/
    ``observe`` on it (*sink-only*: values go in, none come out);
  - a field of a ``src/repro`` dataclass (a ``*Config`` one too) that
    nothing loads by name, unless its class is passed whole to
    ``asdict``/``fields``/``vars``;
  - a ``counters.add("<name>")`` name no ``.get("<name>")`` literal
    reads (an f-string name such as ``abort_{cause}`` matches by its
    literal head);
* *never-set* config: a field of a ``*Config``/``*Settings`` dataclass
  outside ``common/config.py`` and ``common/costs.py`` (Table 2 and
  the cost model, settable or not) that no keyword to the class, a
  subclass or ``replace``, no string literal (spec axis or default,
  campaign request, CLI flag) and no attribute store sets: such a
  knob is a constant;
* *unused* imports in those and ``tests/``/``benchmarks/``: a name
  used only in a string (a docstring) is unused, one in a quoted
  annotation or ``__all__`` is not; an ``__init__.py`` or a ``# noqa:
  F401`` line re-exports, and the allowlist names no import.

Usage::

    python tools/reach.py                   # list every unreached def
    python tools/reach.py --check --jobs 2
        # exit 1 on an unreached def outside the allowlist, or an
        # allowlisted def the census reached; exit 2 if a driver
        # failed (~4 min on 2 CPUs: the nightly job)
    python tools/reach.py --check-allowlist
        # exit 1 if an allowlisted name is no longer a def or a piece
        # of state, or has no reason (about a second: tier-1)
    python tools/reach.py --state [--check]
        # list write-only and never-set state; with --check, exit 1 on
        # one outside the allowlist, or an allowlisted one now read or
        # set (about a second: tier-1)
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
ALLOW_PATH = os.path.join(ROOT, "tools", "reach_allow.txt")
COMPOSITE = os.path.join(ROOT, "tools", "reach_drivers.py")

BENCH_WORKLOADS = ("paper_figs", "kv_mixed", "chaos_elastic", "serve_http")

#: ``(label, argv, env)``: ``argv`` runs as ``python argv`` with ``env``
#: layered over this process's environment.
Driver = Tuple[str, List[str], Dict[str, str]]

#: (path, first line) -> (qualified name, lines): the first line is the
#: first decorator's, as it is a code object's ``co_firstlineno``.
Defs = Dict[Tuple[str, int], Tuple[str, int]]


def drivers() -> List[Driver]:
    """Every driver, the long ones first so ``--jobs`` workers finish
    together."""
    out: List[Driver] = [
        ("golden", [os.path.join(ROOT, "tools", "golden.py"), "--check"], {}),
        ("benchmarks", ["-m", "pytest", os.path.join(ROOT, "benchmarks"), "-q",
                        "-p", "no:cacheprovider"],
         {"SABRES_BENCH_SCALE": "0.25"}),
    ]
    for workload in BENCH_WORKLOADS:
        out.append((
            f"bench {workload}",
            [os.path.join(ROOT, "bench", "run.py"), "--smoke", "--workload", workload],
            {},
        ))
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            out.append((f"examples/{name}", [os.path.join(examples, name)], {}))
    out += [
        ("repro-campaign run/status/resume/report",
         [COMPOSITE, "campaign"], {}),
        ("repro-serve + repro-load", [COMPOSITE, "serve"], {}),
    ]
    for command in ("list", "table1", "table2"):
        out.append((f"harness {command}", ["-m", "repro.harness.cli", command], {}))
    out.append((
        "harness fig10 --axes --overrides",
        ["-m", "repro.harness.cli", "fig10", "--scale", "0.05",
         "--axes", "object_size=128,1024", "--overrides", "seed=3"],
        {},
    ))
    return out


# ----------------------------------------------------------------------
# the defs
# ----------------------------------------------------------------------
def module_name(path: str, src: str = SRC) -> str:
    rel = os.path.relpath(path, src)[: -len(".py")].replace(os.sep, ".")
    return rel[: -len(".__init__")] if rel.endswith(".__init__") else rel


def all_defs() -> Defs:
    defs: Defs = {}
    for dirpath, _dirs, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            _collect(tree, path, f"{module_name(path)}:", defs)
    return defs


def _collect(node: ast.AST, path: str, prefix: str, defs: Defs) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _collect(child, path, f"{prefix}{child.name}.", defs)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            defs[(path, first)] = (
                prefix + child.name, child.end_lineno - first + 1
            )
            _collect(child, path, f"{prefix}{child.name}.<locals>.", defs)
        else:
            _collect(child, path, prefix, defs)


def load_allowlist(path: str = ALLOW_PATH) -> Dict[str, str]:
    """Allowlisted name -> its reason (empty if the line gives none)."""
    allow: Dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, reason = line.partition(" ")
            if name in allow:
                raise SystemExit(f"reach_allow.txt: {name} listed twice")
            allow[name] = reason.strip()
    return allow


# ----------------------------------------------------------------------
# the census
# ----------------------------------------------------------------------
def _traced_child(out_path: str, argv: List[str]) -> int:
    """Run ``argv`` as ``python argv`` would, under the call hook, and
    write what it entered under ``src/repro`` to ``out_path``."""
    import threading

    seen: Set = set()

    def hook(frame, event, arg):
        seen.add(frame.f_code)

    if argv[0] == "-m":
        sys.argv = [argv[1]] + argv[2:]
        run = lambda: runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(argv)
        sys.path.insert(0, os.path.dirname(argv[0]))
        run = lambda: runpy.run_path(argv[0], run_name="__main__")
    code = 0
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        run()
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else (stop.code is not None)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        prefix = PACKAGE + os.sep
        entered = {
            (c.co_filename, c.co_firstlineno)
            for c in seen if c.co_filename.startswith(prefix)
        }
        with open(out_path, "w") as fh:
            json.dump(sorted(entered), fh)
    return code


def _load_pairs(path: str) -> Set[Tuple[str, int]]:
    if not os.path.exists(path):
        return set()
    with open(path) as fh:
        return {tuple(pair) for pair in json.load(fh)}


def census(
    jobs: int, runs: Sequence[Driver]
) -> Tuple[Set[Tuple[str, int]], List[str]]:
    """Every ``(path, first line)`` the drivers ``runs`` entered, and
    the drivers that failed."""
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = SRC + os.pathsep + base_env.get("PYTHONPATH", "")
    reached: Set[Tuple[str, int]] = set()
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:

        def one(k_driver):
            k, (label, argv, env) = k_driver
            out = os.path.join(tmp, f"{k}.json")
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", out, "--", *argv],
                cwd=tmp, env={**base_env, **env}, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            print(f"  {label}: exit {done.returncode}", file=sys.stderr, flush=True)
            # golden.py exits 3 when this libm differs from the hashes'.
            ok = done.returncode == 0 or (label == "golden" and done.returncode == 3)
            if not ok:
                failures.append(f"{label} exited {done.returncode}:\n{done.stderr[-2000:]}")
            return _load_pairs(out)

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for pairs in pool.map(one, enumerate(runs)):
                reached.update(pairs)
    return reached, failures


# ----------------------------------------------------------------------
# the state census (--state)
# ----------------------------------------------------------------------
#: Where a read or a set counts: never ``tests/``, whose reads stay
#: green whatever the simulator does.
READER_DIRS = ("src", "tools", "bench", "examples")
#: Where only the unused-import check looks.
IMPORT_ONLY_DIRS = ("tests", "benchmarks")

#: Table 2's system description and the software cost model: every
#: field is a paper or calibration parameter, settable or not.
NEVER_SET_EXEMPT = ("repro.common.config", "repro.common.costs")

WHOLE_READS = ("asdict", "fields", "vars")

#: Methods that only take values in: ``x.attr.add(v)`` stores into
#: ``attr`` rather than reading it.
SINKS = ("add", "append", "extend", "inc", "observe")

#: One piece of state: (name, kind, rule).  ``kind`` is ``attr``,
#: ``field``, ``counter`` or ``config``; ``rule`` is ``write-only``,
#: ``sink-only`` or ``never set``.
Finding = Tuple[str, str, str]


def _name_of(node: ast.AST) -> str:
    """The last name of a ``Name`` or dotted ``Attribute``, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _str_or_prefix(node: ast.AST) -> Tuple[str, bool]:
    """A string literal as ``(text, False)``; an f-string as its
    literal head and ``True``; anything else as ``('', False)``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    if isinstance(node, ast.JoinedStr):
        head = ""
        for part in node.values:
            if not (isinstance(part, ast.Constant) and isinstance(part.value, str)):
                break
            head += part.value
        return head, True
    return "", False


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if _name_of(target) == "dataclass":
            return True
    return False


def _own_fields(cls: ast.ClassDef) -> List[str]:
    return [
        stmt.target.id for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and "ClassVar" not in ast.unparse(stmt.annotation)
    ]


def _scoped(tree: ast.AST):
    """Every node with the name of the class whose body (methods and
    their closures included) it sits in, '' at module level."""
    todo = [(tree, "")]
    while todo:
        node, owner = todo.pop()
        yield node, owner
        inner = node.name if isinstance(node, ast.ClassDef) else owner
        todo.extend((child, inner) for child in ast.iter_child_nodes(node))


class _Program:
    """What ``src/repro`` stores, and what the non-test surface reads
    and sets, by name."""

    def __init__(self, root: str = ROOT):
        self.classes: Dict[str, Tuple[str, ast.ClassDef]] = {}  # name -> (module, node)
        self.attrs: Set[Tuple[str, str, str]] = set()  # (module, class, attr)
        self.counters: Dict[Tuple[str, bool], str] = {}  # (name, is_prefix) -> module
        self.loads: Set[str] = set()
        self.sinks: Set[str] = set()  # loaded as a SINKS call's receiver
        self.gets: Set[Tuple[str, bool]] = set()
        self.strings: Set[str] = set()
        self.stores: Set[str] = set()
        self.kwargs: Dict[str, Set[str]] = {}  # callee name -> keywords
        self.typed: Dict[str, Set[str]] = {}  # attribute name -> names in its values
        self.whole: List[Tuple[str, ast.AST]] = []  # (owner class, argument)
        self.unused_imports: List[str] = []  # "<file>:<name>"
        package = os.path.join(root, "src", "repro")
        for top in READER_DIRS + IMPORT_ONLY_DIRS:
            for dirpath, dirs, files in os.walk(os.path.join(root, top)):
                dirs[:] = sorted(d for d in dirs if not d.startswith((".", "_")))
                for name in sorted(files):
                    if not name.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, name)
                    with open(path) as fh:
                        source = fh.read()
                    tree = ast.parse(source, path)
                    if name != "__init__.py":
                        self._check_imports(tree, source.splitlines(),
                                            os.path.relpath(path, root))
                    if top in IMPORT_ONLY_DIRS or name.startswith("test_"):
                        continue
                    nodes = list(_scoped(tree))
                    if path.startswith(package + os.sep):
                        self._define(nodes, module_name(path, os.path.join(root, "src")))
                    self._use(nodes)

    def _define(self, nodes, module: str) -> None:
        for node, owner in nodes:
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = (module, node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and owner:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for sub in ast.walk(target):
                        if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                                and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                            self.attrs.add((module, owner, sub.attr))
            elif (isinstance(node, ast.Call) and _name_of(node.func) == "add"
                    and isinstance(node.func, ast.Attribute)
                    and _name_of(node.func.value).endswith("counters") and node.args):
                text, prefix = _str_or_prefix(node.args[0])
                if text:
                    self.counters.setdefault((text, prefix), module)

    def _check_imports(self, tree: ast.AST, lines: List[str], rel: str) -> None:
        imported: List[str] = []
        used: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if (getattr(node, "module", "") != "__future__"
                        and "noqa: F401" not in lines[node.lineno - 1]):
                    imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.Assign) and "__all__" in map(_name_of, node.targets):
                used.update(_str_or_prefix(c)[0] for c in ast.walk(node.value))
            annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
            for sub in ast.walk(annotation) if annotation else ():
                used.update(re.findall(r"\w+", _str_or_prefix(sub)[0]))
        self.unused_imports += [f"{rel}:{name}" for name in imported if name not in used]

    def _use(self, nodes) -> None:
        receivers: Set[int] = set()  # ids of SINKS receivers; a call comes before its parts
        for node, owner in nodes:
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    self.stores.add(node.attr)
                else:
                    (self.sinks if id(node) in receivers else self.loads).add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.strings.add(node.value)
                if node.value.startswith("--"):
                    self.strings.add(node.value.strip("-").replace("-", "_"))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                typed = [n.id for part in (node.value, getattr(node, "annotation", None))
                         if part is not None for n in ast.walk(part)
                         if isinstance(n, ast.Name)]
                for target in targets:
                    name = _name_of(target)
                    if name:
                        self.typed.setdefault(name, set()).update(typed)
            if not isinstance(node, ast.Call):
                continue
            callee = _name_of(node.func)
            if callee in SINKS and isinstance(node.func, ast.Attribute):
                receivers.add(id(node.func.value))
            if callee in ("getattr", "hasattr") and len(node.args) > 1:
                text, prefix = _str_or_prefix(node.args[1])
                if text and not prefix:
                    self.loads.add(text)
            elif callee == "get" and isinstance(node.func, ast.Attribute) and node.args:
                text, prefix = _str_or_prefix(node.args[0])
                if text:
                    self.gets.add((text, prefix))
            elif callee in WHOLE_READS and node.args:
                self.whole.append((owner, node.args[0]))
            self.kwargs.setdefault(callee, set()).update(
                k.arg for k in node.keywords if k.arg
            )

    def mro(self, name: str) -> List[str]:
        """``name`` and its bases defined in ``src/repro``, nearest first."""
        out, todo = [], [name]
        while todo:
            cls = todo.pop(0)
            if cls in self.classes and cls not in out:
                out.append(cls)
                todo.extend(_name_of(b) for b in self.classes[cls][1].bases)
        return out

    def subclasses(self, name: str) -> List[str]:
        return [cls for cls in self.classes if name in self.mro(cls)]

    def read_whole(self) -> Set[str]:
        """Classes some ``asdict``/``fields``/``vars`` call reads in
        full: ``self``/``cls`` is the enclosing class, a class name is
        itself, and ``x.attr`` (subscripted or not) is every class that
        some assignment to an ``attr`` names."""
        out: Set[str] = set()
        for owner, arg in self.whole:
            while isinstance(arg, ast.Subscript):
                arg = arg.value
            name = _name_of(arg)
            if isinstance(arg, ast.Name) and name in ("self", "cls"):
                names = {owner}
            elif isinstance(arg, ast.Name):
                names = {name}
            else:
                names = self.typed.get(name, set())
            for cls in names & set(self.classes):
                out.update(self.mro(cls))
        return out

    def never_set(self, cls: str, field_name: str) -> bool:
        if field_name in self.strings or field_name in self.stores:
            return False
        callees = self.subclasses(cls) + ["replace"]
        return not any(field_name in self.kwargs.get(c, ()) for c in callees)

    def config_fields(self) -> List[Tuple[str, str]]:
        """Every ``(class, field)`` of a ``*Config``/``*Settings``
        dataclass."""
        return [
            (cls, f) for cls, (_module, node) in sorted(self.classes.items())
            if cls.endswith(("Config", "Settings")) and _is_dataclass(node)
            for f in _own_fields(node)
        ]

    def findings(self) -> List[Finding]:
        found: List[Finding] = []
        whole = self.read_whole()
        for cls, (module, node) in sorted(self.classes.items()):
            if not _is_dataclass(node):
                continue
            for f in _own_fields(node):
                name = f"{module}:{cls}.{f}"
                if f not in self.loads and cls not in whole:
                    found.append((name, "field", "write-only"))
                elif (cls.endswith(("Config", "Settings")) and module not in NEVER_SET_EXEMPT
                        and self.never_set(cls, f)):
                    found.append((name, "config", "never set"))
        for module, cls, attr in sorted(self.attrs):
            declared = self.classes.get(cls, ("", None))
            if declared[0] == module and attr in _own_fields(declared[1]):
                continue
            if attr not in self.loads:
                rule = "sink-only" if attr in self.sinks else "write-only"
                found.append((f"{module}:{cls}.{attr}", "attr", rule))
        for (text, prefix), module in sorted(self.counters.items()):
            read = any(
                got.startswith(text) if prefix else
                (got == text if not got_prefix else text.startswith(got))
                for got, got_prefix in self.gets
            )
            if not read:
                found.append((f"{module}:counters.{text}{'*' if prefix else ''}",
                              "counter", "write-only"))
        found += [(name, "import", "unused") for name in self.unused_imports]
        return found

    def state_names(self) -> Set[str]:
        """Every name a state finding could have, read or not."""
        names = {
            f"{module}:{cls}.{f}" for cls, (module, node) in self.classes.items()
            if _is_dataclass(node) for f in _own_fields(node)
        }
        names.update(f"{m}:{cls}.{attr}" for m, cls, attr in self.attrs)
        names.update(f"{m}:counters.{t}{'*' if p else ''}"
                     for (t, p), m in self.counters.items())
        return names


def state_census(root: str = ROOT, check: bool = False) -> int:
    """Print every piece of write-only or never-set state; with
    ``check``, exit 1 on one the allowlist does not name, or on an
    allowlisted one that is now read or set."""
    program = _Program(root)
    found = program.findings()
    allow = load_allowlist(os.path.join(root, "tools", "reach_allow.txt"))
    names = {name for name, _kind, _rule in found}
    for name, kind, rule in found:
        mark = "allowed  " if name in allow else rule.upper().replace(" ", "-")
        print(f"{mark:10s} {kind:7s} {name}")
    stale = sorted(n for n in allow if n in program.state_names() and n not in names)
    for name in stale:
        print(f"READ       {name} is allowlisted but is now read or set")
    flagged = [n for n in names if n not in allow]
    print(f"{len(found)} stored-and-unread, never-set or unused names, "
          f"{len(flagged)} outside the allowlist; "
          f"{len(program.config_fields())} config fields")
    return 1 if check and (flagged or stale) else 0


def in_packages(name: str, packages: Sequence[str]) -> bool:
    if not packages:
        return True
    module = name.split(":")[0]
    return any(module == f"repro.{p}" or module.startswith(f"repro.{p}.") for p in packages)


def check_allowlist(defs: Defs) -> List[str]:
    names = {name for name, _lines in defs.values()} | _Program().state_names()
    problems = []
    for name, reason in load_allowlist().items():
        if name not in names:
            problems.append(f"allowlisted but no longer a def or state: {name}")
        if not reason:
            problems.append(f"allowlisted without a reason: {name}")
    return problems


def main(argv: Sequence[str] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--child"]:
        return _traced_child(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="exit 1 on an unreached def the allowlist does not name")
    mode.add_argument("--check-allowlist", action="store_true",
                      help="only check that every allowlisted name is a def")
    parser.add_argument("--state", action="store_true",
                        help="list write-only and never-set state instead of "
                             "unreached defs (with --check: exit 1 on one the "
                             "allowlist does not name)")
    parser.add_argument("--packages", default="",
                        help="comma-separated repro subpackages to report on")
    parser.add_argument("--jobs", type=int, default=1,
                        help="drivers run at once (default 1)")
    args = parser.parse_args(argv)
    if args.state:
        return state_census(check=args.check)
    defs = all_defs()

    problems = check_allowlist(defs)
    if args.check_allowlist:
        for problem in problems:
            print(problem)
        print(f"{len(load_allowlist())} allowlisted names: "
              f"{'ok' if not problems else f'{len(problems)} problems'}")
        return 1 if problems else 0

    packages = [p for p in args.packages.split(",") if p]
    reached, failures = census(max(1, args.jobs), drivers())
    allow = load_allowlist()
    unreached = sorted(
        (name, lines) for key, (name, lines) in defs.items()
        if key not in reached and in_packages(name, packages)
    )
    stale = sorted(
        name for key, (name, _lines) in defs.items()
        if key in reached and name in allow and in_packages(name, packages)
    )
    flagged = [(n, lines) for n, lines in unreached if n not in allow]
    for name, lines in unreached:
        print(f"{'allowed  ' if name in allow else 'UNREACHED'} {name} ({lines} lines)")
    for name in stale:
        print(f"REACHED   {name} is allowlisted but the census reached it")
    scope = ",".join(packages) or "every package"
    print(
        f"{len(unreached)} of {sum(in_packages(n, packages) for n, _ in defs.values())} "
        f"defs unreached in {scope} ({sum(lines for _, lines in unreached)} lines); "
        f"{len(flagged)} outside the allowlist ({sum(lines for _, lines in flagged)} lines)"
    )
    for failure in failures:
        print(f"DRIVER FAILED: {failure}")
    problems += [f"unreached: {name}" for name, _ in flagged] if args.check else []
    problems += [f"reached but allowlisted: {name}" for name in stale] if args.check else []
    if failures:
        return 2
    return 1 if args.check and problems else 0


if __name__ == "__main__":
    sys.exit(main())
