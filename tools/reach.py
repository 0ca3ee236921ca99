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
* ``SABRES_BENCH_SCALE=0.25 pytest benchmarks --benchmark-disable``
  — the paper's tables and figures (pytest-benchmark pauses the trace
  hook around every timed call, so the timing is off);
* every ``examples/*.py``;
* ``repro-harness list``, ``table1``, ``table2`` and one sweep with
  ``--axes`` and ``--overrides``;
* ``repro-campaign`` run serially, with ``--jobs 2`` and with
  ``--workers 1``, then ``status``, ``resume`` and ``report``
  (``tools/reach_drivers.py campaign``; the subprocess worker is
  traced too, forked pool workers are not);
* ``repro-serve`` with ``repro-load --url`` against it, a malformed
  request, a ``/metrics`` scrape and the SIGTERM drain, then
  ``repro-load --replay`` and ``--sweep``
  (``tools/reach_drivers.py serve``);
* ``bench/run.py --smoke --workload W`` for every workload.

The trace hook is not ``cProfile`` because ``bench/run.py`` profiles
its own cycles with ``cProfile`` and Python has one profile hook.

Usage::

    python tools/reach.py                   # list every unreached def
    python tools/reach.py --check --jobs 2
        # exit 1 on an unreached def outside the allowlist, or an
        # allowlisted def the census reached; exit 2 if a driver
        # failed (~4 min on 2 CPUs: the nightly job)
    python tools/reach.py --check-allowlist
        # exit 1 if an allowlisted name is no longer a def, or has no
        # reason (milliseconds: tier-1)
"""

from __future__ import annotations

import argparse
import ast
import json
import os
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

#: Stands in a driver's argv for the file its traced subprocesses
#: (``tools/reach.py --child {out} -- ...``) write what they entered to.
SUB_OUT = "{out}"

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
                        "-p", "no:cacheprovider", "--benchmark-disable"],
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
         [COMPOSITE, "campaign", SUB_OUT], {}),
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
def module_name(path: str) -> str:
    rel = os.path.relpath(path, SRC)[: -len(".py")].replace(os.sep, ".")
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


def load_allowlist() -> Dict[str, str]:
    """Allowlisted name -> its reason (empty if the line gives none)."""
    allow: Dict[str, str] = {}
    with open(ALLOW_PATH) as fh:
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
    add what it entered under ``src/repro`` to ``out_path`` (several
    children may report to one file, one after another)."""
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
        entered.update(_load_pairs(out_path))
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
    """Every ``(path, first line)`` the drivers ``runs`` entered, their
    traced subprocesses included, and the drivers that failed."""
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = SRC + os.pathsep + base_env.get("PYTHONPATH", "")
    reached: Set[Tuple[str, int]] = set()
    failures: List[str] = []
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:

        def one(k_driver):
            k, (label, argv, env) = k_driver
            out = os.path.join(tmp, f"{k}.json")
            sub_out = os.path.join(tmp, f"{k}.sub.json")
            argv = [arg.replace(SUB_OUT, sub_out) for arg in argv]
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
            return _load_pairs(out) | _load_pairs(sub_out)

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for pairs in pool.map(one, enumerate(runs)):
                reached.update(pairs)
    return reached, failures


def in_packages(name: str, packages: Sequence[str]) -> bool:
    if not packages:
        return True
    module = name.split(":")[0]
    return any(module == f"repro.{p}" or module.startswith(f"repro.{p}.") for p in packages)


def check_allowlist(defs: Defs) -> List[str]:
    names = {name for name, _lines in defs.values()}
    problems = []
    for name, reason in load_allowlist().items():
        if name not in names:
            problems.append(f"allowlisted but no longer a def: {name}")
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
    parser.add_argument("--packages", default="",
                        help="comma-separated repro subpackages to report on")
    parser.add_argument("--jobs", type=int, default=1,
                        help="drivers run at once (default 1)")
    args = parser.parse_args(argv)
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
