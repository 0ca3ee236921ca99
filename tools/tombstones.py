#!/usr/bin/env python3
"""Deleted names stay deleted: one table of what the refactors removed.

An entry names the change that deleted something, a regex no line in
its scope may match, a sample line the regex matches, and why; the
scope is paths from the repo root (directories taken recursively), and
``owner`` the one file that may still match.  This file is not
scanned.  ``python tools/tombstones.py`` exits 1 listing every match;
tier-1 and smoke run it via ``tests/test_tombstones.py``.
"""

from __future__ import annotations

import os
import re
import sys
from typing import Iterator, List, NamedTuple, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SELF = os.path.join("tools", "tombstones.py")
SKIP_DIRS = {".git", ".hypothesis", "__pycache__", ".pytest_cache"}

#: The code and its CI.
CODE = ("src", "tests", "examples", "tools", "benchmarks", "setup.py", ".github")
#: Every scope's union: the code and the docs, less the root's change
#: log and roadmap, which record what was.
EVERYWHERE = CODE + ("docs", "README.md", "PAPER.md", ".claude")
SHARDED = "src/repro/objstore/sharded.py"


class Tombstone(NamedTuple):
    deleted_by: str
    pattern: str
    sample: str
    reason: str
    scope: Tuple[str, ...] = EVERYWHERE
    owner: str = ""


TOMBSTONES = (
    Tombstone("One block chain", r"REPRO_SIM_", 'os.environ.get("REPRO_SIM_BLOCKS")',
              "the variable that selected the stepwise twin", CODE),
    Tombstone("The service view has one owner", r"\._placement|lock_owners",
              "ring = kv._placement[key]", "private to ShardedKV", owner=SHARDED),
    Tombstone("The paper's own harnesses layer like the KV workloads",
              r"(Microbench|Farm|LocalRead)Config\(", "cfg = FarmConfig(seed=3)",
              "a point's config is XConfig.from_params",
              ("src/repro/harness", "src/repro/experiments")),
    Tombstone("The block path, once", r"schedule_batch|_send_degraded",
              "sim.schedule_batch(entries)", "one way to schedule, one send path", CODE),
    Tombstone("One way to wait", r"\.timeout\(|class Timeout|def _drive\b",
              "yield sim.timeout(5)", "a process yields an event or a bare delay"),
    Tombstone("Each Table 1 cell is one class",
              r"AtomicityMechanism|make_mechanism|mechanism_by_name|LeaseLockTable"
              r"|_drive_paced", 'make_mechanism("sabre")', "a cell is one ReadProtocol"),
    Tombstone("One sweep loop", r"\b(SweepRunner|RunContext|MemoryContext|spec_ref)\b",
              "SweepRunner(spec)", "run_sweep is the loop, CampaignContext the store"),
    Tombstone("The failure model keeps only what runs",
              r"latency_mult|bw_mult|degrade_link|\.degradation\("
              r"|(gray|straggler|partition)_cycles|first_crash_frac|downtime_frac"
              r"|scale_at_frac|post_frac", "fabric.degrade_link(0, 1, bw_mult=0.5)",
              "a partition severs links; one fault-lane builder"),
    Tombstone("The failure model keeps only what runs",
              r"\.(rpc_timeout_ns|reroute_check_ns)\s*([-+*/]?=[^=])",
              "kv.rpc_timeout_ns = 1.0", "arm_watchdogs sets the timers", owner=SHARDED),
    Tombstone("One fault format", r"\bFailurePlan\b|\bShardFault\b|objstore[./]failover",
              "FailurePlan([ShardFault(0, 1e5)])", "a crash is a FaultWindow"),
    Tombstone("One fault format", r"base_seed=[0-9]", "    base_seed=11,",
              "a spec states its seed once, in its defaults", ("src",)),
    Tombstone("The bottom layers keep only what runs",
              r"_issued_bits|_received_bits|received_bits|peak_occupancy|registered_at"
              r"|def (read_request|read_reply|sabre_request|sabre_reply"
              r"|sabre_registration|block_payload_size|interrupt|all_of|tier_of)\b",
              "self._issued_bits = 0", "no bitvectors or test-only API", ("src", "tests")),
    Tombstone("The upper layers keep only what runs",
              r"RebalanceConfig|\.hot_fraction\(|def hot_fraction|active_multiplier"
              r"|invalidations_sent|packets_dropped|drain_ns=|resync_fixed_ns=",
              "RebalanceConfig(drain_ns=500.0)", "no test-only knob or unread counter"),
    Tombstone("One copy of each setting",
              r"_DEPLOYMENT_FIELDS|def sharded_config|def serve_settings"
              r"|def trace_config|with_sabre_mode|_cluster_with_sabre",
              "def sharded_config(self):", "ShardedConfig.of(cfg) is the one copy"),
    Tombstone("One parallel path",
              r"SubprocessExecutor|repro\.experiments\.worker|worker[-_]command"
              r"|WorkerError|_feed_and_read", "SubprocessExecutor(jobs=2)",
              "the process pool is the one way a sweep runs in parallel"),
    Tombstone("Packages are layers",
              r"_get_protocol|workloads[./]protocols|experiments[./]ablations"
              r"|harness[./]htmlreport", "from repro.workloads.protocols import X",
              "every import points down; old homes stay gone"),
    Tombstone("Deleted names stay deleted", r"REPRO_SERVE_",
              "REPRO_SERVE_PORT=9000 repro-serve", "repro-serve takes flags only"),
    Tombstone("The server keeps only what it reads",
              r"serve_virtual_ns|(bridge|self)\.latency\b",
              'self.latency = Samples("serve_virtual_ns")',
              "per-request latency lives in repro_request_virtual_ns alone"),
    Tombstone("The server keeps only what it reads", r"\.quantile\(", "h.quantile(0.5)",
              "a scrape sorts once: Histogram.quantiles"),
    Tombstone("A closed service needs no collector", r"\.sessions\b",
              "for session in kv.sessions:",
              "a service keeps its sessions' stats; a session refers back to it", CODE),
)


def scope_files(root: str, scope: Sequence[str]) -> Iterator[str]:
    """Every file under ``scope``, as a path relative to ``root``."""
    for rel in scope:
        path = os.path.join(root, rel)
        if os.path.isfile(path):
            yield rel
        for dirpath, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            yield from (os.path.relpath(os.path.join(dirpath, f), root) for f in sorted(files))


def scan(root: str = ROOT, table: Sequence[Tombstone] = TOMBSTONES) -> List[tuple]:
    """``(file, line, entry)`` for every line an entry matches, each
    file read once and split into lines only where an entry matches."""
    hits = []
    for rel in scope_files(root, EVERYWHERE):
        entries = [e for e in table if rel not in (SELF, e.owner)
                   and any(rel == p or rel.startswith(p + "/") for p in e.scope)]
        if not entries:
            continue
        with open(os.path.join(root, rel), encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        for entry in entries:
            if re.search(entry.pattern, text):
                hits += [(rel, n, entry) for n, line in enumerate(text.splitlines(), 1)
                         if re.search(entry.pattern, line)]
    return hits


def main() -> int:
    hits = scan()
    for rel, lineno, entry in hits:
        print(f"{rel}:{lineno}: gone since {entry.deleted_by!r}: {entry.reason}")
    print(f"{len(hits)} match(es) of {len(TOMBSTONES)} deleted-name patterns")
    return 1 if hits else 0


if __name__ == "__main__":
    sys.exit(main())
