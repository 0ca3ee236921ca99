"""Per-layer accounting from a profiler attached outside the program.

Layers are the packages of ``src/repro/``.  A cProfile run is folded
into them two ways:

* ``self_share`` — the fraction of profiled CPU whose innermost
  ``repro.*`` function is in the layer.  Time inside builtins and the
  standard library is charged to whoever called them: cProfile keeps,
  per callee, the time spent on behalf of each caller, so a non-repro
  function's time is passed up its caller edges (split by cumulative
  time where it has several) until it lands on a repro function.
* ``calls`` — exact call counts of the layer's functions: a work
  counter with no noise, which must repeat exactly for a seed.

cProfile charges every Python call but nothing inside native code, so
shares lean toward call-heavy layers; they say where to look, and the
untraced run says what it is worth.
"""

from __future__ import annotations

import os
import pstats
import time
from typing import Dict, Optional, Tuple

import repro
from repro.sim.engine import Simulator
from repro.workloads.generators import ZipfianPicker

LAYERS = (
    "sim",
    "mem",
    "noc",
    "fabric",
    "core",
    "sonuma",
    "atomicity",
    "objstore",
    "workloads",
    "faults",
    "experiments",
    "harness",
    "serve",
    "loadgen",
    "common",
)

_MARK = os.sep + "repro" + os.sep

Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The ``src/repro/<package>/`` a source file belongs to."""
    head, mark, tail = filename.rpartition(_MARK)
    if not mark or not head.endswith("src"):
        return None
    package = tail.split(os.sep, 1)[0]
    return package if package in LAYERS else None


class LayerTable:
    """One profile folded into layers."""

    def __init__(self, stats: pstats.Stats):
        self.stats = stats.stats  # {func: (cc, nc, tt, ct, callers)}
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.total_s = 0.0
        self._owners: Dict[Func, Dict[str, float]] = {}
        for func, (_cc, nc, tt, _ct, callers) in self.stats.items():
            self.total_s += tt
            layer = layer_of(func[0])
            if layer is not None:
                self.self_s[layer] += tt
                self.calls[layer] += nc
                continue
            # Time in this non-repro function, per caller.
            for caller, (_c, _n, edge_tt, _t) in callers.items():
                for owner, share in self._owner(caller, ()).items():
                    self.self_s[owner] += edge_tt * share

    def _owner(self, func: Func, path: Tuple[Func, ...]) -> Dict[str, float]:
        """Which layers the calls *made by* ``func`` belong to, as
        shares summing to at most 1 (the rest reached no repro frame:
        the bench's own code, interpreter start-up)."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        known = self._owners.get(func)
        if known is not None:
            return known
        if func in path:  # recursion through non-repro code
            return {}
        entry = self.stats.get(func)
        out: Dict[str, float] = {}
        if entry is not None:
            callers = entry[4]
            weight = sum(edge[3] for edge in callers.values())
            for caller, edge in callers.items():
                part = edge[3] / weight if weight > 0 else 1.0 / len(callers)
                for owner, share in self._owner(caller, path + (func,)).items():
                    out[owner] = out.get(owner, 0.0) + part * share
        if not path:
            self._owners[func] = out
        return out

    @property
    def attributed_share(self) -> float:
        return sum(self.self_s.values()) / self.total_s if self.total_s else 0.0

    def self_share(self, layer: str) -> float:
        return self.self_s[layer] / self.total_s if self.total_s else 0.0

    def calls_of(self, module_path: str, name: str) -> int:
        """Exact call count of the functions called ``name`` in
        ``src/repro/<module_path>``; an error if the module defines no
        such function, so a rename cannot silently zero a counter."""
        source = os.path.join(os.path.dirname(repro.__file__), module_path)
        with open(source) as fh:
            if f"def {name}(" not in fh.read():
                raise LookupError(f"{module_path} defines no {name}()")
        return sum(
            entry[1]
            for (filename, _line, func), entry in self.stats.items()
            if func == name and filename.endswith(_MARK + module_path)
        )

    def render(self, ops: int) -> str:
        lines = [f"{'layer':<12} {'self_share':>10} {'self_s':>9} {'calls/op':>12}"]
        for layer in sorted(LAYERS, key=lambda name: -self.self_s[name]):
            lines.append(
                f"{layer:<12} {self.self_share(layer):>10.4f} "
                f"{self.self_s[layer]:>9.3f} {self.calls[layer] / ops:>12.2f}"
            )
        lines.append(
            f"{'(attributed)':<12} {self.attributed_share:>10.4f} "
            f"{self.total_s:>9.3f}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# probes: one layer's primitive, timed alone
# ----------------------------------------------------------------------


def dispatch_ns(streams: int, unroll: int, events: int) -> float:
    """CPU ns per fired event with ``streams`` x ``unroll`` callbacks
    pending: each stream schedules its next ``unroll`` events through
    ``call_later`` when the previous batch's last one fires, the way a
    transfer unrolls its blocks.  4 x 4 is the KV workloads' shallow
    queue; 128 x 128 is the 8 KB x 16-reader x 8-deep window of Fig. 7b."""
    sim = Simulator()
    budget = [events]

    def nothing() -> None:
        pass

    def last(stream: int) -> None:
        if budget[0] > 0:
            arm(stream)

    def arm(stream: int) -> None:
        budget[0] -= unroll
        for k in range(1, unroll):
            sim.call_later(k * 3.0 + stream * 0.01, nothing)
        sim.call_later(unroll * 3.0 + stream * 0.01, last, stream)

    for stream in range(streams):
        arm(stream)
    c0 = time.process_time()
    sim.run()
    return (time.process_time() - c0) / sim.events_fired * 1e9


def zipf_pick_ns(seed: int, picks: int = 200_000) -> float:
    picker = ZipfianPicker(range(2048), seed, theta=0.99, label="bench-probe")
    pick = picker.pick
    c0 = time.process_time()
    for _ in range(picks):
        pick()
    return (time.process_time() - c0) / picks * 1e9
