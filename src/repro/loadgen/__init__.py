"""``repro-load``: the open-loop load harness for the serving gateway.

* :mod:`repro.loadgen.trace` — deterministic arrival-trace synthesis:
  Poisson (open-loop) arrivals at a target QPS, key popularity and
  read/write mixes reused from the YCSB workload module.
* :mod:`repro.loadgen.client` — the wall-clock client: fires each op
  of a trace at its arrival time over real sockets against a live
  ``repro-serve`` and accounts latency percentiles and errors.
* :mod:`repro.loadgen.sweep` — the saturation sweep: step offered QPS
  until achieved/offered collapses, writing a JSON artifact; also
  registers the ``serve_load_sweep`` experiment spec.

Open-loop means arrivals never wait for completions: a slow server
faces a growing backlog instead of a conveniently self-throttling
client, which is what makes the achieved/offered ratio an honest
saturation signal (Schroeder et al., NSDI'06).
"""

from repro.loadgen.client import LoadReport, run_open_loop
from repro.loadgen.sweep import SaturationConfig, run_saturation
from repro.loadgen.trace import TraceConfig, build_trace

__all__ = [
    "LoadReport",
    "SaturationConfig",
    "TraceConfig",
    "build_trace",
    "run_open_loop",
    "run_saturation",
]
