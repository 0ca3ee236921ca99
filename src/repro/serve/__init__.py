"""``repro-serve``: a network gateway over the simulated cluster.

The serving layer turns the in-process :class:`~repro.objstore.
sharded.ShardedKV` / :class:`~repro.objstore.txn.TxnManager` cluster
into something a socket can talk to:

* :mod:`repro.serve.bridge` — the **time bridge**: one process owns the
  :class:`~repro.sim.engine.Simulator` and injects wall-clock requests
  as virtual-time events, so every byte a client sends still flows
  through the timed memory hierarchy, the ReadProtocol registry, and
  the fault/reshard machinery.
* :mod:`repro.serve.gateway` — the asyncio HTTP gateway
  (``GET/PUT /v1/obj/{key}``, ``POST /v1/txn``, ``/healthz``,
  ``/readyz``, ``/metrics``) with token-bucket rate limiting and
  graceful SIGTERM drain.
* :mod:`repro.serve.metrics` — Prometheus-text-format counters,
  gauges, and histograms exporting every per-shard stat the cluster
  already collects.
* :mod:`repro.serve.settings` — the deployment's settings, one CLI
  flag per field.

The open-loop load generator lives in :mod:`repro.loadgen`.
"""

from repro.serve.bridge import ReplayReport, SimBridge
from repro.serve.metrics import MetricsRegistry
from repro.serve.ops import ArrivalTrace, TimedOp
from repro.serve.settings import ServeSettings

__all__ = [
    "ArrivalTrace",
    "MetricsRegistry",
    "ReplayReport",
    "ServeSettings",
    "SimBridge",
    "TimedOp",
]
