"""The failure model: shard crashes with promotion and re-sync, gray
failures, network partitions (whole-node isolation or one severed
link), straggling backups, and clock-skewed lease views — the
rack-scale failure modes the SABRes argument must survive.  Every
timed fault is one :class:`FaultWindow`, built by
:func:`cycle_fault_schedule` or by hand; :class:`FailoverManager` drives
a schedule's crash windows and :class:`FaultInjector` the rest.  A
partition severs links and nothing else."""

from repro.faults.failover import FailoverManager
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.schedule import (
    FAULT_KINDS,
    FaultSchedule,
    FaultWindow,
    cycle_fault_schedule,
)

__all__ = [
    "FAULT_KINDS",
    "FailoverManager",
    "FaultInjector",
    "FaultSchedule",
    "FaultStats",
    "FaultWindow",
    "cycle_fault_schedule",
]
