"""Fault injection beyond clean crash/recover: gray failures,
network partitions and asymmetric link degradation, straggling
backups, and clock-skewed lease views — the rack-scale failure modes
the SABRes argument must survive but :class:`~repro.objstore.failover.
FailurePlan` alone does not exercise."""

from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.schedule import (
    FAULT_KINDS,
    FaultSchedule,
    FaultWindow,
    cycle_fault_schedule,
)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultSchedule",
    "FaultStats",
    "FaultWindow",
    "cycle_fault_schedule",
]
