"""Fault injection beyond clean crash/recover: gray failures,
network partitions (whole-node isolation or one severed link),
straggling backups, and clock-skewed lease views — the rack-scale
failure modes the SABRes argument must survive but
:class:`~repro.objstore.failover.FailurePlan` alone does not exercise.
A partition severs links and nothing else; every lane is built by
:func:`cycle_fault_schedule` or by hand from :class:`FaultWindow`."""

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
