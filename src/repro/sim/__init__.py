"""Discrete-event simulation kernel.

A minimal, fast, generator-based DES in the style of SimPy: processes
are Python generators that yield :class:`Event` objects (plain
events, other processes) and are resumed when those events trigger,
or yield a bare delay in ns and are resumed that much later.  A cheap
callback API (`Simulator.call_later`) serves hot paths where full
process semantics would be wasteful.
"""

from repro.sim.engine import Event, Process, Simulator
from repro.sim.resources import BandwidthServer, FifoResource, MultiChannel
from repro.sim.stats import Breakdown, Counter, Samples, ThroughputMeter

__all__ = [
    "BandwidthServer",
    "Breakdown",
    "Counter",
    "Event",
    "FifoResource",
    "MultiChannel",
    "Process",
    "Samples",
    "Simulator",
    "ThroughputMeter",
]
