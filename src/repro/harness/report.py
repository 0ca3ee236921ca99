"""Re-export kept only for the frozen ``bench/workloads.py``, which
imports ``scaled_duration`` from here; ROADMAP item 1 (the benchmark
PR) points bench at :mod:`repro.common` and deletes this module."""

from repro.common import scaled_duration  # noqa: F401
