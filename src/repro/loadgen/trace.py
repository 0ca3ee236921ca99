"""Deterministic arrival-trace synthesis.

An open-loop arrival process at target rate ``qps`` is a Poisson
process: independent exponential gaps with mean ``1/qps``.  The trace
is generated entirely from :func:`~repro.common.rng.make_rng` streams,
so the same :class:`TraceConfig` always yields the same
:class:`~repro.serve.ops.ArrivalTrace` — the foundation of both the
virtual-time determinism tests and the serial == ``--jobs`` sweep
parity.

Key popularity and read/write mixes are the YCSB ones
(:data:`repro.workloads.ycsb.YCSB_MIXES`, :mod:`repro.workloads.
generators`): workload A is update-heavy, B read-mostly, C read-only,
over uniform or Zipfian key popularity.  A ``txn_fraction`` slice of
arrivals becomes multi-key read-modify-write transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import make_rng
from repro.objstore.sharded import ShardedKV
from repro.serve.ops import ArrivalTrace, TimedOp
from repro.workloads.generators import DISTRIBUTIONS, make_picker
from repro.workloads.ycsb import YCSB_MIXES


@dataclass
class TraceConfig:
    """One synthetic arrival trace."""

    qps: float = 1000.0
    #: Op count; ``duration_s > 0`` overrides it with ``qps * duration``.
    n_ops: int = 1000
    duration_s: float = 0.0
    workload: str = "B"
    distribution: str = "zipfian"
    zipf_theta: float = 0.99
    #: Fraction of arrivals that are multi-key transactions.
    txn_fraction: float = 0.0
    txn_reads: int = 2
    txn_writes: int = 1
    n_objects: int = 512
    seed: int = 1

    def validate(self) -> None:
        if self.qps <= 0:
            raise ConfigError(f"qps must be > 0: {self.qps}")
        if self.workload not in YCSB_MIXES:
            raise ConfigError(
                f"unknown workload {self.workload!r}; "
                f"choose from {sorted(YCSB_MIXES)}"
            )
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(
                f"unknown distribution {self.distribution!r}; "
                f"choose from {DISTRIBUTIONS}"
            )
        if not 0.0 <= self.txn_fraction <= 1.0:
            raise ConfigError("txn_fraction must be in [0, 1]")
        if self.txn_reads < 0 or self.txn_writes < 0:
            raise ConfigError("txn key counts cannot be negative")
        if self.txn_fraction > 0 and self.txn_reads + self.txn_writes < 1:
            raise ConfigError("transactions need at least one key")
        if self.txn_reads + self.txn_writes > self.n_objects:
            raise ConfigError("transaction wider than the key space")
        if self.n_ops < 1 and self.duration_s <= 0:
            raise ConfigError("need n_ops >= 1 or duration_s > 0")

    @property
    def write_fraction(self) -> float:
        return YCSB_MIXES[self.workload]

    def total_ops(self) -> int:
        if self.duration_s > 0:
            return max(1, int(self.qps * self.duration_s))
        return self.n_ops


def _txn_keys(cfg: TraceConfig, pick) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Distinct keys for one transaction, still popularity-weighted:
    draw from the picker, skipping repeats (bounded, then fall back to
    a sequential sweep so the draw always terminates)."""
    wanted = cfg.txn_reads + cfg.txn_writes
    picked: List[int] = []
    attempts = 0
    while len(picked) < wanted and attempts < 50 * wanted:
        idx = pick.pick()
        attempts += 1
        if idx not in picked:
            picked.append(idx)
    fill = 0
    while len(picked) < wanted:
        if fill not in picked:
            picked.append(fill)
        fill += 1
    names = [ShardedKV.key_name(i) for i in picked]
    return (
        tuple(names[: cfg.txn_reads]),
        tuple(names[cfg.txn_reads :]),
    )


def build_trace(cfg: TraceConfig) -> ArrivalTrace:
    """Synthesize the arrival trace for ``cfg`` (deterministic)."""
    cfg.validate()
    arrivals = make_rng(cfg.seed, "loadgen-arrivals")
    mix = make_rng(cfg.seed, "loadgen-mix")
    pick = make_picker(
        cfg.n_objects, cfg.seed, cfg.distribution, cfg.zipf_theta, "loadgen"
    )
    rate_per_ns = cfg.qps / 1e9
    ops: List[TimedOp] = []
    t = 0.0
    for op_id in range(cfg.total_ops()):
        t += arrivals.expovariate(rate_per_ns)
        roll = mix.random()
        if roll < cfg.txn_fraction:
            read_keys, write_keys = _txn_keys(cfg, pick)
            ops.append(
                TimedOp(
                    op_id=op_id,
                    at_ns=t,
                    kind="txn",
                    read_keys=read_keys,
                    write_keys=write_keys,
                )
            )
            continue
        key = ShardedKV.key_name(pick.pick())
        kind = "put" if mix.random() < cfg.write_fraction else "get"
        ops.append(TimedOp(op_id=op_id, at_ns=t, kind=kind, key=key))
    return ArrivalTrace(ops=ops, offered_qps=cfg.qps, seed=cfg.seed)
