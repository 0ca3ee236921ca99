"""Configuration for ``repro-serve``: the dataclass defaults (a
4-shard SABRe cluster on ``127.0.0.1:8373``) with the CLI's flags on
top, each flag stored under its field's name
(:func:`repro.common.config.from_fields`)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.objstore.sharded import ShardedConfig


@dataclass
class ServeSettings:
    """One gateway deployment."""

    # -- network --------------------------------------------------------
    host: str = "127.0.0.1"
    port: int = 8373

    # -- cluster (the ShardedConfig fields, by name) ----------------------
    n_shards: int = 4
    replication: int = 2
    mechanism: str = "sabre"
    n_objects: int = 512
    object_size: int = 1024
    seed: int = 1
    #: Client *nodes* in the simulated cluster (each holds a pool of
    #: reader/txn sessions the bridge checks requests out to).
    n_clients: int = 2

    # -- time bridge ----------------------------------------------------
    #: Per-request virtual-time budget; an op that cannot complete
    #: inside it answers 504.
    request_timeout_ns: float = 5_000_000.0
    #: Transactions retry aborts up to this many attempts before
    #: answering 409.
    txn_max_attempts: int = 8
    #: Reader-session fallback grace (mirrors ShardedConfig).
    fallback_after_ns: float = 0.0
    #: Concurrency cap: reader and txn session pools each hold at most
    #: this many sessions (the simulated server's "thread pool").
    #: Requests beyond it queue FIFO for a free session, with the
    #: request deadline still counted from arrival — which is what
    #: turns sustained overload into 504s instead of an unbounded
    #: backlog, and gives the saturation sweep a real knee.
    max_sessions: int = 16

    # -- production trimmings -------------------------------------------
    #: Token-bucket rate limit in requests/second (0 disables).
    rate_limit_qps: float = 0.0
    #: Bucket burst capacity (defaults to one second's tokens).
    rate_limit_burst: float = 0.0
    #: Seconds the driver waits before warming the cluster (a testing
    #: hook: CI uses it to observe ``/readyz`` flip false -> true).
    warmup_delay_s: float = 0.0
    #: Seconds the SIGTERM drain waits for in-flight requests.
    drain_timeout_s: float = 10.0
    #: Path the final metrics snapshot is flushed to on shutdown
    #: (empty disables the artifact).
    metrics_artifact: str = ""

    def __post_init__(self) -> None:
        # At most one replica per shard: ``--shards 1`` serves
        # unreplicated rather than refusing the default replication.
        self.replication = min(self.replication, self.n_shards)

    def validate(self) -> None:
        if not 0 <= self.port < 65536:
            # Port 0 asks the kernel for an ephemeral port (tests/CI).
            raise ConfigError(f"port out of range: {self.port}")
        # NaN fails every comparison and infinity breaks the virtual
        # deadline every op carries, so each float must be finite.
        timeout = self.request_timeout_ns
        if not (math.isfinite(timeout) and timeout > 0):
            raise ConfigError(
                f"request_timeout_ns must be finite and > 0, got {timeout!r}"
            )
        for name in (
            "rate_limit_qps",
            "rate_limit_burst",
            "warmup_delay_s",
            "drain_timeout_s",
            "fallback_after_ns",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
        if self.txn_max_attempts < 1:
            raise ConfigError("txn_max_attempts must be >= 1")
        if self.n_clients < 1:
            raise ConfigError("n_clients must be >= 1 (one client node)")
        if self.max_sessions < 1:
            raise ConfigError("max_sessions must be >= 1 (one session per pool)")
        ShardedConfig.of(self).validate()

    @property
    def burst(self) -> float:
        """Effective bucket capacity."""
        if self.rate_limit_burst > 0:
            return self.rate_limit_burst
        return max(self.rate_limit_qps, 1.0)
