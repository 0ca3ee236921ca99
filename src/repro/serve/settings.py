"""Env-layered configuration for ``repro-serve``.

Resolution order, lowest to highest precedence:

1. dataclass defaults (a 4-shard SABRe cluster on ``127.0.0.1:8373``),
2. ``REPRO_SERVE_*`` environment variables,
3. explicit keyword overrides (the CLI passes parsed flags here).

Every field maps to exactly one env var: ``field_name`` upper-cased
with the ``REPRO_SERVE_`` prefix (``port`` -> ``REPRO_SERVE_PORT``).
Booleans accept ``1/0/true/false/yes/no``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.common.errors import ConfigError
from repro.objstore.sharded import ShardedConfig
from repro.workloads.mix import sharded_config

ENV_PREFIX = "REPRO_SERVE_"


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}")


@dataclass
class ServeSettings:
    """One gateway deployment."""

    # -- network --------------------------------------------------------
    host: str = "127.0.0.1"
    port: int = 8373

    # -- cluster --------------------------------------------------------
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

    def validate(self) -> None:
        if not 0 <= self.port < 65536:
            # Port 0 asks the kernel for an ephemeral port (tests/CI).
            raise ConfigError(f"port out of range: {self.port}")
        if self.request_timeout_ns <= 0:
            raise ConfigError("request_timeout_ns must be > 0")
        if self.txn_max_attempts < 1:
            raise ConfigError("txn_max_attempts must be >= 1")
        if self.rate_limit_qps < 0 or self.rate_limit_burst < 0:
            raise ConfigError("rate limit values cannot be negative")
        if self.warmup_delay_s < 0 or self.drain_timeout_s < 0:
            raise ConfigError("delay/drain values cannot be negative")
        if self.n_clients < 1:
            raise ConfigError("need at least one client node")
        if self.max_sessions < 1:
            raise ConfigError("need at least one session per pool")
        self.sharded_config().validate()

    def sharded_config(self) -> ShardedConfig:
        return sharded_config(
            self,
            replication=min(self.replication, self.n_shards),
            fallback_after_ns=self.fallback_after_ns,
        )

    @property
    def burst(self) -> float:
        """Effective bucket capacity."""
        if self.rate_limit_burst > 0:
            return self.rate_limit_burst
        return max(self.rate_limit_qps, 1.0)

    @classmethod
    def from_env(
        cls,
        environ: Optional[Mapping[str, str]] = None,
        **overrides: Any,
    ) -> "ServeSettings":
        """Layer env vars over defaults, then explicit overrides on
        top.  ``overrides`` values of ``None`` mean "not given" (the
        CLI passes every flag; unset ones arrive as None)."""
        if environ is None:
            import os

            environ = os.environ
        values: Dict[str, Any] = {}
        for field in dataclasses.fields(cls):
            raw = environ.get(ENV_PREFIX + field.name.upper())
            if raw is None:
                continue
            try:
                if field.type in ("int", int):
                    values[field.name] = int(raw)
                elif field.type in ("float", float):
                    values[field.name] = float(raw)
                elif field.type in ("bool", bool):
                    values[field.name] = _parse_bool(raw)
                else:
                    values[field.name] = raw
            except ValueError as exc:
                raise ConfigError(
                    f"bad {ENV_PREFIX + field.name.upper()}={raw!r}: {exc}"
                ) from None
        known = {f.name for f in dataclasses.fields(cls)}
        for name, value in overrides.items():
            if name not in known:
                raise ConfigError(f"unknown setting {name!r}")
            if value is not None:
                values[name] = value
        settings = cls(**values)
        settings.validate()
        return settings

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)
