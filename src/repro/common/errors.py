"""Exception hierarchy for the repro package."""

from __future__ import annotations

from typing import Any, Tuple, Type, Union


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value."""


def expect_type(
    what: str, value: Any, types: Union[Type, Tuple[Type, ...]]
) -> Any:
    """Return ``value`` if it is an instance of ``types``, else raise
    :class:`ConfigError` naming ``what``.  A bool never passes (JSON's
    ``true`` is no count, seed or scale)."""
    if isinstance(value, bool) or not isinstance(value, types):
        names = " or ".join(
            t.__name__ for t in (types if isinstance(types, tuple) else (types,))
        )
        raise ConfigError(f"{what} must be {names}, got {value!r}")
    return value


class SimulationError(ReproError):
    """The discrete-event simulation reached an illegal state."""


class AtomicityError(ReproError):
    """A torn (non-atomic) object read was consumed by the application.

    Raised by validation layers when a mechanism reports success for a
    read whose payload mixes data from different committed versions.
    A correct mechanism never lets this propagate.
    """


class ProtocolError(ReproError):
    """A soNUMA protocol invariant was violated (e.g. reply without
    a matching request, duplicate completion)."""


class ShardCrashedError(ReproError):
    """An operation targeted a node whose lease has expired (crashed).

    This is a *value*, not a raised exception, on the failure paths the
    failover subsystem injects: an RPC completion (or write ack) whose
    target crashed triggers with an instance of this class instead of
    reply bytes, so callers re-route to the promoted replica instead of
    unwinding the whole simulation.
    """

    def __init__(self, node_id: int, detail: str = ""):
        suffix = f": {detail}" if detail else ""
        super().__init__(f"node {node_id} crashed{suffix}")
        self.node_id = node_id


class LinkPartitionedError(ShardCrashedError):
    """An operation could not start because a partition window severs
    the link to its destination.

    A subclass of :class:`ShardCrashedError` on purpose: to the caller a
    partitioned shard is indistinguishable from a crashed one (FLP says
    so), and every redirect/abort/fallback path that handles the crash
    error must handle this one identically.  Like its parent it is a
    *value* on completion events, never raised.  Conversations already
    in flight when the window opens are allowed to drain — the fabric
    is lossless — so only *new* calls and posts see this error.
    """

    def __init__(self, src_node: int, dst_node: int, detail: str = ""):
        super().__init__(dst_node, detail or "link partitioned")
        self.src_node = src_node
