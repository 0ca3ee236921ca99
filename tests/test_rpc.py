"""Tests for RPC over soNUMA messaging."""

import pytest

from repro.common.errors import ProtocolError
from repro.sonuma.node import Cluster
from repro.sonuma.rpc import RpcEndpoint


def make_pair():
    cluster = Cluster()
    a = RpcEndpoint(cluster.node(0), workers=1)
    b = RpcEndpoint(cluster.node(1), workers=1)
    return cluster, a, b


def test_round_trip():
    cluster, a, b = make_pair()
    served = []
    a.register("echo", lambda payload: (served.append(payload) or payload[::-1], 10.0))
    replies = []

    def client():
        reply = yield b.call(0, "echo", b"hello")
        replies.append(reply)

    cluster.sim.process(client())
    cluster.run()
    assert replies == [b"olleh"]
    assert served == [b"hello"]


def test_rpc_latency_includes_dispatch_and_service():
    cluster, a, b = make_pair()
    a.register("work", lambda payload: (b"", 500.0))
    times = []

    def client():
        yield b.call(0, "work", b"x")
        times.append(cluster.sim.now)

    cluster.sim.process(client())
    cluster.run()
    # 2 fabric hops (70 ns) + dispatch (180) + service (500) at least.
    assert times[0] >= 750.0


def test_workers_serialize_requests():
    cluster, a, b = make_pair()
    a.register("slow", lambda payload: (b"", 1000.0))
    finish = []

    def client(i):
        yield b.call(0, "slow", bytes([i]))
        finish.append(cluster.sim.now)

    for i in range(3):
        cluster.sim.process(client(i))
    cluster.run()
    assert len(finish) == 3
    # One worker: service periods cannot overlap.
    assert finish[1] - finish[0] >= 1000.0
    assert finish[2] - finish[1] >= 1000.0


def test_parallel_workers_overlap():
    cluster = Cluster()
    a = RpcEndpoint(cluster.node(0), workers=3)
    b = RpcEndpoint(cluster.node(1), workers=1)
    a.register("slow", lambda payload: (b"", 1000.0))
    finish = []

    def client(i):
        yield b.call(0, "slow", bytes([i]))
        finish.append(cluster.sim.now)

    for i in range(3):
        cluster.sim.process(client(i))
    cluster.run()
    assert max(finish) - min(finish) < 1000.0


def test_generator_handler_yields_simulation_time():
    """A handler may be a generator: it yields events (timed work,
    nested calls) and returns the usual (reply, extra service) tuple."""
    cluster, a, b = make_pair()

    def handler(payload):
        yield 400.0
        yield 300.0
        return payload.upper(), 100.0

    a.register("timed", handler)
    done = []

    def client():
        reply = yield b.call(0, "timed", b"abc")
        done.append((cluster.sim.now, reply))

    cluster.sim.process(client())
    cluster.run()
    assert done[0][1] == b"ABC"
    # 2 fabric hops (70) + dispatch (180) + yields (700) + service (100).
    assert done[0][0] >= 1050.0
    assert len(done) == 1


def test_generator_handler_holds_worker_while_running():
    cluster, a, b = make_pair()

    def slow(payload):
        yield 1000.0
        return b"", 0.0

    a.register("slow_gen", slow)
    finish = []

    def client(i):
        yield b.call(0, "slow_gen", bytes([i]))
        finish.append(cluster.sim.now)

    for i in range(2):
        cluster.sim.process(client(i))
    cluster.run()
    # One worker: the generator's simulated time serializes requests.
    assert finish[1] - finish[0] >= 1000.0


def test_unknown_handler_raises():
    cluster, a, b = make_pair()
    calls = []

    def client():
        reply = yield b.call(0, "missing", b"")
        calls.append(reply)

    cluster.sim.process(client())
    with pytest.raises(ProtocolError):
        cluster.run()


def test_node_without_endpoint_rejects_rpc():
    cluster = Cluster()
    b = RpcEndpoint(cluster.node(1), workers=1)

    def client():
        yield b.call(0, "anything", b"")

    cluster.sim.process(client())
    with pytest.raises(ProtocolError):
        cluster.run()


def test_raising_handler_paths_never_strand_the_worker_pool():
    """Review regression: the flattened dispatcher must release the
    worker slot on *every* error path (the old generator server did so
    via try/finally).  A generator handler that falls off the end
    yields a None outcome whose unpack raises — the slot must come
    back so later RPCs still get served."""
    cluster, a, b = make_pair()

    def broken(payload: bytes):
        yield 5.0
        # falls off the end: StopIteration value is None

    a.register("broken", broken)
    a.register("healthy", lambda payload: (b"ok", 0.0))
    b.call(0, "broken", b"x")
    with pytest.raises(TypeError):
        cluster.run()
    # The slot was released on the error path: a later healthy call is
    # served instead of queueing forever behind a leaked slot.
    done = b.call(0, "healthy", b"y")
    cluster.run()
    assert done.value == b"ok"


def test_handler_raising_after_a_wait_frees_its_worker_slot():
    """A generator handler that raises after its first wait (not on
    its first step, and not by falling off the end) must give its
    worker slot back: a later healthy call is still served."""
    cluster, a, b = make_pair()

    def raises_later(payload: bytes):
        yield 5.0
        raise KeyError(payload)

    a.register("raises_later", raises_later)
    a.register("healthy", lambda payload: (b"ok", 0.0))
    b.call(0, "raises_later", b"x")
    with pytest.raises(KeyError):
        cluster.run()
    done = b.call(0, "healthy", b"y")
    cluster.run()
    assert done.value == b"ok"


def test_watchdog_rearms_against_slow_but_alive_peer():
    """Gray-failure regression: a watchdog firing against a peer whose
    lease is intact must re-arm and keep waiting — the reply is still
    coming, and server-side effects (acquired locks) are real.  Failing
    the call would orphan them."""
    cluster, a, b = make_pair()
    a.service_multiplier = 20.0  # gray window: slow, not dead
    a.register("work", lambda payload: (b"done", 500.0))
    replies = []

    def client():
        reply = yield b.call(0, "work", b"x", timeout_ns=1_000.0)
        replies.append(reply)

    cluster.sim.process(client())
    cluster.run()
    # The reply arrived despite several watchdog deadlines passing.
    assert replies == [b"done"]
    assert b.timed_out_calls == 0
    assert b.watchdog_rearms > 0


def test_watchdog_still_fails_calls_to_a_dead_peer():
    """The re-arm path must not defeat the watchdog's purpose: once
    the peer's lease is genuinely gone, the call times out."""
    cluster, a, b = make_pair()
    a.register("work", lambda payload: (b"never", 50_000.0))
    cluster.sim.call_at(100.0, cluster.fabric.set_alive, 0, False)
    replies = []

    def client():
        reply = yield b.call(0, "work", b"x", timeout_ns=1_000.0)
        replies.append(reply)

    cluster.sim.process(client())
    cluster.run()
    from repro.common.errors import ShardCrashedError

    assert isinstance(replies[0], ShardCrashedError)
    assert b.timed_out_calls == 1
