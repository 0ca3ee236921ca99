"""Unit tests for the discrete-event kernel.

The example tests pin the kernel contract case by case; the property
test at the end drives random programs against a reference model kept
in this file.
"""

import math
import random
import signal

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.common.errors import SimulationError
from repro.sim.engine import _COMPACT_MIN_CANCELLED, Simulator


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_later_ordering():
    sim = Simulator()
    order = []
    sim.call_later(5.0, lambda: order.append("b"))
    sim.call_later(1.0, lambda: order.append("a"))
    sim.call_later(9.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0


def test_fifo_among_equal_times():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.call_later(3.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_cannot_schedule_in_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1.0, lambda: None)


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.call_later(10.0, lambda: fired.append(1))
    stopped = sim.run(until=5.0)
    assert stopped == 5.0
    assert fired == []
    sim.run()
    assert fired == [1]


def test_timeout_process():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(4.0)
        seen.append(sim.now)
        yield sim.timeout(6.0)
        seen.append(sim.now)
        return "done"

    p = sim.process(proc())
    sim.run()
    assert seen == [4.0, 10.0]
    assert p.value == "done"


def test_process_waits_on_event():
    sim = Simulator()
    gate = sim.event()
    seen = []

    def opener():
        yield sim.timeout(7.0)
        gate.succeed("opened")

    def waiter():
        value = yield gate
        seen.append((sim.now, value))

    sim.process(opener())
    sim.process(waiter())
    sim.run()
    assert seen == [(7.0, "opened")]


def test_event_double_succeed_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_late_callback_on_triggered_event_still_fires():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(42)
    seen = []
    sim.run()
    ev.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == [42]


def test_process_waiting_on_process():
    sim = Simulator()
    log = []

    def child():
        yield sim.timeout(3.0)
        return "child-result"

    def parent():
        result = yield sim.process(child())
        log.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert log == [(3.0, "child-result")]


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-0.5)


def test_peek():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.call_later(3.5, lambda: None)
    assert sim.peek() == 3.5


# ----------------------------------------------------------------------
# scheduled-call cancellation and heap compaction
# ----------------------------------------------------------------------


def test_cancelled_call_never_runs():
    sim = Simulator()
    fired = []
    handle = sim.call_later(5.0, lambda: fired.append("a"))
    sim.call_later(6.0, lambda: fired.append("b"))
    sim.cancel_call(handle)
    sim.run()
    assert fired == ["b"]
    assert sim.now == 6.0


def test_cancel_is_idempotent_and_safe_after_fire():
    sim = Simulator()
    fired = []
    handle = sim.call_later(1.0, lambda: fired.append(1))
    sim.run()
    assert fired == [1]
    sim.cancel_call(handle)  # already ran: no-op
    sim.cancel_call(handle)
    assert sim.live_calls == 0


def test_peek_skips_cancelled_entries():
    sim = Simulator()
    early = sim.call_later(1.0, lambda: None)
    sim.call_later(9.0, lambda: None)
    sim.cancel_call(early)
    assert sim.peek() == 9.0


def test_fifo_order_survives_interleaved_cancels():
    sim = Simulator()
    order = []
    handles = [
        sim.call_later(3.0, lambda i=i: order.append(i)) for i in range(6)
    ]
    for i in (1, 4):
        sim.cancel_call(handles[i])
    sim.run()
    assert order == [0, 2, 3, 5]


def test_mass_cancellation_compacts_heap():
    """The failover soak pattern: schedule far-future watchdogs, cancel
    nearly all of them.  Lazy deletion alone would hold every dead
    entry until its deadline; compaction keeps the heap at the size of
    the live work."""
    sim = Simulator()
    handles = [sim.call_later(1e6 + i, lambda: None) for i in range(5000)]
    for handle in handles[:4900]:
        sim.cancel_call(handle)
    assert sim.compactions >= 1
    assert sim.heap_size < 1000  # ~100 live + bounded cancelled residue
    assert sim.live_calls == 100
    sim.run()
    assert sim.heap_size == 0


def test_compaction_during_run_is_safe():
    """Cancelling (and thereby compacting) from inside a callback must
    not confuse the run loop's view of the heap."""
    sim = Simulator()
    fired = []
    victims = [sim.call_later(50.0 + i, lambda: fired.append("dead"))
               for i in range(200)]

    def killer():
        for handle in victims:
            sim.cancel_call(handle)
        fired.append("killed")

    sim.call_later(1.0, killer)
    sim.call_later(100.0, lambda: fired.append("tail"))
    sim.run()
    assert fired == ["killed", "tail"]
    assert sim.now == 100.0


def test_drop_pending_during_run_is_safe():
    """Dropping from inside a callback empties both lanes under the run
    loop; what the callback schedules afterwards still fires, and the
    dropped handles (live or already cancelled) are inert."""
    sim = Simulator()
    fired = []
    doomed = [sim.call_later(5.0 + i, fired.append, "dead") for i in range(100)]
    sim.cancel_call(doomed[0])

    def dropper():
        doomed.append(sim.call_soon(fired.append, "dead"))
        sim.drop_pending()
        sim.call_later(2.0, fired.append, "after")

    sim.call_later(1.0, dropper)
    scheduled = sim.events_scheduled
    sim.run()
    assert fired == ["after"] and sim.now == 3.0
    assert sim.events_scheduled == scheduled + 2
    for handle in doomed:
        sim.cancel_call(handle)
    assert sim.heap_size == sim.live_calls == 0 and sim.events_cancelled == 1


# ----------------------------------------------------------------------
# self-cancellation during fire (regression: must be a clean no-op,
# not a double-compaction accounting bug)
# ----------------------------------------------------------------------


class TestSelfCancelDuringFire:
    def test_handle_cancelled_inside_its_own_callback(self, sim):
        """A callback cancelling its *own* handle mid-fire must not
        skew the cancelled count: the entry was already consumed, so
        the cancel is a no-op and later live entries still run."""
        fired = []
        handles = {}

        def selfish():
            sim.cancel_call(handles["me"])  # already consumed: no-op
            sim.cancel_call(handles["me"])  # idempotent too
            fired.append("selfish")

        handles["me"] = sim.call_later(1.0, selfish)
        sim.call_later(2.0, lambda: fired.append("tail"))
        sim.run()
        assert fired == ["selfish", "tail"]
        assert sim.live_calls == 0
        assert sim.heap_size == 0

    def test_self_cancel_does_not_poison_compaction_accounting(self, sim):
        """The accounting bug this pins down: if a self-cancel were
        counted, ``_cancelled`` would exceed the real dead-entry count
        and a later compaction would drive it negative — visible as
        ``live_calls`` over-reporting.  Mass-cancel after a burst of
        self-cancels and check every invariant."""
        fired = []
        handles = []

        def selfish(i):
            sim.cancel_call(handles[i])
            fired.append(i)

        for i in range(50):
            handles.append(sim.call_later(1.0 + i, lambda i=i: selfish(i)))
        victims = [sim.call_later(1e6 + i, lambda: fired.append("dead"))
                   for i in range(200)]
        sim.run(until=500.0)
        assert fired == list(range(50))
        for v in victims:
            sim.cancel_call(v)
        assert sim.live_calls == 0
        sim.run()
        assert fired == list(range(50))
        assert sim.heap_size == 0
        assert sim.live_calls == 0

    def test_cancel_sibling_scheduled_at_same_time(self, sim):
        """Cancelling a same-timestamp later sibling from inside a
        firing callback must suppress it."""
        fired = []
        sibling = {}

        def first():
            fired.append("first")
            sim.cancel_call(sibling["h"])

        sim.call_later(3.0, first)
        sibling["h"] = sim.call_later(3.0, lambda: fired.append("second"))
        sim.call_later(3.0, lambda: fired.append("third"))
        sim.run()
        assert fired == ["first", "third"]
        assert sim.heap_size == 0

    def test_reschedule_self_from_callback(self, sim):
        """A callback rescheduling itself gets a fresh handle; the
        consumed one stays dead."""
        fired = []
        state = {}

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                state["h"] = sim.call_later(5.0, tick)
                sim.cancel_call(state["h"])  # cancel the *new* one...
                state["h"] = sim.call_later(10.0, tick)  # ...keep this

        state["h"] = sim.call_later(10.0, tick)
        sim.run()
        assert fired == [10.0, 20.0, 30.0]
        assert sim.heap_size == 0


# ----------------------------------------------------------------------
# review regressions: past `until`, infinite delays
# ----------------------------------------------------------------------


def test_run_until_past_time_is_a_noop(sim):
    """``run(until)`` with ``until`` before ``now`` must not move the
    clock backwards (the immediate lane is sorted only because time
    is non-decreasing)."""
    fired = []
    sim.call_later(20.0, lambda: fired.append("a"))
    sim.run()
    assert sim.now == 20.0
    assert sim.run(until=5.0) == 20.0  # no-op, clock untouched
    assert sim.now == 20.0
    sim.call_later(0.0, lambda: fired.append("b"))
    sim.call_later(1.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 21.0


def test_infinite_delay_fires_and_run_terminates(sim):
    """A ``float('inf')`` deadline must fire (at t=inf) and the run
    must end."""
    fired = []
    sim.call_later(float("inf"), lambda: fired.append("end-of-time"))
    sim.call_later(3.0, lambda: fired.append("soon"))
    sim.run()
    assert fired == ["soon", "end-of-time"]
    assert sim.heap_size == 0


@pytest.fixture
def alarm():
    """A hang is a failure: SIGALRM aborts the test after 10 s."""

    def on_alarm(signum, frame):
        raise AssertionError("simulator hung")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_nan_times_are_rejected_not_scheduled(sim, alarm):
    """Regression: ``call_later(nan)`` passed the ``delay < 0`` guard
    and ``run()`` then spun forever on an entry no comparison could
    order.  Every entry point must refuse NaN — including the NaN that
    ``call_at(inf)`` makes of ``inf - inf`` once the clock is at inf."""
    nan = float("nan")
    fired = []
    sim.call_at(1.0, fired.append, "ok")
    for schedule in (
        lambda: sim.call_later(nan, fired.append, "later"),
        lambda: sim.call_at(nan, fired.append, "at"),
        lambda: sim.timeout(nan),
    ):
        with pytest.raises(SimulationError):
            schedule()
    assert sim.run() == 1.0
    assert fired == ["ok"]  # nothing of the refused calls landed
    sim.call_later(float("inf"), fired.append, "end")
    assert sim.run() == float("inf")
    with pytest.raises(SimulationError):
        sim.call_at(float("inf"), fired.append, "nan")
    sim.run()
    assert fired == ["ok", "end"]
    assert sim.heap_size == 0 and not math.isnan(sim.now)


def test_deep_pending_set_drains_in_order_through_run_slices(alarm):
    """The large-object regime: tens of thousands of pending timers,
    new work scheduled while they drain, ``run(until)`` in slices."""
    sim = Simulator()
    rng = random.Random(16)
    fired = []

    def fire(tag, respawn):
        fired.append((sim.now, tag))
        if respawn:
            sim.call_later(rng.choice((0.0, 3.0, 40_000.0)), fire, -tag, False)

    expected = []
    for tag in range(1, 24_001):
        when = float(rng.randrange(1_000, 1_000_000))  # many equal times
        sim.call_at(when, fire, tag, tag % 7 == 0)
        expected.append((when, tag))
    assert sim.peek() == min(expected)[0]
    for edge in range(0, 1_100_000, 50_000):
        assert sim.run(until=float(edge)) == float(edge)
        assert all(when <= edge for when, _ in fired)
        assert sim.peek() > edge
    assert sim.live_calls == sim.heap_size == 0
    assert sim.events_fired == len(fired) == 24_000 + 24_000 // 7
    # Equal times fire in scheduling order, so sorted() is the oracle.
    assert [f for f in fired if f[1] > 0] == sorted(expected)
    assert fired == sorted(fired, key=lambda f: f[0])


# ----------------------------------------------------------------------
# property test: random programs against a reference model
# ----------------------------------------------------------------------

INF = float("inf")


class ModelSimulator:
    """The reference scheduler: one list, stably re-sorted by
    ``(when, seq)`` on every insert; cancelling removes the entry."""

    def __init__(self):
        self.now = 0.0
        self.events_scheduled = self.events_fired = 0
        self.pending = []

    def _push(self, when, fn, args):
        if not when >= self.now:
            raise SimulationError(f"cannot schedule in the past: {when}")
        self.events_scheduled += 1
        entry = [when, self.events_scheduled, fn, args]
        self.pending.append(entry)
        self.pending.sort(key=lambda e: (e[0], e[1]))
        return entry

    def call_later(self, delay, fn, *args):
        return self._push(self.now + delay, fn, args)

    def call_at(self, when, fn, *args):
        return self._push(self.now + (when - self.now), fn, args)

    def call_soon(self, fn, *args):
        return self._push(self.now, fn, args)

    def cancel_call(self, handle):
        self.pending = [e for e in self.pending if e is not handle]

    def peek(self):
        return self.pending[0][0] if self.pending else INF

    def drop_pending(self):
        self.pending = []

    def run(self, until=INF):
        if until < self.now:
            return self.now
        while self.pending and self.pending[0][0] <= until:
            self.now, _seq, fn, args = self.pending.pop(0)
            self.events_fired += 1
            fn(*args)
        if until != INF:
            self.now = until
        return self.now

    @property
    def live_calls(self):
        return len(self.pending)

    heap_size = live_calls


#: Zero, repeated values (equal times), a delay that vanishes against a
#: large clock, a far horizon, and the end of time.
DELAYS = st.one_of(
    st.sampled_from([0.0, 1.0, 1.0, 7.0, 7.0, 1e-9, 1e12, INF]),
    st.floats(0.0, 50.0),
)


def _scripts(children):
    """What a callback does when it fires: schedule more callbacks
    (each running ``children``), cancel earlier handles, peek."""
    return st.lists(
        st.one_of(
            st.tuples(st.just("later"), DELAYS, children),
            st.tuples(st.just("at"), DELAYS, children),
            st.tuples(st.just("soon"), children),
            st.tuples(st.just("cancel"), st.integers(0, 10**6)),
            st.tuples(st.just("peek")),
        ),
        max_size=4,
    )


SCRIPTS = st.recursive(st.just([]), _scripts, max_leaves=10)


def _fire(sim, log, handles, tag, script):
    log.append((sim.now, tag))
    _execute(sim, log, handles, script)


def _execute(sim, log, handles, script):
    """Run ``script`` against ``sim`` — the engine or the model; both
    see the same calls and must leave the same ``log``."""
    ctx = (sim, log, handles)
    for op, *rest in script:
        tag = len(handles)
        try:
            if op == "later":
                delay, child = rest
                handles.append(sim.call_later(delay, _fire, *ctx, tag, child))
            elif op == "at":
                offset, child = rest
                handles.append(
                    sim.call_at(sim.now + offset, _fire, *ctx, tag, child)
                )
            elif op == "soon":
                handles.append(sim.call_soon(_fire, *ctx, tag, rest[0]))
            elif op == "cancel":
                if handles:
                    handle = handles[rest[0] % len(handles)]
                    pending = handle[2] is not None
                    sim.cancel_call(handle)
                    # The compaction policy's bound, where it is applied:
                    # after a cancel that took effect.  A no-op cancel (a
                    # handle already fired or cancelled) applies nothing,
                    # and live entries fired since the last compaction
                    # may have left the cancelled ones in the majority.
                    if pending:
                        assert sim.heap_size <= 2 * sim.live_calls + 64
            else:
                log.append(("peek", sim.peek()))
        except SimulationError:
            # inf - inf: scheduling "at inf" once the clock is there.
            log.append(("rejected", op))


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sides = [(Simulator(), [], []), (ModelSimulator(), [], [])]

    @rule(script=SCRIPTS)
    def schedule(self, script):
        for sim, log, handles in self.sides:
            _execute(sim, log, handles, script)

    @rule(
        count=st.integers(_COMPACT_MIN_CANCELLED, 3 * _COMPACT_MIN_CANCELLED),
        keep_every=st.integers(2, 9),
        delay=st.sampled_from([5.0, 1e6]),
    )
    def watchdog_storm(self, count, keep_every, delay):
        """Arm many timers and cancel most: crosses the compaction
        threshold with live entries interleaved among the dead."""
        arm = [("later", delay + i % 3, [("peek",)]) for i in range(count)]
        for sim, log, handles in self.sides:
            first = len(handles)
            _execute(sim, log, handles, arm)
            disarm = [
                ("cancel", first + i) for i in range(count) if i % keep_every
            ]
            _execute(sim, log, handles, disarm)

    @rule(offset=st.one_of(st.just(-1.0), DELAYS))
    def run_until(self, offset):
        ends = [sim.run(until=sim.now + offset) for sim, _, _ in self.sides]
        assert ends[0] == ends[1]

    @rule()
    def drop_pending(self):
        """Abandon the pending set between runs; later ``cancel`` ops
        that name a dropped handle must stay no-ops."""
        for sim, _, _ in self.sides:
            scheduled = sim.events_scheduled
            sim.drop_pending()
            assert sim.heap_size == sim.live_calls == 0
            assert sim.events_scheduled == scheduled
        assert self.sides[0][0]._cancelled == 0

    @rule()
    def run_to_completion(self):
        for sim, _, _ in self.sides:
            sim.run()
            assert sim.heap_size == 0

    @invariant()
    def engine_matches_model(self):
        (sim, log, _), (model, model_log, _) = self.sides
        assert log == model_log
        assert sim.now == model.now
        assert sim.events_fired == model.events_fired
        assert sim.events_scheduled == model.events_scheduled
        assert sim.live_calls == model.live_calls
        assert sim.peek() == model.peek()


SchedulerMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=25, deadline=None
)
test_random_programs_match_the_model = SchedulerMachine.TestCase
