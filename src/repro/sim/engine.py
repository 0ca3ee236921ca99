"""Event loop, events, and generator-based processes.

The loop dispatches callbacks strictly in ``(time, sequence)`` order,
so the same seeds produce the same event order and byte-identical
sweep artifacts.  Zero-delay callbacks (event dispatch, process
starts) ride a FIFO deque with no ordering work at all; every other
callback sits in one binary heap, but for a run of evenly spaced
calls (:meth:`Simulator.call_run`), which keeps only its next call
there.  See :class:`Simulator`.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Optional

from repro.common.errors import SimulationError


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event is *triggered* once its outcome (value) is decided and
    its dispatch scheduled, and *dispatched* once its callbacks ran.
    Callbacks added before dispatch are queued; callbacks added after
    dispatch run on the next loop iteration.
    """

    __slots__ = ("sim", "_callbacks", "_value", "_triggered", "_dispatched")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        # None (no subscribers), a single callable (the overwhelmingly
        # common case: one waiter per event), or a list of callables.
        self._callbacks: Any = None
        self._value: Any = None
        self._triggered = False
        self._dispatched = False

    @property
    def value(self) -> Any:
        return self._value

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._dispatched:
            # Late subscribers run immediately (still inside the loop).
            self.sim.call_later(0.0, lambda: fn(self))
            return
        cbs = self._callbacks
        if cbs is None:
            self._callbacks = fn
        elif type(cbs) is list:
            cbs.append(fn)
        else:
            self._callbacks = [cbs, fn]

    def succeed(self, value: Any = None) -> "Event":
        """Trigger this event now: its callbacks run on the immediate
        lane."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim.call_soon(self._dispatch)
        return self

    def _dispatch(self) -> None:
        self._dispatched = True
        cbs = self._callbacks
        self._callbacks = None
        if cbs is None:
            return
        if type(cbs) is list:
            for fn in cbs:
                fn(self)
        else:
            cbs(self)


class Process(Event):
    """Drives a generator; itself an event that triggers on return.

    The generator waits in one of two ways: it yields an :class:`Event`
    and is resumed with the event's value once it dispatches, or it
    yields a bare ``int``/``float`` delay in ns and is resumed with
    ``None`` that much later.  A delay is one scheduled callback, in the
    ``(when, seq)`` slot an event dispatching at that time would take,
    with no event allocated.  :meth:`Simulator.process` schedules the
    first step.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: "Simulator", gen: Generator[Any, Any, Any]):
        super().__init__(sim)
        self._gen = gen

    def _resume(self, event: Event) -> None:
        self._step(event._value)

    def _step(self, value: Any) -> None:
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        cls = type(target)
        if cls is float or cls is int:
            # call_later refuses a negative or NaN delay.
            self.sim.call_later(target, self._step, None)
        elif isinstance(target, Event):
            target.add_callback(self._resume)
        else:
            raise SimulationError(
                f"process yielded {target!r}; processes must yield "
                f"Events or delays"
            )


#: A scheduled callback: ``[when, seq, fn, args]``.  ``fn`` is set to
#: ``None`` on cancellation; the entry stays in the scheduler until the
#: run loop (or a compaction) reaps it.
ScheduledCall = list

#: Compaction policy: rebuild the pending set once at least this many
#: entries are cancelled *and* they make up at least half of it.  The
#: floor keeps tiny sims from compacting constantly; the ratio bounds
#: scheduler size at ~2x the live entries, so long soaks that
#: schedule-and-cancel (RPC watchdogs, lease timers) cannot grow the
#: pending set without bound.
_COMPACT_MIN_CANCELLED = 64


def block_mode() -> str:
    # A provenance label bench/run.py prints and its smoke test pins,
    # like Simulator.scheduler: there is one block chain (one call_at
    # per block), nothing selects it, and the value stays "batched"
    # until the next benchmark PR drops the field.
    return "batched"


class _Run:
    """The calls of one :meth:`Simulator.call_run` not yet fired.  Only
    call ``i`` is in the heap; firing it pushes call ``i + 1`` before
    ``fn`` runs, so nothing can pop in between."""

    __slots__ = ("sim", "fn", "args", "origin", "t", "step", "seq", "i", "count")

    def __init__(
        self,
        sim: "Simulator",
        first: float,
        step: float,
        count: int,
        fn: Callable[..., None],
        args: tuple,
    ) -> None:
        self.sim = sim
        self.fn = fn
        self.args = args
        #: The clock at scheduling time, which normalises each time the
        #: way call_at would have then.
        self.origin = sim._now
        self.t = first
        self.step = step
        self.seq = sim._seq + 1
        self.i = 0
        self.count = count

    def fire(self) -> None:
        i = self.i
        self.i = nxt = i + 1
        if nxt < self.count:
            self.t = t = self.t + self.step
            origin = self.origin
            sim = self.sim
            sim._backlog -= 1
            heappush(
                sim._heap, [origin + (t - origin), self.seq + nxt, self.fire, ()]
            )
        self.fn(*self.args, i)


class _RunClosed(Exception):
    """Unwinds :meth:`Simulator.run` when :meth:`Simulator.close` is
    called from inside one of its callbacks."""


#: When set to a list, every new :class:`Simulator` appends itself here.
#: The repo benchmark (``bench/run.py``) and the golden event counts
#: (``tools/golden.py``) use this to aggregate event counts across all
#: simulators a run builds; it is ``None`` (one pointer check per
#: Simulator construction) otherwise.
TRACKED_SIMULATORS: Optional[list] = None


class Simulator:
    """The event loop.  Time is in nanoseconds.

    Pending callbacks are ``[when, seq, fn, args]`` entries in one of
    two containers that together dispatch in strict ``(when, seq)``
    order:

    * ``_imm`` — zero-delay callbacks (event dispatch, process starts),
      a plain FIFO deque.  Every entry is stamped with ``now`` when it
      is appended, and simulation time and the sequence counter are
      both non-decreasing, so the deque is already sorted by
      ``(when, seq)``: scheduling and consuming cost no comparisons.
    * ``_heap`` — everything else, a binary heap (``heapq``) ordered by
      the entries themselves; ``seq`` is unique, so a comparison never
      reaches ``fn``.  A run (:meth:`call_run`) has one entry here, its
      next call; ``_backlog`` counts the calls after it.

    The run loop fires whichever head is smaller.  Both containers
    mutate **in place** (never rebound), so the loop can hold direct
    references across callbacks that schedule, cancel, or compact.
    """

    __slots__ = (
        "_now",
        "_seq",
        "_running",
        "_closed",
        "_cancelled",
        "_backlog",
        "compactions",
        "events_fired",
        "events_cancelled",
        "_imm",
        "_heap",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._closed = False
        self._cancelled = 0
        #: Calls of pending runs (:meth:`call_run`) not yet in the heap.
        self._backlog = 0
        self.compactions = 0
        self.events_fired = 0
        #: Monotonic count of :meth:`cancel_call` cancellations — unlike
        #: ``_cancelled`` (pending tombstones) this never decreases, so
        #: the perf harness can explain ``events_scheduled`` vs
        #: ``events_fired`` divergence in cancellation-heavy scenarios.
        self.events_cancelled = 0
        self._imm: deque[ScheduledCall] = deque()
        self._heap: list[ScheduledCall] = []
        if TRACKED_SIMULATORS is not None:
            TRACKED_SIMULATORS.append(self)

    @property
    def now(self) -> float:
        return self._now

    @property
    def scheduler(self) -> str:
        # A provenance label bench/run.py prints and its smoke test
        # pins (the scheduler is the deque + heap above, whatever the
        # label says); the next benchmark PR drops the field.
        return "calendar"

    @property
    def events_scheduled(self) -> int:
        """Total callbacks ever scheduled on this simulator."""
        return self._seq

    # -- scheduling -----------------------------------------------------
    def call_later(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> ScheduledCall:
        """Run ``fn(*args)`` at ``now + delay``; FIFO among equal times.

        ``call_later``, :meth:`call_at`, :meth:`call_soon` and
        :meth:`call_run` are the only ways to schedule a callback.
        Passing ``args`` positionally avoids a closure allocation per
        scheduled call — the hot paths (packet delivery, block reads)
        schedule bound methods with their arguments.
        Returns the scheduled-call handle; pass it to
        :meth:`cancel_call` to cancel before it fires."""
        # Written so that NaN is rejected too: it would sit in the heap
        # comparing false against everything.
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._seq = seq = self._seq + 1
        entry: ScheduledCall = [self._now + delay, seq, fn, args]
        if delay == 0.0:
            self._imm.append(entry)
        else:
            heappush(self._heap, entry)
        return entry

    def call_at(
        self, when: float, fn: Callable[..., None], *args: Any
    ) -> ScheduledCall:
        now = self._now
        # Same arithmetic as call_later (now + (when - now)): the two
        # entry points must produce bit-identical times.
        at = now + (when - now)
        # NaN-rejecting, like call_later's guard; checked after the
        # normalisation because inf - inf is NaN too.
        if not at >= now:
            raise SimulationError(f"cannot schedule in the past: {when}")
        self._seq = seq = self._seq + 1
        entry: ScheduledCall = [at, seq, fn, args]
        if at == now:
            self._imm.append(entry)
        else:
            heappush(self._heap, entry)
        return entry

    def call_soon(
        self, fn: Callable[..., None], *args: Any
    ) -> ScheduledCall:
        """``call_later(0.0, fn, *args)`` without the delay plumbing —
        the immediate-lane fast path for event dispatch."""
        self._seq = seq = self._seq + 1
        entry: ScheduledCall = [self._now, seq, fn, args]
        self._imm.append(entry)
        return entry

    def call_run(
        self,
        first: float,
        step: float,
        count: int,
        fn: Callable[..., None],
        *args: Any,
    ) -> None:
        """Run ``fn(*args, i)`` for each ``i`` in ``range(count)``, at
        ``first`` and then every ``step`` ns: the times, sequence
        numbers and order that ``count`` :meth:`call_at` calls made now
        would give, each time the running sum ``t = t + step``.

        The run takes its ``count`` sequence numbers now, but only its
        next call is in the heap; it counts in ``events_scheduled``,
        ``heap_size`` and ``live_calls`` like ``count`` entries.  A run
        returns no handle and cannot be cancelled; :meth:`drop_pending`
        and :meth:`close` drop it."""
        if count <= 0:
            return
        now = self._now
        at = now + (first - now)
        if not (at >= now and step >= 0):
            raise SimulationError(
                f"cannot schedule in the past: {first} every {step}"
            )
        run = _Run(self, first, step, count, fn, args)
        self._seq += count
        self._backlog += count - 1
        heappush(self._heap, [at, run.seq, run.fire, ()])

    def cancel_call(self, handle: ScheduledCall) -> None:
        """Cancel a scheduled callback (no-op if it already ran or was
        already cancelled).  Cancelled entries are reaped lazily; once
        enough accumulate the pending set is compacted in place, so its
        size stays proportional to *live* entries even in soaks that
        cancel most of what they schedule."""
        if handle[2] is None:
            return
        handle[2] = None
        self._cancelled += 1
        self.events_cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= self.heap_size
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries, in place (the run loop holds
        references to both containers)."""
        live_imm = [e for e in self._imm if e[2] is not None]
        self._imm.clear()
        self._imm.extend(live_imm)
        self._heap[:] = [e for e in self._heap if e[2] is not None]
        heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    def drop_pending(self) -> None:
        """Abandon every pending callback: none of them will run.

        For a simulation that ends before its queue drains (a run that
        stops at its measurement instant).  The containers empty in
        place, which releases what the callbacks' arguments held now
        instead of whenever the cyclic garbage of a dead simulation is
        collected; the handles read as consumed, so a late
        :meth:`cancel_call` on one stays a no-op."""
        for entry in self._imm:
            entry[2] = None
        for entry in self._heap:
            entry[2] = None
        self._imm.clear()
        self._heap.clear()
        self._cancelled = 0
        self._backlog = 0

    def close(self) -> None:
        """End this simulation for good: drop what is pending and
        refuse every later :meth:`run`.  The clock and the counters
        stay readable.

        Called from inside a callback, the run in progress returns as
        soon as that callback does, at the current time.  The loop
        tests no flag per event for this: the one entry left behind
        sorts before anything the closing callback goes on to schedule
        (it takes the current sequence number without consuming one)
        and unwinds the loop when it fires."""
        self.drop_pending()
        self._closed = True
        if self._running:
            self._imm.append([self._now, self._seq, self._end_run, ()])

    def _end_run(self) -> None:
        self.drop_pending()
        raise _RunClosed

    @property
    def heap_size(self) -> int:
        """Total pending callbacks, including not-yet-reaped
        cancellations and the calls runs have not yet pushed."""
        return len(self._imm) + len(self._heap) + self._backlog

    @property
    def live_calls(self) -> int:
        """Scheduled callbacks that will actually run."""
        return self.heap_size - self._cancelled

    # -- event / process factories ---------------------------------------
    def event(self) -> Event:
        return Event(self)

    def process(self, gen: Generator[Any, Any, Any]) -> Process:
        proc = Process(self, gen)
        self.call_soon(proc._step, None)
        return proc

    # -- execution --------------------------------------------------------
    def run(self, until: float = float("inf")) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if self._closed:
            raise SimulationError("simulator is closed")
        if until < self._now:
            # Running "until" a past time is a no-op; silently moving
            # the clock backwards would corrupt the immediate lane's
            # sorted-by-construction invariant.
            return self._now
        self._running = True
        fired = 0
        # Both containers only ever mutate in place, so these
        # references stay valid across compactions.
        imm = self._imm
        heap = self._heap
        pop_imm = imm.popleft
        try:
            while True:
                # Strict (when, seq) order: entries compare as lists.
                if heap and not (imm and imm[0] < heap[0]):
                    entry = heap[0]
                    fn = entry[2]
                    if fn is None:  # cancelled: reap and keep going
                        heappop(heap)
                        self._cancelled -= 1
                        continue
                    when = entry[0]
                    if when > until:
                        self._now = until
                        break
                    heappop(heap)
                elif imm:
                    # No ``until`` check: an immediate entry carries the
                    # ``now`` it was appended at, which never passes
                    # ``until`` while this loop runs.
                    entry = pop_imm()
                    fn = entry[2]
                    if fn is None:
                        self._cancelled -= 1
                        continue
                    when = entry[0]
                else:
                    if until != float("inf"):
                        self._now = until
                    break
                # Mark consumed so a late cancel_call on this handle is
                # a clean no-op instead of skewing the cancelled count.
                entry[2] = None
                self._now = when
                fired += 1
                args = entry[3]
                if args:
                    fn(*args)
                else:
                    fn()
        except _RunClosed:
            fired -= 1  # the entry close() left is not an event
        finally:
            self._running = False
            self.events_fired += fired
        return self._now

    def peek(self) -> float:
        """Time of the next *live* scheduled callback (inf if none)."""
        imm = self._imm
        while imm and imm[0][2] is None:
            imm.popleft()
            self._cancelled -= 1
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._cancelled -= 1
        best = heap[0][0] if heap else float("inf")
        if imm and imm[0][0] < best:
            best = imm[0][0]
        return best
