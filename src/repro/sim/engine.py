"""Event loop, events, and generator-based processes.

Two interchangeable schedulers back the loop:

* The default **calendar scheduler** exploits the near-future event
  pattern of RPC and transfer completions: zero-delay callbacks (event
  dispatch, process starts) ride a FIFO *immediate lane* with no
  ordering work at all, short delays land in a sorted *near window*,
  and everything past the adaptive horizon sits unsorted in a *far
  bucket* that is batch-sorted into the near window when the horizon
  advances.
* The legacy **binary-heap scheduler** (``REPRO_SIM_SCHEDULER=heap`` or
  ``Simulator(scheduler="heap")``) is kept for one release as the
  determinism reference.

Both dispatch strictly in ``(time, sequence)`` order, so the same seeds
produce the same event order — and byte-identical sweep artifacts —
under either implementation (pinned by
``tests/test_engine_determinism.py``).
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_right, insort
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.common.errors import SimulationError


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    ``triggered`` means the outcome (value) has been decided and
    dispatch is scheduled; ``dispatched`` means callbacks have run.
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
    def triggered(self) -> bool:
        return self._triggered

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

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger this event ``delay`` ns from now (default: now)."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        if delay == 0.0:
            self.sim.call_soon(self._dispatch)
        else:
            self.sim.call_later(delay, self._dispatch)
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


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Fields set directly (not via Event.__init__): timeouts are
        # the most-allocated event type on the hot path.
        self.sim = sim
        self._callbacks = None
        self._value = value
        self._triggered = True
        self._dispatched = False
        sim.call_later(delay, self._dispatch)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Drives a generator; itself an event that triggers on return."""

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any]):
        super().__init__(sim)
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        sim.call_later(0.0, self._step, None, None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point."""
        if self._triggered:
            return
        target = self._waiting_on
        if target is not None:
            self._waiting_on = None
        self.sim.call_later(0.0, self._step, None, Interrupt(cause))

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale wakeup (e.g. interrupted while waiting)
        self._waiting_on = None
        self._step(event.value, None)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if self._triggered:
            return
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Events"
            )
        self._waiting_on = target
        target.add_callback(self._resume)


class AllOf(Event):
    """Triggers when all child events have triggered.

    The barrier's value is the list of child event values in *trigger*
    order (the order the children completed, not construction order);
    an empty barrier triggers immediately with ``[]``.
    """

    __slots__ = ("_pending", "_values")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._pending = len(events)
        self._values: list[Any] = []
        if not events:
            self.succeed([])
            return
        for ev in events:
            ev.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        self._values.append(event.value)
        self._pending -= 1
        if self._pending == 0 and not self._triggered:
            self.succeed(self._values)


#: A scheduled callback: ``[when, seq, fn, args]``.  ``fn`` is set to
#: ``None`` on cancellation; the entry stays in the scheduler until the
#: run loop (or a compaction) reaps it.  (The calendar scheduler's near
#: lane stores ``when``/``seq`` negated; handles are opaque either way.)
ScheduledCall = list

#: Compaction policy: rebuild the pending set once at least this many
#: entries are cancelled *and* they make up at least half of it.  The
#: floor keeps tiny sims from compacting constantly; the ratio bounds
#: scheduler size at ~2x the live entries, so long soaks that
#: schedule-and-cancel (RPC watchdogs, lease timers) cannot grow the
#: pending set without bound.
_COMPACT_MIN_CANCELLED = 64

#: Env var selecting the default scheduler implementation.
SCHEDULER_ENV = "REPRO_SIM_SCHEDULER"

#: Env var selecting the block-stream kernel: ``batched`` (default)
#: schedules whole runs of per-block callbacks through
#: :meth:`Simulator.schedule_batch`; ``stepwise`` keeps the original
#: one-``call_at``-per-block path as the determinism reference (the
#: same pattern as the heap-vs-calendar scheduler switch).
BLOCKS_ENV = "REPRO_SIM_BLOCKS"


def block_mode() -> str:
    """The configured block-stream mode: ``batched`` or ``stepwise``.

    Read once at component construction (nodes, R2P2 engines), so a
    simulation never changes mode mid-flight."""
    mode = os.environ.get(BLOCKS_ENV, "batched")
    if mode not in ("batched", "stepwise"):
        raise SimulationError(
            f"unknown block mode {mode!r}; use 'batched' or 'stepwise'"
        )
    return mode

#: Calendar tuning: starting near-window width (ns) and the refill
#: batch sizes that widen/narrow it.  Pure throughput knobs — the
#: dispatch order is (time, seq) regardless, so these never affect
#: simulation results.
_NEAR_WINDOW_START_NS = 256.0
_REFILL_TOO_BIG = 256
_REFILL_TOO_SMALL = 16

#: When set to a list, every new :class:`Simulator` appends itself here.
#: The repo benchmark (``bench/run.py``) and the golden event counts
#: (``tools/golden.py``) use this to aggregate event counts across all
#: simulators a run builds; it is ``None`` (one pointer check per
#: Simulator construction) otherwise.
TRACKED_SIMULATORS: Optional[list] = None


class Simulator:
    """The event loop.  Time is in nanoseconds.

    This is the calendar scheduler.  Pending callbacks live in one of
    three lanes, all holding ``[when, seq, fn]`` entries and together
    dispatching in strict ``(when, seq)`` order:

    * ``_imm`` — zero-delay callbacks, a plain FIFO deque.  Because
      simulation time and the sequence counter are both non-decreasing,
      the deque is already sorted by ``(when, seq)``; scheduling and
      consuming cost no comparisons at all.
    * ``_near`` — callbacks due before ``_horizon``, kept sorted on
      *negated* ``(-when, -seq)`` keys so the next entry to fire sits at
      the list **end**: consuming is an O(1) ``pop()``, and the
      dominant insert pattern (a delay that fires soon) lands near the
      end too, so ``insort`` barely moves memory.
    * ``_far`` — everything at or past the horizon, unsorted, appended
      in O(1).  When the near window drains, a batch of the earliest
      far entries is moved over and sorted once (C timsort), and the
      window width adapts toward a target batch size.

    All three lanes mutate **in place** (never rebound), so the run
    loop can hold direct references across callbacks that schedule,
    cancel, or compact.

    ``Simulator(scheduler="heap")`` — or ``REPRO_SIM_SCHEDULER=heap`` —
    constructs the legacy binary-heap implementation instead.
    """

    __slots__ = (
        "_now",
        "_seq",
        "_running",
        "_cancelled",
        "compactions",
        "events_fired",
        "events_cancelled",
        "_imm",
        "_near",
        "_far",
        "_horizon",
        "_width",
    )

    def __new__(cls, scheduler: Optional[str] = None) -> "Simulator":
        if cls is Simulator:
            chosen = scheduler or os.environ.get(SCHEDULER_ENV, "calendar")
            if chosen == "heap":
                return object.__new__(_HeapSimulator)
            if chosen != "calendar":
                raise SimulationError(
                    f"unknown scheduler {chosen!r}; use 'calendar' or 'heap'"
                )
        return object.__new__(cls)

    def __init__(self, scheduler: Optional[str] = None) -> None:
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._cancelled = 0
        self.compactions = 0
        self.events_fired = 0
        #: Monotonic count of :meth:`cancel_call` cancellations — unlike
        #: ``_cancelled`` (pending tombstones) this never decreases, so
        #: the perf harness can explain ``events_scheduled`` vs
        #: ``events_fired`` divergence in cancellation-heavy scenarios.
        self.events_cancelled = 0
        self._imm: deque[ScheduledCall] = deque()
        self._near: list[ScheduledCall] = []
        self._far: list[ScheduledCall] = []
        self._horizon = 0.0
        self._width = _NEAR_WINDOW_START_NS
        if TRACKED_SIMULATORS is not None:
            TRACKED_SIMULATORS.append(self)

    @property
    def now(self) -> float:
        return self._now

    @property
    def scheduler(self) -> str:
        """Which scheduler implementation backs this simulator."""
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

        Passing ``args`` positionally avoids a closure allocation per
        scheduled call — the hot paths (packet delivery, block-read
        completions) schedule bound methods with their arguments.
        Returns the scheduled-call handle; pass it to
        :meth:`cancel_call` to cancel before it fires."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._seq = seq = self._seq + 1
        when = self._now + delay
        if delay == 0.0:
            entry: ScheduledCall = [when, seq, fn, args]
            self._imm.append(entry)
        elif when < self._horizon:
            # Near entries carry negated keys (see the class docstring).
            entry = [-when, -seq, fn, args]
            near = self._near
            # Soonest-yet entries (the common completion pattern) sort
            # to the very end: plain append instead of a bisect.
            if near and entry > near[-1]:
                near.append(entry)
            else:
                insort(near, entry)
        else:
            entry = [when, seq, fn, args]
            self._far.append(entry)
        return entry

    def call_at(
        self, when: float, fn: Callable[..., None], *args: Any
    ) -> ScheduledCall:
        now = self._now
        if when < now:
            raise SimulationError(f"cannot schedule in the past: {when}")
        # Same arithmetic as call_later (now + (when - now)): the two
        # entry points must produce bit-identical times.
        when = now + (when - now)
        self._seq = seq = self._seq + 1
        if when == now:
            entry: ScheduledCall = [when, seq, fn, args]
            self._imm.append(entry)
        elif when < self._horizon:
            entry = [-when, -seq, fn, args]
            near = self._near
            if near and entry > near[-1]:
                near.append(entry)
            else:
                insort(near, entry)
        else:
            entry = [when, seq, fn, args]
            self._far.append(entry)
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

    def schedule_batch(self, entries: list) -> list:
        """Bulk-inject a run of ``(when, fn, args)`` callbacks.

        Exactly equivalent to issuing one :meth:`call_at` per entry, in
        order, from the current callback — same time normalization,
        same consecutive sequence numbers, same lane placement — minus
        the per-call overhead.  This is the batched block-stream
        kernel's primitive: a transfer's unroll or issue burst computes
        its per-block timestamps in one pass (they are presorted and
        consecutive by construction) and lands here as one injection.

        Returns the scheduled-call handles, in entry order.
        """
        now = self._now
        seq = self._seq
        imm = self._imm
        near = self._near
        far = self._far
        horizon = self._horizon
        handles = []
        append_handle = handles.append
        n = len(entries)
        i = 0
        while i < n:
            when, fn, args = entries[i]
            if when < now:
                self._seq = seq
                raise SimulationError(f"cannot schedule in the past: {when}")
            # Same arithmetic as call_later (now + (when - now)): every
            # entry point must produce bit-identical times.
            when = now + (when - now)
            seq += 1
            i += 1
            if when == now:
                entry: ScheduledCall = [when, seq, fn, args]
                imm.append(entry)
                append_handle(entry)
                continue
            if when >= horizon:
                entry = [when, seq, fn, args]
                far.append(entry)
                append_handle(entry)
                continue
            entry = [-when, -seq, fn, args]
            if not near or entry > near[-1]:
                near.append(entry)
                append_handle(entry)
                continue
            # Sorted-run splice: batch entries are presorted by (when,
            # seq), so in the near lane's negated keys each subsequent
            # entry sorts at or before this one's insertion point.  As
            # long as they stay *inside the same gap* between existing
            # entries, the whole run goes in with one list splice
            # instead of one insort (bisect + memmove) per entry.  The
            # lane contents end up identical to sequential insorts.
            pos = bisect_right(near, entry)
            lower = near[pos - 1] if pos else None
            run = [entry]
            append_handle(entry)
            while i < n:
                when2, fn2, args2 = entries[i]
                if when2 < now:
                    near[pos:pos] = run[::-1]
                    self._seq = seq
                    raise SimulationError(
                        f"cannot schedule in the past: {when2}"
                    )
                when2 = now + (when2 - now)
                if when2 == now or when2 >= horizon:
                    break
                e2: ScheduledCall = [-when2, -(seq + 1), fn2, args2]
                if not e2 < run[-1]:
                    break  # out-of-order input: general path re-handles it
                if lower is not None and not e2 > lower:
                    break  # leaves the gap: general path re-handles it
                seq += 1
                i += 1
                run.append(e2)
                append_handle(e2)
            near[pos:pos] = run[::-1]
        self._seq = seq
        return handles

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
        """Drop cancelled entries from every lane, in place (the run
        loop holds references to the lane containers)."""
        live_imm = [e for e in self._imm if e[2] is not None]
        self._imm.clear()
        self._imm.extend(live_imm)
        self._near[:] = [e for e in self._near if e[2] is not None]
        self._far[:] = [e for e in self._far if e[2] is not None]
        self._cancelled = 0
        self.compactions += 1

    @property
    def heap_size(self) -> int:
        """Total pending entries, including not-yet-reaped
        cancellations (named for the original heap scheduler; it is the
        pending-set size under either implementation)."""
        return len(self._imm) + len(self._near) + len(self._far)

    @property
    def live_calls(self) -> int:
        """Scheduled callbacks that will actually run."""
        return self.heap_size - self._cancelled

    # -- event / process factories ---------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator[Event, Any, Any]) -> Process:
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- calendar internals ----------------------------------------------
    def _refill(self) -> bool:
        """Advance the horizon: move the earliest batch of far entries
        into the (drained) near window and sort it once.  Returns False
        when no live far entries remain."""
        far = self._far
        earliest = None
        for e in far:
            if e[2] is not None and (earliest is None or e[0] < earliest):
                earliest = e[0]
        if earliest is None:
            # Only cancelled residue (if anything): reap it.
            if far:
                self._cancelled -= len(far)
                del far[:]
            return False
        cutoff = earliest + self._width
        # Inclusive bound: with earliest at float('inf') (or so large
        # that adding the width is lost to rounding) cutoff == earliest
        # and a strict '<' would move nothing, spinning the run loop on
        # refill forever.  '<=' always moves at least the minimum.
        moved: list[ScheduledCall] = []
        keep: list[ScheduledCall] = []
        for e in far:
            if e[2] is None:
                self._cancelled -= 1
            elif e[0] <= cutoff:
                e[0] = -e[0]  # flip to the near lane's negated keys
                e[1] = -e[1]
                moved.append(e)
            else:
                keep.append(e)
        self._far[:] = keep
        moved.sort()
        self._near[:] = moved
        self._horizon = cutoff
        # Adapt the window toward the target batch size.
        if len(moved) > _REFILL_TOO_BIG:
            self._width = max(self._width * 0.5, 1e-3)
        elif len(moved) < _REFILL_TOO_SMALL:
            self._width = min(self._width * 2.0, 1e15)
        return True

    # -- execution --------------------------------------------------------
    def run(self, until: float = float("inf")) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if until < self._now:
            # Running "until" a past time is a no-op; silently moving
            # the clock backwards would corrupt the immediate lane's
            # sorted-by-construction invariant.
            return self._now
        self._running = True
        fired = 0
        # The lane containers only ever mutate in place, so these
        # references stay valid across compactions and refills.
        imm = self._imm
        near = self._near
        pop_imm = imm.popleft
        pop_near = near.pop
        try:
            while True:
                # Reap cancelled lane heads (next-to-fire positions).
                while near and near[-1][2] is None:
                    pop_near()
                    self._cancelled -= 1
                while imm and imm[0][2] is None:
                    pop_imm()
                    self._cancelled -= 1
                if near:
                    entry = near[-1]
                    when = -entry[0]
                    if imm:
                        head = imm[0]
                        hw = head[0]
                        # Strict (when, seq) order across lanes.
                        if hw < when or (hw == when and head[1] < -entry[1]):
                            entry = head
                            when = hw
                            if when > until:
                                self._now = until
                                break
                            pop_imm()
                        else:
                            if when > until:
                                self._now = until
                                break
                            pop_near()
                    else:
                        if when > until:
                            self._now = until
                            break
                        pop_near()
                elif imm:
                    entry = imm[0]
                    when = entry[0]
                    if when > until:
                        self._now = until
                        break
                    pop_imm()
                else:
                    if self._refill():
                        continue
                    if until != float("inf"):
                        self._now = until
                    break
                fn = entry[2]
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
        near = self._near
        while near and near[-1][2] is None:
            near.pop()
            self._cancelled -= 1
        best = float("inf")
        if imm:
            best = imm[0][0]
        if near and -near[-1][0] < best:
            best = -near[-1][0]
        for e in self._far:
            if e[2] is not None and e[0] < best:
                best = e[0]
        return best


class _HeapSimulator(Simulator):
    """The original global binary-heap scheduler, kept (for one
    release) as the determinism reference behind
    ``REPRO_SIM_SCHEDULER=heap`` / ``Simulator(scheduler="heap")``."""

    __slots__ = ("_heap",)

    def __init__(self, scheduler: Optional[str] = None) -> None:
        super().__init__()
        self._heap: list[ScheduledCall] = []

    @property
    def scheduler(self) -> str:
        return "heap"

    # -- scheduling -----------------------------------------------------
    def call_later(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> ScheduledCall:
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        self._seq += 1
        entry: ScheduledCall = [self._now + delay, self._seq, fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def call_at(
        self, when: float, fn: Callable[..., None], *args: Any
    ) -> ScheduledCall:
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past: {when}")
        return self.call_later(when - self._now, fn, *args)

    def call_soon(
        self, fn: Callable[..., None], *args: Any
    ) -> ScheduledCall:
        return self.call_later(0.0, fn, *args)

    def schedule_batch(self, entries: list) -> list:
        """Reference implementation: one heap push per entry, with the
        exact time normalization and sequence numbering of
        :meth:`call_at`."""
        handles = []
        now = self._now
        heap = self._heap
        for when, fn, args in entries:
            if when < now:
                raise SimulationError(f"cannot schedule in the past: {when}")
            self._seq += 1
            entry: ScheduledCall = [now + (when - now), self._seq, fn, args]
            heapq.heappush(heap, entry)
            handles.append(entry)
        return handles

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place (the run
        loop holds a reference to the heap list)."""
        self._heap[:] = [e for e in self._heap if e[2] is not None]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    @property
    def heap_size(self) -> int:
        return len(self._heap)

    # -- execution --------------------------------------------------------
    def run(self, until: float = float("inf")) -> float:
        if self._running:
            raise SimulationError("simulator is already running")
        if until < self._now:
            return self._now  # no-op, as on the calendar scheduler
        self._running = True
        try:
            heap = self._heap
            while heap:
                entry = heap[0]
                when, _seq, fn, args = entry
                if fn is None:  # cancelled: reap and keep going
                    heapq.heappop(heap)
                    self._cancelled -= 1
                    continue
                if when > until:
                    self._now = until
                    break
                heapq.heappop(heap)
                # Mark consumed so a late cancel_call on this handle is
                # a clean no-op instead of skewing the cancelled count.
                entry[2] = None
                self._now = when
                self.events_fired += 1
                if args:
                    fn(*args)
                else:
                    fn()
            else:
                if until != float("inf"):
                    self._now = until
        finally:
            self._running = False
        return self._now

    def peek(self) -> float:
        heap = self._heap
        while heap and heap[0][2] is None:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else float("inf")
