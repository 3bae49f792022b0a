"""The executable spec of a DAM run, and the one record of what it simulated.

:func:`run` is a reference interpreter of DESIGN.md §5's transitions,
written apart from every host: it keeps its own queues, response queues
and windows, reads nothing of a :class:`~repro.core.channel.Channel` but
its parameters and endpoint owners, and has no scheduler, runner, park or
resume.  It steps every context until it blocks, round after round, and
stops when a round moves nothing: by logical synchrony (Timetide,
PAPERS.md) any such order reaches the outcome every host must reach.

:func:`simulated` is that outcome read off a host's run: the part of a
run that is a function of the program alone.  Every identity check in
the repository compares this one record (plus a kernel's numeric output)
against :func:`run`'s.  It holds

* ``finish``: each context's finish time, in program slot order
  (``None`` for a context a deadlock left blocked);
* ``channels``: each channel's ``[enqueues, dequeues, peeks]``, in slot
  order;
* ``ops``: each context's ops executed, per constituent, in slot order,
  of a run that finished (:attr:`~repro.core.RunSummary.context_ops`);
* when traced, ``trace``: each context's timed port history (Concurrent
  Timed Port Automata, PAPERS.md) as ``[ports, times, payloads]`` in
  :class:`~repro.obs.events.PortTable` numbering, contexts sharing a
  name concatenated in slot order, and, for a run that finished, the
  ``profile`` derived from it;
* on a deadlock, ``stalls``: the sorted ``[context, detail,
  local_time]`` of every blocked context, as its stall report gives
  them (``detail`` names the op it is blocked on and its channel).

A failed run's record is ``{"error": "<cause type>: <message>"}``: what
it did before the abort depends on the schedule.  What the record
leaves out is host state — wall time, switch counters, steals,
placement, attempts, ``max_real_occupancy`` — and a peer-clock read
(``ViewTime``, ``WaitUntil``, a stall's peer time), which is a lower
bound, not a value.  Times compare by value: a ``0.0`` increment leaves
``15.0`` on one host and ``15`` on another, so compare records with
``==``, not as JSON text.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from ..core.errors import ChannelClosed, DeadlockError, SimulationError
from ..core.ops import AdvanceTo, Dequeue, Enqueue, FusedOps, IncrCycles, Peek, ViewTime, WaitUntil

__all__ = ["observed", "run", "simulated"]

#: Port ids (:class:`~repro.obs.events.PortTable`): a context's advance
#: and finish, then each channel's enqueue, dequeue and peek by slot.
_ADVANCE, _FINISH = 0, 1
_BLOCKED = object()
_BATCHES = (FusedOps, tuple, list)


def _cause(failure: BaseException) -> str:
    while isinstance(failure, SimulationError):
        failure = failure.original
    return f"{type(failure).__name__}: {failure}"


def simulated(program, summary=None, obs=None) -> dict[str, Any]:
    """The simulated record of a run of ``program`` on any host: of the
    ``summary`` it returned, or, with ``summary`` None, of the deadlock
    whose stall report ``obs`` holds.  ``obs`` supplies the trace when
    the run was traced."""
    record: dict[str, Any] = {
        "finish": [ctx.finish_time for ctx in program.contexts],
        "channels": [
            [ch.stats.enqueues, ch.stats.dequeues, ch.stats.peeks]
            for ch in program.channels
        ],
    }
    if summary is not None:
        record["ops"] = summary.context_ops
    else:
        record["stalls"] = sorted(
            [stall.context, stall.detail, stall.local_time]
            for stall in obs.stall_report.stalls
        )
    trace = getattr(obs, "trace", None)
    if trace is not None:
        record["trace"] = {
            name: [buf.ports, buf.times, buf.payloads]
            for name, buf in trace.buffers().items()
            if not name.startswith("<")  # a host's own steal or crash marks
        }
        if summary is not None:
            record["profile"] = summary.profile
    return record


def observed(program, run_once: Callable[[], Any], obs=None) -> dict[str, Any]:
    """The record of ``run_once()``, a run of ``program`` with ``obs``
    attached: :func:`simulated` of the summary it returns or of the
    deadlock it raises (``obs`` then holds the stall report), else the
    failure's ``{"error": ...}``."""
    try:
        summary = run_once()
    except DeadlockError:
        return simulated(program, obs=obs)
    except SimulationError as failure:
        return {"error": _cause(failure)}
    return simulated(program, summary, obs)


class _Lane:
    """One channel's state: its queue of ``(stamp, data)``, the sender's
    response queue and window, and whether each end has finished."""

    def __init__(self, slot: int, channel) -> None:
        self.port = 2 + 3 * slot
        self.capacity, self.latency = channel.capacity, channel.latency
        self.resp_latency, self.real = channel.resp_latency, channel.real
        self.sender, self.receiver = channel.sender_owner, channel.receiver_owner
        self.data, self.resps = deque(), deque()  # (stamp, data); response times
        self.window = 0
        self.closed = self.void = False
        self.counts = [0, 0, 0]


class _Process:
    """One context: its generator, the batch it is inside, its history."""

    def __init__(self, ctx, lanes: dict[int, _Lane], payloads: bool) -> None:
        self.ctx, self.lanes, self.clock = ctx, lanes, ctx.time
        self.gen = ctx.run()
        self.batch, self.results, self.single = None, [], True
        self.value, self.exc = None, None
        self.ops, self.done = 0, False
        self.ports, self.times = [], []
        self.payloads = [] if payloads else None

    def record(self, port: int, payload: Any = None) -> None:
        self.ports.append(port)
        self.times.append(self.clock.now())
        if self.payloads is not None:
            self.payloads.append(payload)

    def step(self) -> bool:
        """Run until blocked or finished; whether anything moved."""
        before = (self.ops, self.clock.now())
        while not self.done:
            if self.batch is None:
                try:
                    op = self.gen.throw(self.exc) if self.exc else self.gen.send(self.value)
                except (StopIteration, ChannelClosed):
                    self.finish()
                    return True
                self.exc = self.value = None
                self.single = not isinstance(op, _BATCHES)
                self.batch = [op] if self.single else list(op.ops if type(op) is FusedOps else op)
                self.results = []
            while len(self.results) < len(self.batch):
                try:
                    result = self.do(self.batch[len(self.results)])
                except ChannelClosed as closed:
                    self.ops += 1  # a closing dequeue is an op; the rest is abandoned
                    self.batch, self.exc = None, closed
                    break
                if result is _BLOCKED:
                    return (self.ops, self.clock.now()) != before
                self.ops += 1
                self.results.append(result)
            else:
                self.value = self.results[0] if self.single else self.results
                self.batch = None
        return True

    def do(self, op) -> Any:
        """One op's transition (DESIGN.md §5), or ``_BLOCKED``."""
        kind, clock = type(op), self.clock
        if kind is Enqueue:
            lane = self.lanes[id(op.sender.channel)]
            if lane.capacity is not None:
                while lane.window >= lane.capacity and lane.resps:
                    clock.advance(lane.resps.popleft())
                    lane.window -= 1
                if lane.window >= lane.capacity and not lane.void:
                    return _BLOCKED
                lane.window += 1  # a void enqueue takes its slot too
            lane.counts[0] += 1
            if not lane.void:
                stamp = 0 if lane.real else clock.now() + lane.latency
                lane.data.append((stamp, op.data))
            self.record(lane.port, op.data)
            return None
        if kind is Dequeue or kind is Peek:
            lane = self.lanes[id(op.receiver.channel)]
            if not lane.data:
                if lane.closed:
                    raise ChannelClosed(op.receiver.channel.name)
                return _BLOCKED
            stamp, data = lane.data[0] if kind is Peek else lane.data.popleft()
            clock.advance(stamp)
            which = 2 if kind is Peek else 1
            lane.counts[which] += 1
            if which == 1 and lane.capacity is not None and not lane.closed:
                lane.resps.append(clock.now() + lane.resp_latency)
            self.record(lane.port + which, data)
            return data
        if kind is ViewTime:
            return op.context.time.now()
        if kind is WaitUntil:
            now = op.context.time.now()
            return now if now >= op.time else _BLOCKED
        if kind is IncrCycles:
            clock.incr(op.cycles)  # a negative count is a ValueError
        elif kind is AdvanceTo:
            clock.advance(op.time)
        else:
            raise TypeError(f"not an op (or a batch inside a batch): {op!r}")
        self.record(_ADVANCE)
        return None

    def stall(self) -> list:
        """``[context, detail, local_time]`` as a host's stall report
        gives a context blocked on its op."""
        op = self.batch[len(self.results)]
        if type(op) is WaitUntil:
            detail = f"wait-until {op.time} on {op.context.name}"
        elif type(op) is Enqueue:
            detail = f"enqueue on full {op.sender.channel.name}"
        else:  # "dequeue" or "peek"
            detail = f"{type(op).__name__.lower()} on empty {op.receiver.channel.name}"
        return [self.ctx.name, detail, self.clock.now()]

    def finish(self) -> None:
        self.done, self.ctx.finish_time = True, self.clock.now()
        self.record(_FINISH)
        self.clock.finish()
        for lane in self.lanes.values():
            if lane.sender is self.ctx:
                lane.closed = True
                lane.resps.clear()
            if lane.receiver is self.ctx:
                lane.void = True
                lane.data.clear()


def run(program, traced: bool = False, payloads: bool = False) -> dict[str, Any]:
    """Run ``program`` on the spec and return its :func:`simulated`
    record: with ``traced``, the port histories and the profile too,
    with ``payloads`` the data each op moved.  The run consumes the
    program's contexts as a host's run does."""
    lanes = {id(ch): _Lane(slot, ch) for slot, ch in enumerate(program.channels)}
    processes = [_Process(ctx, lanes, payloads) for ctx in program.contexts]
    try:
        while any([p.step() for p in processes if not p.done]):
            pass
    except Exception as failure:  # noqa: BLE001 - a context's failure is the outcome
        return {"error": _cause(failure)}
    finally:
        for process in processes:
            process.gen.close()
    record: dict[str, Any] = {
        "finish": [p.ctx.finish_time if p.done else None for p in processes],
        "channels": [lane.counts for lane in lanes.values()],
    }
    finished = all(p.done for p in processes)
    if finished:
        record["ops"] = [p.ops for p in processes]
    else:
        record["stalls"] = sorted(p.stall() for p in processes if not p.done)
    if traced:
        from ..obs.events import PortTable
        from ..obs.profile import channel_meta_for, profile_trace
        from ..obs.trace import TraceCollector

        trace = TraceCollector(payloads)
        trace.table = PortTable(ch.name for ch in program.channels)
        for process in processes:  # folded in slot order, as a host folds
            buf = trace.context_buffer(process.ctx.name)
            buf.ports, buf.times, buf.payloads = process.ports, process.times, process.payloads
            trace.fold([buf])
        record["trace"] = {
            name: [buf.ports, buf.times, buf.payloads]
            for name, buf in trace.buffers().items()
        }
        if finished:
            meta = channel_meta_for(program.channels)
            record["profile"] = profile_trace(trace, channel_meta=meta).to_dict()
    return record
