"""Runners: straight-line code per batch shape (DESIGN.md §11).

Every op the schedule loop executes — a :class:`~repro.core.ops.FusedOps`
batch, a plain tuple/list of ops, or a bare op — runs through a *runner*:
a function generated from the templates below for a *shape* (the sequence
of constituent kinds), compiled once per process, and called once per
yield as ``run(executor, state, clock, op)``.  A batch's runner is bound by
its factory to the batch's channels, deques, stats, counts and result
buffer (kept as ``batch.results``), once per batch.  A bare op's runner
reads its channel or count off the op it is called with, so one runner
serves every op of its class and running a freshly built op binds
nothing.  A runner performs each constituent's transition in order — a
dequeue and the enqueue codes 0/1 (``_enq_code``) open-coded, enqueue
code 2 through the channel's reference method (``try_enqueue``), rare
constituents (``Peek``, ``ViewTime``, ``AdvanceTo``, ``WaitUntil``, a
negative ``IncrCycles``, junk) through the executor's handler table —
and returns the value the generator is resumed with.  When a
constituent parks, it records the suspension on the context's state:
the op in ``retry_op`` and, for a batch, two fields more, the batch and
the constituent's index.  When the batch is abandoned
(``ChannelClosed``), it leaves the exception in ``pending_exc``.  Either
way it counts what it attempted and returns :data:`SUSPENDED`.

The templates are the sequential engine's only written transitions.
Three kinds of marked line vary them, exactly as comments vary nothing:
``#T`` lines record the context's port history and are live only in a
traced runner; ``#F`` lines keep a batch's result buffer and park
bookkeeping and are live only in a batch runner; ``#B`` lines read a bare
op's channel or count and are live only in a bare runner.  A batch longer
than :data:`K` compiles as a chain of ``K``-constituent chunks, each
ending in a call of the next; a batch re-entered after a park — or
restored mid-batch from a checkpoint — runs the rest of its chunk as
one-constituent runners, bound to the same buffer, then the batch's own
next chunk.  A runner counts constituents by their index in the batch, so
one chunk runner serves a fresh batch and a re-entered one alike.

A runner references its constituents and channels but never the batch it
runs (that is an argument), so ``batch.plan`` makes no reference cycle and
a finished run is still freed by refcount (DESIGN.md §9).
"""

from __future__ import annotations

import functools
import linecache
import re
import threading

from ..errors import ChannelClosed
from ..ops import Dequeue, Enqueue, FusedOps, IncrCycles

_READY = 0
_BLOCKED = 1
_DONE = 2

#: Longest chunk compiled as one function: a longer batch is a chain of
#: chunks, so code size and compile time per shape stay bounded.
K = 16

#: Returned by a runner whose batch parked (``state.status`` is then
#: blocked) or was abandoned (the exception is in ``state.pending_exc``).
SUSPENDED = object()

_PROLOGUE = """\
        now = clock._time
        #T trace = state.buffer
        #T ports = trace.ports
        #T times = trace.times
        #T payloads = trace.payloads
"""

_DEQUEUE = """\
        #B ch@ = op@.receiver.channel
        #B q@, r@, s@ = ch@._data, ch@._resps, ch@.stats
        if not q@:
            clock._time = now
            if ch@._sender_finished:
                state.pending_exc = ChannelClosed(ch@.name)
                QUIT
            state.status = _BLOCKED
            state.retry_op = op@
            ch@.waiting_receiver = state
            PARK
        stamp, result = q@.popleft()
        if stamp > now:
            now = stamp
        s@.dequeues += 1
        if ch@._deq_code:
            r@.append(now + ch@.resp_latency)
        waiter = ch@.waiting_sender
        if waiter is not None:
            ch@.waiting_sender = None
            self._wake_send_deliver(ch@, waiter)
        #F buf[at@] = result
        #T ports.append(ch@._deq_port)
        #T times.append(now)
        #T if payloads is not None:
        #T     payloads.append(result)
"""

# A receiver parked on the channel found it empty, so after an append the
# item it waits for is the only one queued: the wake performs its dequeue
# in place against the waiter's clock (wake-with-delivery).
_ENQUEUE = """\
        #B ch@ = op@.sender.channel
        #B q@, r@, s@ = ch@._data, ch@._resps, ch@.stats
        code = ch@._enq_code
        if code != 2:
            ok = True
            if code:
                delta = ch@._delta
                capacity = ch@.capacity
                while delta >= capacity and r@:
                    release = r@.popleft()
                    if release > now:
                        now = release
                    delta -= 1
                ok = delta < capacity
                ch@._delta = delta + 1 if ok else delta
            if ok:
                s@.enqueues += 1
                q@.append((now + ch@.latency, op@.data))
                occ = len(q@)
                if occ > s@.max_real_occupancy:
                    s@.max_real_occupancy = occ
        else:
            clock._time = now
            ok = ch@.try_enqueue(clock, op@.data)
            now = clock._time
        if not ok:
            clock._time = now
            state.status = _BLOCKED
            state.retry_op = op@
            ch@.waiting_sender = state
            PARK
        #T ports.append(ch@._enq_port)
        #T times.append(now)
        #T if payloads is not None:
        #T     payloads.append(op@.data)
        waiter = ch@.waiting_receiver
        if waiter is not None:
            ch@.waiting_receiver = None
            if code != 2 and waiter.retry_op.__class__ is Dequeue:
                wclock = waiter.context.time
                stamp, result = q@.popleft()
                wnow = wclock._time
                if stamp > wnow:
                    wclock._time = wnow = stamp
                s@.dequeues += 1
                if ch@._deq_code:
                    r@.append(wnow + ch@.resp_latency)
                #T waiter.buffer.add(ch@._deq_port, wnow, result)
                waiter.retry_op = None
                waiter.pending_value = result
                if waiter.status == _BLOCKED:
                    waiter.status = _READY
                    self.wakeups += 1
                    fifo = self._fifo_queue
                    if fifo is None:
                        self.policy.push(waiter, woken=True)
                    else:
                        waiter.in_ready = True
                        fifo.append(waiter)
            else:
                self._wake_recv_deliver(ch@, waiter)
"""

# A batch binds a non-negative count (a negative one is a rare
# constituent); a bare op's runner hands a negative one to the rare runner.
_COUNT = """\
        #B c@ = op@.cycles
        #B if c@ < 0:
        #B     return nxt(self, state, clock, op@)
        if c@:
            now += c@
        #T ports.append(0)  # ADVANCE
        #T times.append(now)
        #T if payloads is not None:
        #T     payloads.append(None)
"""

_RARE = """\
        clock._time = now
        if not self._dispatch(state, op@):
            PARK
        now = clock._time
        if state.pending_exc is not None:
            QUIT
        result = state.pending_value
        state.pending_value = None
        #F buf[at@] = result
"""

#: What a suspension runs, in place of a ``QUIT`` or ``PARK`` line: both
#: count the batch's constituents up to this one (``n@``, bound as
#: ``at@ + 1``; the loop subtracts a prefix that an earlier slice already
#: counted), and a park also keeps the batch, which keeps its buffer, and
#: the index for re-entry.
_QUIT = """\
self.ops_executed += n@
state.ops += n@
return SUSPENDED"""
_TAILS = {
    "QUIT": _QUIT,
    "PARK": """\
#F state.fused_index = at@
#F state.fused_batch = batch
""" + _QUIT,
}


def _expand(template: str, index: int) -> str:
    lines = []
    for line in template.splitlines():
        tail = _TAILS.get(line.strip())
        if tail is None:
            lines.append(line)
        else:
            pad = line[: len(line) - len(line.lstrip())]
            lines.extend(pad + text for text in tail.splitlines())
    return "\n".join(lines).replace("@", str(index)) + "\n"


#: Per token: its template and the names a batch runner binds for it (a
#: bare runner's ``#B`` lines read them off the op instead).
_KINDS = {
    "D": (_DEQUEUE, ("ch", "q", "r", "s", "op")),
    "E": (_ENQUEUE, ("ch", "q", "r", "s", "op")),
    "C": (_COUNT, ("c",)),
    "O": (_RARE, ("op",)),
}


def source(key: tuple) -> str:
    """The factory's source for one chunk shape ``(tokens, mode, traced)``.

    ``tokens`` holds ``"D"`` (dequeue), ``"E"`` (enqueue), ``"C"`` (a
    non-negative ``IncrCycles``; a bare one's runner also takes a negative
    one) or ``"O"`` (rare) per constituent; ``mode`` is ``"bare"`` (one op,
    its runner's argument, delivering its own result), ``"last"`` (a
    batch's final chunk) or ``"chain"`` (a chunk that hands on to the
    next).  Marked lines of the other variants stay comments, so every
    variant of a shape has the same line numbers.
    """
    tokens, mode, traced = key
    bare = mode == "bare"
    params = ["base", "buf", "nxt"]
    binds = []
    body = [_PROLOGUE]
    for index, token in enumerate(tokens):
        template, names = _KINDS[token]
        if not bare:
            params += [f"{name}{index}" for name in names]
        binds.append(f"    at{index}, n{index} = base + {index}, base + {index + 1}\n")
        body.append(_expand(template, index))
    if mode == "chain":
        result = "nxt(self, state, clock, batch)"
    elif not bare:
        result = "buf"
    else:
        result = "result" if tokens[0] in ("D", "O") else "None"
    text = "".join([
        f"def bind({', '.join(params)}):\n",
        *binds,
        f"    def run(self, state, clock, {'op0' if bare else 'batch'}):\n",
        *body,
        f"        clock._time = now\n        return {result}\n",
        "    return run\n",
    ])
    if traced:
        text = re.sub(r"(?m)^(\s*)#T ", r"\1", text)
    return re.sub(rf"(?m)^(\s*)#{'B' if bare else 'F'} ", r"\1", text)


#: The process-wide shape cache: key -> compiled factory, in compile order.
#: Forked workers inherit it; the parent warms it from what they report.
_FACTORIES: dict = {}
_LOCK = threading.Lock()


def compile_shape(key: tuple):
    """Compile one shape's factory on the calling thread (uncached:
    :func:`_factory` caches it)."""
    text = source(key)
    tokens, mode, traced = key
    filename = (
        f"{__file__}[{','.join(map(str, tokens))} {mode}"
        f"{' traced' if traced else ''}]"
    )
    # Tracebacks through a runner show its generated lines, regenerated on
    # demand (a lazy entry) rather than kept.  (linecache skips lazy
    # entries named ``<...>``.)
    linecache.cache[filename] = (functools.partial(source, key),)
    # The generated code reads this module's names (Dequeue, ...).
    namespace = dict(globals())
    exec(compile(text, filename, "exec"), namespace)
    return namespace["bind"]


def _factory(key: tuple):
    factory = _FACTORIES.get(key)
    if factory is None:
        # Runs on concurrent threads (the serve tier's run slots) may
        # meet a new shape together: one compiles.
        with _LOCK:
            factory = _FACTORIES.get(key)
            if factory is None:
                factory = _FACTORIES[key] = compile_shape(key)
    return factory


def compiled() -> list:
    """Every shape key compiled in this process, in compile order."""
    return list(_FACTORIES)


def warm(keys) -> None:
    """Compile the shapes ``keys`` names that this process lacks (the
    parent of forked workers, from the keys they report)."""
    for key in keys:
        _factory(key)


#: Token of a bare op's runner by op class ("O" for any other class).
_BARE_TOKENS = {Dequeue: "D", Enqueue: "E", IncrCycles: "C"}


def _bare(executor, token: str, nxt=None):
    key = ((token,), "bare", executor.tracer is not None)
    return _factory(key)(0, None, nxt)


def _constituent(sub) -> tuple:
    """``(token, factory arguments)`` of one batch constituent."""
    kind = sub.__class__
    if kind is IncrCycles and sub.cycles >= 0:
        return "C", [sub.cycles]
    if kind is Dequeue or kind is Enqueue:
        channel = sub.receiver.channel if kind is Dequeue else sub.sender.channel
        args = [channel, channel._data, channel._resps, channel.stats, sub]
        return "D" if kind is Dequeue else "E", args
    return "O", [sub]


def _chunk(executor, subs, base: int, end: int, buf, nxt):
    """Bind the runner of ``subs[base:end]``, handing on to ``nxt`` (the
    runner of the chunk from ``end`` on)."""
    tokens = []
    args = [base, buf, nxt]
    for sub in subs[base:end]:
        token, more = _constituent(sub)
        tokens.append(token)
        args += more
    key = (tuple(tokens), "last" if nxt is None else "chain", executor.tracer is not None)
    return _factory(key)(*args)


def plan(executor, op, buf=None) -> tuple:
    """Bind ``op`` for ``executor``: ``(op, run, count)``, a tuple or list
    batch normalized to a :class:`FusedOps`.  The binding is kept as
    ``(run, count, executor._plan_tag)``; an executor with another tag
    binds again.  A batch's runners write its results into ``buf``, kept
    as ``op.results`` (a fresh list by default; a restored suspension
    passes its prefix).

    A bare op's runner reads its channel or count off the op, so it is
    bound once per op class, in ``executor._bare_runners``: a context may
    build a fresh op at every yield.  A batch keeps its binding as
    ``op.plan``: its chunks are bound from the last, each handing on to
    the next, and kept in ``op.resumes`` by start index, so a batch
    re-entered there runs on from it."""
    kind = op.__class__
    if kind is tuple or kind is list:
        op = FusedOps(*op)
        kind = FusedOps
    if kind is not FusedOps:
        token = _BARE_TOKENS.get(kind, "O")
        run = _bare(executor, token, _bare(executor, "O") if token == "C" else None)
        executor._bare_runners[kind] = (run, 1, executor._plan_tag)
        return op, run, 1
    subs = op.ops
    count = len(subs)
    if buf is None:
        buf = [None] * count
    op.results = buf
    op.resumes = chunks = {}
    run = None
    for base in reversed(range(0, count, K) or (0,)):
        run = chunks[base] = _chunk(executor, subs, base, base + K, buf, run)
    op.plan = (run, count, executor._plan_tag)
    return op, run, count


def resume(executor, batch, index: int) -> tuple:
    """``(run, count)`` of ``batch`` re-entered at constituent ``index``:
    up to the next chunk boundary, one-constituent runners bound once per
    index to the batch's buffer, each handing on to the next, then the
    batch's own chunk runner.  (A runner per suffix of a chunk compiled a
    shape per park position: 29 of 49 shapes on ``obs_spmspm``, for
    ~1.5 % of its ops.)  ``count`` covers the whole batch, the prefix
    included: the caller subtracts the prefix."""
    run = batch.resumes.get(index)
    count = len(batch.ops)
    if run is None:
        nxt = resume(executor, batch, index + 1)[0] if index + 1 < count else None
        run = batch.resumes[index] = _chunk(
            executor, batch.ops, index, index + 1, batch.results, nxt
        )
    return run, count
