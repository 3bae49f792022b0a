"""Superblock compilation: whole-cluster straight-line drivers (DESIGN.md §15).

The inline fast path (§11) removed per-op dispatch *within* a context;
every channel hop still pays a round trip through the executor's ready
queue — pop, status check, slice prologue, park, push, repeat.  A *cold
cluster* (§12, :func:`~repro.core.executor.partition.plan_clusters`) is a
connected component whose channels are all internal while the cluster is
cold, which makes it exactly the unit that can be partially evaluated
*across* contexts: while the cluster runs, every channel endpoint it can
touch belongs to the cluster, so a park on an internal channel never
needs the global scheduler — the peer that will unblock it is a member,
and the superblock can hand control straight to it.

A :class:`Superblock` is that partial evaluation, as a local driver loop:

* **Peer-to-peer inlining** — member turns run a copy of the §11 plain
  fast loop against the channels' ``_enq_code``/``_deq_code`` flavor
  mirrors, and when a transition unblocks a parked member the driver
  completes the parked op in place (producer writing directly into the
  consumer's plan buffer / pending slot, exactly the §11
  wake-with-delivery transition) and appends the member to the
  superblock's *local* ready deque instead of the executor policy.
* **Clock in a local** — as in §11, each member's simulated time lives
  in a local for the whole turn and is written back to the member's
  plain :class:`~repro.core.time.TimeCell` wherever the world can
  observe it.  Hosts that must show clocks to other threads or
  processes publish them at the slice boundary (§10), so a turn's whole
  op batch surfaces as one monotone leap.
* **Bail-out** — the driver falls back to the generic scheduler at the
  first park it cannot serve locally, the first registered ``WaitUntil``
  waiter (``executor._fast`` drops, §11), the first non-inlinable flavor
  (rare ops and code-2 channels take the method/handler path), and at
  budget exhaustion — flushing its local ready deque back to the
  executor policy so nothing is lost.
  Because ``policy.push`` is idempotent (``in_ready``) and every pop
  re-checks ``status``, a member may sit in both queues at once; any
  pop of a READY state is a legal schedule, and channel transitions are
  pure functions of simulated state, so results are bit-identical to
  the un-superblocked run by the same argument as §11.

Selection is gated by ``RunConfig(superblocks=...)``: ``"on"``/``True``
compiles every multi-member cluster, ``"off"``/``False``/``None``
disables, and ``"auto"`` (the default) compiles clusters that
:func:`~repro.core.executor.partition.channel_weights` shows as live —
on a fresh program (no observed traffic anywhere) every cluster is
compiled, on a re-run only clusters whose channels actually carried
traffic are, so the observed-placement feedback loop (``pins`` from
``RunSummary.placement``) and superblock selection see the same reality.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from ..channel import _EMPTY
from ..errors import ChannelClosed, DeadlockError, SimulationError
from ..ops import Dequeue, Enqueue, FusedOps, IncrCycles
from .partition import ClusterSpec, channel_weights, plan_clusters
from .sequential import _compile_plan

_READY = 0
_BLOCKED = 1
_DONE = 2

_MODES = ("off", "on", "auto")


def normalize_mode(mode: Any) -> str:
    """Normalize a ``RunConfig(superblocks=...)`` value to off/on/auto."""
    if mode is None or mode is False or mode == "off":
        return "off"
    if mode is True or mode == "on":
        return "on"
    if mode == "auto":
        return "auto"
    raise ValueError(
        f"superblocks must be one of {_MODES} (or True/False/None), "
        f"got {mode!r}"
    )


def select_clusters(
    program, clusters: list[ClusterSpec], mode: str
) -> list[ClusterSpec]:
    """Pick the clusters worth compiling.

    Single-member clusters gain nothing (the §11 fast path already owns
    them).  Under ``"auto"``, once the program carries observed traffic
    (``channel_weights`` from live stats — which survive a previous run
    of the same program object), clusters whose channels never moved a
    value are skipped: compiling them buys nothing.  A fresh program has
    no observations, so every multi-member cluster is compiled.
    """
    selected = [spec for spec in clusters if spec.size >= 2]
    if mode != "auto" or not selected:
        return selected
    weights = channel_weights(program)
    if not any(weights.values()):
        return selected
    channels = program.channels
    return [
        spec
        for spec in selected
        if any(
            weights.get(channels[index].name, 0) > 0
            for index in spec.channels
        )
    ]


def compile_superblocks(executor, program, states, mode: Any) -> int:
    """Plan clusters over ``program`` (trivial single-owner assignment:
    clusters are exactly its connected components) and attach a
    :class:`Superblock` to every selected one.  Returns the number of
    superblocks compiled."""
    mode = normalize_mode(mode)
    if mode == "off":
        return 0
    clusters = plan_clusters(
        program, {id(ctx): 0 for ctx in program.contexts}
    )
    contexts = program.contexts
    count = 0
    for spec in select_clusters(program, clusters, mode):
        members = [states[id(contexts[slot])] for slot in spec.contexts]
        attach(Superblock(spec.index), members)
        count += 1
    return count


def attach(superblock: "Superblock", members: list) -> "Superblock":
    """Bind member states to ``superblock``."""
    for state in members:
        state.superblock = superblock
        state.sb_ready = False
        state.sb_send = state.gen.send
    superblock.members = members
    return superblock


class Superblock:
    """A compiled cold cluster: a local round-robin driver over member
    contexts with peer-to-peer wake-with-delivery."""

    __slots__ = ("index", "members", "ready")

    def __init__(self, index: int):
        self.index = index
        self.members: list = []
        self.ready: deque = deque()

    # ------------------------------------------------------------------

    def drive(self, ex, state, remaining: int) -> None:
        """Run the cluster from ``state`` until every member is parked on
        a non-local condition, the budget runs out, or the executor's
        fast path drops (a WaitUntil waiter registered).  On exit the
        local ready deque is flushed to the executor policy, so the
        global scheduler resumes exactly where the superblock latched.
        """
        ready = self.ready
        if not state.sb_ready:
            state.sb_ready = True
            ready.append(state)
        prev = state
        try:
            while ready:
                if not ex._fast:
                    return
                st = ready.popleft()
                st.sb_ready = False
                if st.status != _READY:
                    continue
                if st is not prev:
                    ex.context_switches += 1
                    prev = st
                remaining = self._turn(ex, st, remaining)
                if st.status == _READY and not st.sb_ready:
                    st.sb_ready = True
                    ready.append(st)
                if remaining == 0:
                    return
        finally:
            self._flush(ex)

    def _flush(self, ex) -> None:
        ready = self.ready
        push = ex.policy.push
        while ready:
            st = ready.popleft()
            st.sb_ready = False
            if st.status == _READY:
                push(st, woken=False)

    # ------------------------------------------------------------------

    def _turn(self, ex, st, remaining: int) -> int:
        """One member turn: the §11 fast loop against the member's
        clock, with parks breaking back to the driver loop and local
        wake-with-delivery.  Returns the remaining op budget."""
        ctx = st.context
        cell = ctx.time

        # A member woken from a blocking op completes it first.  The
        # overwhelmingly common shape — parked on the *last* constituent
        # of a fused batch with the result already delivered by a local
        # waker — finalizes inline; everything else goes through the
        # executor's resume machinery.
        if st.retry_op is not None or st.fused_ops is not None:
            fo = st.fused_ops
            if (
                fo is not None
                and st.retry_op is None
                and st.pending_exc is None
                and st.fused_index + 1 == len(fo)
            ):
                buf = st.fused_results
                buf[st.fused_index] = st.pending_value
                st.pending_value = buf
                st.fused_ops = None
                st.fused_results = None
                st.fused_plan = None
            else:
                if not ex._resume_pending(st):
                    return remaining  # parked again
                if st.status == _DONE:
                    return remaining

        gen_send = st.sb_send
        lready = self.ready
        now = cell._time
        value = st.pending_value
        exc = st.pending_exc
        st.pending_value = None
        st.pending_exc = None
        executed = 0
        try:
            while remaining != 0:
                remaining -= 1
                cell._time = now  # visible to the context body
                try:
                    if exc is not None:
                        op = st.gen.throw(exc)
                        exc = None
                    else:
                        op = gen_send(value)
                        value = None
                except StopIteration:
                    ex._finish(st)
                    return remaining
                except ChannelClosed:
                    ex._finish(st)
                    return remaining
                except DeadlockError:
                    raise
                except BaseException as failure:  # noqa: BLE001
                    ex._finish(st)
                    raise SimulationError(ctx.name, failure) from failure
                now = cell._time

                kind = op.__class__
                if kind is tuple or kind is list:
                    op = FusedOps(*op)
                    kind = FusedOps
                if kind is FusedOps:
                    plan = op.plan
                    if plan is None:
                        plan = op.plan = _compile_plan(op.ops)
                    entries, buf = plan
                    index = 0
                    parked = False
                    for scode, sub, channel, data_q, resps, stats in (
                        entries
                    ):
                        if scode == 0:  # Dequeue
                            if channel._deq_code != 2:
                                if data_q:
                                    stamp, result = data_q.popleft()
                                    if stamp > now:
                                        now = stamp
                                    stats.dequeues += 1
                                    if channel._deq_code == 1:
                                        resps.append(
                                            now + channel.resp_latency
                                        )
                                else:
                                    result = _EMPTY
                            else:
                                cell._time = now
                                result = channel.fast_dequeue(cell)
                                now = cell._time
                            if result is not _EMPTY:
                                waiter = channel.waiting_sender
                                if waiter is not None:
                                    channel.waiting_sender = None
                                    wop = waiter.retry_op
                                    if (
                                        wop is not None
                                        and wop.__class__ is Enqueue
                                        and channel._enq_code == 1
                                        and waiter.superblock is self
                                    ):
                                        # Peer-to-peer release: land the
                                        # parked sender's item in place.
                                        wcell = waiter.context.time
                                        delta = channel._delta
                                        capacity = channel.capacity
                                        if delta >= capacity:
                                            wnow = wcell._time
                                            while (
                                                delta >= capacity
                                                and resps
                                            ):
                                                release = resps.popleft()
                                                if release > wnow:
                                                    wnow = release
                                                delta -= 1
                                            wcell._time = wnow
                                            channel._delta = delta
                                        if delta < capacity:
                                            stats.enqueues += 1
                                            data_q.append((
                                                wcell._time
                                                + channel.latency,
                                                wop.data,
                                            ))
                                            channel._delta = delta + 1
                                            occ = len(data_q)
                                            if (
                                                occ
                                                > stats.max_real_occupancy
                                            ):
                                                stats.max_real_occupancy = occ
                                            waiter.retry_op = None
                                            waiter.pending_value = None
                                        if waiter.status == _BLOCKED:
                                            waiter.status = _READY
                                            waiter.blocked_detail = ""
                                            ex.wakeups += 1
                                            if not waiter.sb_ready:
                                                waiter.sb_ready = True
                                                lready.append(waiter)
                                    else:
                                        self._wake_send_local(
                                            ex, channel, waiter
                                        )
                                buf[index] = result
                            elif channel.closed_for_receiver:
                                exc = ChannelClosed(channel.name)
                                break  # abandon the batch
                            else:
                                ex._block(
                                    st, sub, channel._park_deq_msg
                                )
                                channel.waiting_receiver = st
                                parked = True
                                break
                        elif scode == 1:  # Enqueue
                            code = channel._enq_code
                            if code == 1:
                                delta = channel._delta
                                capacity = channel.capacity
                                if delta >= capacity:
                                    while delta >= capacity and resps:
                                        release = resps.popleft()
                                        if release > now:
                                            now = release
                                        delta -= 1
                                    channel._delta = delta
                                if delta < capacity:
                                    stats.enqueues += 1
                                    data_q.append(
                                        (now + channel.latency, sub.data)
                                    )
                                    channel._delta = delta + 1
                                    occ = len(data_q)
                                    if occ > stats.max_real_occupancy:
                                        stats.max_real_occupancy = occ
                                    ok = True
                                else:
                                    ok = False
                            elif code == 0:
                                stats.enqueues += 1
                                data_q.append(
                                    (now + channel.latency, sub.data)
                                )
                                occ = len(data_q)
                                if occ > stats.max_real_occupancy:
                                    stats.max_real_occupancy = occ
                                ok = True
                            else:
                                cell._time = now
                                ok = channel.try_enqueue(cell, sub.data)
                                now = cell._time
                            if not ok:
                                ex._block(
                                    st, sub, channel._park_enq_msg
                                )
                                channel.waiting_sender = st
                                parked = True
                                break
                            waiter = channel.waiting_receiver
                            if waiter is not None:
                                channel.waiting_receiver = None
                                wop = waiter.retry_op
                                if (
                                    code != 2
                                    and wop is not None
                                    and wop.__class__ is Dequeue
                                    and channel._deq_code != 2
                                    and waiter.superblock is self
                                ):
                                    # Peer-to-peer delivery: the item
                                    # just enqueued lands straight in
                                    # the parked receiver's result slot.
                                    wcell = waiter.context.time
                                    stamp, result = data_q.popleft()
                                    wnow = wcell._time
                                    if stamp > wnow:
                                        wcell._time = wnow = stamp
                                    stats.dequeues += 1
                                    if channel._deq_code == 1:
                                        resps.append(
                                            wnow + channel.resp_latency
                                        )
                                    waiter.retry_op = None
                                    waiter.pending_value = result
                                    if waiter.status == _BLOCKED:
                                        waiter.status = _READY
                                        waiter.blocked_detail = ""
                                        ex.wakeups += 1
                                        if not waiter.sb_ready:
                                            waiter.sb_ready = True
                                            lready.append(waiter)
                                else:
                                    self._wake_recv_local(
                                        ex, channel, waiter
                                    )
                        elif scode == 2:
                            # IncrCycles: latched count in the channel slot.
                            if channel:
                                now += channel
                        else:
                            # Rare constituent: generic handler.
                            cell._time = now
                            dispatched = ex._dispatch(st, sub)
                            now = cell._time
                            if not dispatched:
                                parked = True
                                break
                            if st.pending_exc is not None:
                                exc = st.pending_exc
                                st.pending_exc = None
                                break
                            buf[index] = st.pending_value
                            st.pending_value = None
                        index += 1
                    else:
                        executed += index
                        value = buf
                        continue
                    if parked:
                        cell._time = now
                        executed += index + 1
                        st.fused_ops = op.ops
                        st.fused_index = index
                        st.fused_results = buf
                        st.fused_plan = entries
                        return remaining
                    executed += index + 1
                    continue

                executed += 1
                if kind is Dequeue:
                    channel = op.receiver.channel
                    if channel._deq_code != 2:
                        data_q = channel._data
                        if data_q:
                            stamp, value = data_q.popleft()
                            if stamp > now:
                                now = stamp
                            channel.stats.dequeues += 1
                            if channel._deq_code == 1:
                                channel._resps.append(
                                    now + channel.resp_latency
                                )
                            waiter = channel.waiting_sender
                            if waiter is not None:
                                channel.waiting_sender = None
                                self._wake_send_local(ex, channel, waiter)
                            continue
                        value = None
                    else:
                        cell._time = now
                        result = channel.fast_dequeue(cell)
                        now = cell._time
                        if result is not _EMPTY:
                            value = result
                            waiter = channel.waiting_sender
                            if waiter is not None:
                                channel.waiting_sender = None
                                self._wake_send_local(ex, channel, waiter)
                            continue
                    if channel.closed_for_receiver:
                        exc = ChannelClosed(channel.name)
                        continue
                    cell._time = now
                    ex._block(st, op, channel._park_deq_msg)
                    channel.waiting_receiver = st
                    return remaining

                if kind is Enqueue:
                    channel = op.sender.channel
                    code = channel._enq_code
                    if code == 1:
                        delta = channel._delta
                        capacity = channel.capacity
                        if delta >= capacity:
                            resps = channel._resps
                            while delta >= capacity and resps:
                                release = resps.popleft()
                                if release > now:
                                    now = release
                                delta -= 1
                            channel._delta = delta
                        if delta < capacity:
                            stats = channel.stats
                            stats.enqueues += 1
                            data_q = channel._data
                            data_q.append((now + channel.latency, op.data))
                            channel._delta = delta + 1
                            occ = len(data_q)
                            if occ > stats.max_real_occupancy:
                                stats.max_real_occupancy = occ
                            ok = True
                        else:
                            ok = False
                    elif code == 0:
                        stats = channel.stats
                        stats.enqueues += 1
                        data_q = channel._data
                        data_q.append((now + channel.latency, op.data))
                        occ = len(data_q)
                        if occ > stats.max_real_occupancy:
                            stats.max_real_occupancy = occ
                        ok = True
                    else:
                        cell._time = now
                        ok = channel.try_enqueue(cell, op.data)
                        now = cell._time
                    if not ok:
                        cell._time = now
                        ex._block(st, op, channel._park_enq_msg)
                        channel.waiting_sender = st
                        return remaining
                    waiter = channel.waiting_receiver
                    if waiter is not None:
                        channel.waiting_receiver = None
                        wop = waiter.retry_op
                        if (
                            code != 2
                            and wop is not None
                            and wop.__class__ is Dequeue
                            and channel._deq_code != 2
                            and waiter.superblock is self
                        ):
                            # Peer-to-peer delivery, as in the fused path.
                            wcell = waiter.context.time
                            stamp, result = channel._data.popleft()
                            wnow = wcell._time
                            if stamp > wnow:
                                wcell._time = wnow = stamp
                            channel.stats.dequeues += 1
                            if channel._deq_code == 1:
                                channel._resps.append(
                                    wnow + channel.resp_latency
                                )
                            waiter.retry_op = None
                            waiter.pending_value = result
                            if waiter.status == _BLOCKED:
                                waiter.status = _READY
                                waiter.blocked_detail = ""
                                ex.wakeups += 1
                                if not waiter.sb_ready:
                                    waiter.sb_ready = True
                                    lready.append(waiter)
                        else:
                            self._wake_recv_local(ex, channel, waiter)
                    continue

                if kind is IncrCycles:
                    cycles = op.cycles
                    if cycles >= 0:
                        now += cycles
                    else:
                        cell._time = now
                        cell.incr(cycles)
                        now = cell._time
                    continue

                # Rare op: generic handler.
                cell._time = now
                if not ex._dispatch(st, op):
                    return remaining  # blocked (or WaitUntil registered)
                now = cell._time
                value = st.pending_value
                st.pending_value = None
                if st.pending_exc is not None:
                    exc = st.pending_exc
                    st.pending_exc = None
            # Budget exhausted: hand the in-flight result back to state.
            cell._time = now
            st.pending_value = value
            st.pending_exc = exc
            return 0
        finally:
            ex.ops_executed += executed
            st.ops += executed

    # ------------------------------------------------------------------
    # Local wake-with-delivery: the §11 waker transitions, against the
    # waiter's clock, landing the waiter on the *local* deque.
    # Any waiter on a cluster-internal channel is a member (connected
    # component); anything else — or a flavor the inline transition does
    # not cover — falls back to the executor's own wake path, which is
    # exact for every shape.

    def _wake_send_local(self, ex, channel, waiter) -> None:
        if waiter.superblock is not self:
            ex._wake_send_deliver(channel, waiter)
            return
        op = waiter.retry_op
        if (
            op is not None
            and op.__class__ is Enqueue
            and channel._enq_code == 1
        ):
            wcell = waiter.context.time
            delta = channel._delta
            capacity = channel.capacity
            if delta >= capacity:
                resps = channel._resps
                stamp = wcell._time
                while delta >= capacity and resps:
                    release = resps.popleft()
                    if release > stamp:
                        stamp = release
                    delta -= 1
                wcell._time = stamp
                channel._delta = delta
            if delta < capacity:
                stats = channel.stats
                stats.enqueues += 1
                data_q = channel._data
                data_q.append((wcell._time + channel.latency, op.data))
                channel._delta = delta + 1
                occ = len(data_q)
                if occ > stats.max_real_occupancy:
                    stats.max_real_occupancy = occ
                waiter.retry_op = None
                waiter.pending_value = None
        self._wake_local(ex, waiter)

    def _wake_recv_local(self, ex, channel, waiter) -> None:
        if waiter.superblock is not self:
            ex._wake_recv_deliver(channel, waiter)
            return
        op = waiter.retry_op
        if (
            op is not None
            and op.__class__ is Dequeue
            and channel._deq_code != 2
        ):
            wcell = waiter.context.time
            data_q = channel._data
            if data_q:
                stamp, result = data_q.popleft()
                if stamp > wcell._time:
                    wcell._time = stamp
                channel.stats.dequeues += 1
                if channel._deq_code == 1:
                    channel._resps.append(
                        wcell._time + channel.resp_latency
                    )
                waiter.retry_op = None
                waiter.pending_value = result
        self._wake_local(ex, waiter)

    def _wake_local(self, ex, waiter) -> None:
        if waiter.status != _BLOCKED:
            return
        waiter.status = _READY
        waiter.blocked_detail = ""
        ex.wakeups += 1
        if not waiter.sb_ready:
            waiter.sb_ready = True
            self.ready.append(waiter)


def cold_cluster_count(program) -> int:
    """How many multi-member cold clusters ``program`` has — recorded in
    benchmark env blocks so baselines are self-describing."""
    clusters = plan_clusters(
        program, {id(ctx): 0 for ctx in program.contexts}
    )
    return sum(1 for spec in clusters if spec.size >= 2)


__all__ = [
    "Superblock",
    "attach",
    "cold_cluster_count",
    "compile_superblocks",
    "normalize_mode",
    "select_clusters",
]
