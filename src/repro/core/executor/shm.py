"""Shared-memory primitives for the process executor.

The process executor (:mod:`repro.core.executor.partitioned`) runs each
graph partition in a forked worker.  Everything the workers must share is
carved out of **one** ``multiprocessing.shared_memory`` block, the
:class:`SharedArena`, created by the parent before forking so every worker
inherits the same mapping:

* :class:`SharedClockArray` — one float64 slot per context.  A context's
  owning worker keeps the clock in a plain local cell and copies it into
  its slot at every slice boundary (:meth:`SharedClockArray.publish`);
  other workers read the slot optimistically (:class:`SharedTimeView`).
  This keeps the paper's SVA mechanism a plain load across process
  boundaries: an 8-byte aligned read of a monotone value, never an
  overestimate.

* :class:`ShmRing` — a single-producer/single-consumer byte ring carrying
  pickled records.  Each *cut* channel (sender and receiver in different
  partitions) gets two rings — a data lane for ``(stamp, data)`` tuples
  and a response lane for dequeue times, each closed by a ``None`` done
  sentinel.

* :class:`StatusBoard` — per-worker progress counters and run states, the
  inputs to the parent's global deadlock verdict.

* :class:`Doorbell` — one non-blocking pipe per worker and one for the
  parent (file descriptors, not arena memory): the one path every
  wake-up takes, so nobody ever polls.

Memory-ordering note: every cross-process counter (ring head/tail, clock
slots, progress) is accessed through a ``memoryview.cast`` item, which
CPython implements as one aligned 8-byte ``memcpy`` — a single load/store
on x86-64.  (``struct.Struct("<Q").pack_into`` would NOT do: explicit
byte-order formats pack one byte at a time, and a torn tail read lets the
consumer run past the last published record.)  The rings are strictly
SPSC with the data written before the tail is published, so on
total-store-order hardware (the same assumption :mod:`repro.core.time`
documents for SVA) the consumer never observes a published record before
its bytes.  This mirrors the DAM-RS argument for x86 acquire/release
pairs.
"""

from __future__ import annotations

import os
import pickle
import struct
from multiprocessing import connection, shared_memory
from typing import Any

from ..time import INFINITY, Time

_U32 = struct.Struct("<I")

#: Byte overhead of one ring record (length prefix).
_RECORD_HEADER = 4

#: Ring header: producer tail (8 bytes) + consumer head (8 bytes).
RING_HEADER = 16

#: Bytes per worker on the status board: progress (8) + state (1), padded.
STATUS_SLOT = 16

#: Worker states published on the status board.
WORKER_RUNNING = 0
WORKER_BLOCKED = 1  # asleep on its doorbell: drained it, found nothing to do
WORKER_DONE = 2


class SharedArena:
    """One shared-memory block carved into aligned regions.

    The parent computes the total size, creates the arena, hands region
    views to the clock array / rings / status board, forks, and finally
    ``close()``s and ``unlink()``s it.  Workers inherit the mapping and
    never unlink.
    """

    def __init__(self, size: int):
        self.shm = shared_memory.SharedMemory(create=True, size=max(size, 8))
        self._views: list[memoryview] = []
        self._components: list[Any] = []

    def view(self, offset: int, length: int) -> memoryview:
        mv = memoryview(self.shm.buf)[offset : offset + length]
        self._views.append(mv)
        return mv

    def adopt(self, component: Any) -> Any:
        """Register a component whose ``release()`` must run before close
        (components hold derived views — casts and slices — that would
        otherwise keep the mapping pinned)."""
        self._components.append(component)
        return component

    def close(self) -> None:
        """Release carved views and unmap (each process for itself)."""
        for component in self._components:
            component.release()
        self._components.clear()
        for mv in self._views:
            mv.release()
        self._views.clear()
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a component kept a view
            pass

    def unlink(self) -> None:
        """Remove the backing segment (parent only, after the run)."""
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class ArenaLayout:
    """Accumulates aligned region reservations before the arena exists."""

    def __init__(self) -> None:
        self.size = 0

    def reserve(self, length: int) -> int:
        offset = self.size
        self.size = (offset + length + 7) & ~7  # the next region 8-byte aligned
        return offset


# ----------------------------------------------------------------------
# Shared clocks.
# ----------------------------------------------------------------------


class SharedClockArray:
    """Float64 clock slots, one per context, in arena memory.

    Simulated times are integers well inside float64's exact range
    (2^53 cycles); :data:`~repro.core.time.INFINITY` maps to ``inf``.
    """

    def __init__(self, view: memoryview, slots: int):
        self._doubles = view.cast("d")
        self.slots = slots
        for index in range(slots):
            self._doubles[index] = 0.0

    def read(self, slot: int) -> float:
        return self._doubles[slot]

    def write(self, slot: int, value: float) -> None:
        self._doubles[slot] = value

    def publish(self, cells) -> None:
        """Copy every ``(cell, slot)`` clock that moved since its last
        publication into its slot.  The owner's cell only moves forward
        and is read after the advance it reflects, so the slot stays a
        monotone lower bound of the owner's clock."""
        doubles = self._doubles
        for cell, slot in cells:
            now = cell._time
            if doubles[slot] != now:
                doubles[slot] = now

    def release(self) -> None:
        self._doubles.release()

    @staticmethod
    def size_for(slots: int) -> int:
        return 8 * max(slots, 1)


class SharedTimeView:
    """Read-only view of a remote context's shared clock slot.

    Installed (post-fork) on the contexts a worker does *not* own, so
    ``ViewTime``/``WaitUntil`` ops and stall reports that touch
    ``ctx.time`` transparently read the owner's published clock.
    """

    __slots__ = ("_clocks", "_slot")

    def __init__(self, clocks: SharedClockArray, slot: int):
        self._clocks = clocks
        self._slot = slot

    def now(self) -> float:
        return self._clocks.read(self._slot)

    @property
    def finished(self) -> bool:
        return self._clocks.read(self._slot) == INFINITY

    def advance(self, target: Time) -> Time:  # pragma: no cover - guard
        raise RuntimeError("cannot advance a remote context's clock")

    def incr(self, cycles: Time) -> Time:  # pragma: no cover - guard
        raise RuntimeError("cannot advance a remote context's clock")

    def finish(self) -> None:  # pragma: no cover - guard
        raise RuntimeError("cannot finish a remote context's clock")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SharedTimeView({self.now()})"


# ----------------------------------------------------------------------
# Worker status board.
# ----------------------------------------------------------------------


class StatusBoard:
    """Per-worker progress counters and run states.

    Each worker owns one slot and publishes (a) a monotone progress
    counter bumped whenever it executes ops or moves shuttle records, and
    (b) its coarse state: :data:`WORKER_BLOCKED` only once it has drained
    its :class:`Doorbell` and found nothing to do, :data:`WORKER_RUNNING`
    again as soon as a ring wakes it.  The parent declares a global
    deadlock when two reads of every live worker's row agree on
    ``(progress, BLOCKED)`` and no worker's doorbell holds a ring.
    """

    def __init__(self, view: memoryview, workers: int):
        self._mv = view
        # Progress counters as whole-word items (atomic 8-byte stores);
        # slot layout: word 2*w = progress, byte 16*w+8 = state.
        self._words = view.cast("Q")
        self.workers = workers
        for index in range(workers):
            self._words[index * 2] = 0
            self._mv[index * STATUS_SLOT + 8] = WORKER_RUNNING

    def release(self) -> None:
        self._words.release()

    @staticmethod
    def size_for(workers: int) -> int:
        return STATUS_SLOT * max(workers, 1)

    def publish(self, worker: int, progress: int, state: int) -> None:
        self._words[worker * 2] = progress & (2**64 - 1)
        self._mv[worker * STATUS_SLOT + 8] = state

    def progress(self, worker: int) -> int:
        return self._words[worker * 2]

    def state(self, worker: int) -> int:
        return self._mv[worker * STATUS_SLOT + 8]

    def snapshot(self) -> tuple[int, list[int]]:
        """Total progress across workers plus each worker's state."""
        total = 0
        states = []
        for index in range(self.workers):
            total += self.progress(index)
            states.append(self.state(index))
        return total, states


# ----------------------------------------------------------------------
# Checkpoint coordination board.
# ----------------------------------------------------------------------


#: Commands the parent publishes on the checkpoint board.
CKPT_RUN = 0    # no round active: execute normally
CKPT_PAUSE = 1  # at the next slice boundary send a dump, then move nothing


class CheckpointBoard:
    """The parent's half of a checkpoint round: a monotone request epoch
    and a command word, single aligned 8-byte items (see the
    module-level memory-ordering note).  A worker answers on its result
    pipe: the dump it sends there is its acknowledgement."""

    SIZE = 16

    def __init__(self, view: memoryview):
        self._words = view.cast("Q")
        self._words[0] = self._words[1] = 0

    def release(self) -> None:
        self._words.release()

    def request(self, epoch: int, command: int) -> None:
        # Command first: a worker that reads the new epoch must never
        # see the previous round's RUN.
        self._words[1] = command
        self._words[0] = epoch

    def epoch(self) -> int:
        return self._words[0]

    def command(self) -> int:
        return self._words[1]


# ----------------------------------------------------------------------
# Cluster claim board (work stealing).
# ----------------------------------------------------------------------


class ClaimBoard:
    """Claim words for the program's cold clusters.

    Work stealing migrates *cold* (never-started) clusters: a worker
    whose run queue drains claims its next own cold cluster, or — when
    it has none — steals another worker's.  The board holds one word per
    cluster (0 = cold, 1 = claimed, by whom) plus a cold-cluster count
    the parent's deadlock verdict reads: a run cannot be globally
    deadlocked while claimable work remains.

    All mutation happens under one inherited ``multiprocessing.Lock``
    (claims are rare — one per cluster per run — so contention is
    irrelevant); reads of ``cold_count`` outside the lock are monotone
    snapshots, safe for the fast "anything left?" check.

    Word layout: ``[0]`` cold count, then per cluster ``[1+i]`` its claim
    state (0 cold / 1+claimant claimed).
    """

    def __init__(self, view: memoryview, clusters: int):
        self._words = view.cast("Q")
        self.clusters = clusters
        self._words[0] = clusters
        for index in range(clusters):
            self._words[1 + index] = 0

    def release(self) -> None:
        self._words.release()

    @staticmethod
    def size_for(clusters: int) -> int:
        return 8 * (1 + max(clusters, 1))

    def cold_count(self) -> int:
        return self._words[0]

    def is_cold(self, cluster: int) -> bool:
        return self._words[1 + cluster] == 0

    def claimant(self, cluster: int) -> int:
        """Who claimed the cluster (-1 while cold)."""
        word = self._words[1 + cluster]
        return int(word) - 1 if word else -1

    def claim(self, cluster: int, worker: int) -> None:
        """Mark ``cluster`` claimed by ``worker`` (call under the lock)."""
        self._words[1 + cluster] = 1 + worker
        self._words[0] -= 1


# ----------------------------------------------------------------------
# SPSC ring.
# ----------------------------------------------------------------------


class RecordTooLarge(ValueError):
    """A single pickled record exceeds the ring's capacity."""

    def __init__(self, need: int, capacity: int):
        # The constructor arguments are the exception's ``args``, so it
        # survives the pickle round trip of a worker's result pipe.
        super().__init__(need, capacity)

    def __str__(self) -> str:
        need, capacity = self.args
        return (
            f"shuttle record of {need} bytes exceeds ring capacity "
            f"{capacity}; raise ProcessExecutor(ring_capacity=...)"
        )


class ShmRing:
    """Single-producer / single-consumer pickled-record ring.

    Monotone 64-bit head/tail counters live in the first 16 bytes of the
    region, published as single aligned 8-byte stores (see the module
    docstring's memory-ordering note); records are a 4-byte length prefix
    plus the pickle, wrapping byte-wise.  Exactly one process pushes and
    exactly one pops (a cut channel has one sending and one receiving
    partition), so no locks are needed — the tail publish *after* the
    data write is the only ordering requirement.
    """

    __slots__ = ("_mv", "_counters", "_data", "capacity", "_tail", "_head")

    def __init__(self, view: memoryview, capacity: int):
        self._mv = view
        self._counters = view[:RING_HEADER].cast("Q")  # [0]=tail, [1]=head
        self._data = view[RING_HEADER:]
        self.capacity = capacity
        self._counters[0] = 0
        self._counters[1] = 0
        # Endpoint-local cached counters (each side caches its own).
        self._tail = 0
        self._head = 0

    def release(self) -> None:
        self._counters.release()
        self._data.release()

    @staticmethod
    def size_for(capacity: int) -> int:
        return RING_HEADER + capacity

    # -- producer side -------------------------------------------------

    def try_push(self, obj: Any) -> bool:
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        need = _RECORD_HEADER + len(blob)
        if need > self.capacity:
            raise RecordTooLarge(need, self.capacity)
        tail = self._tail
        head = self._counters[1]
        if self.capacity - (tail - head) < need:
            return False
        self._write_bytes(tail % self.capacity, _U32.pack(len(blob)))
        self._write_bytes((tail + _RECORD_HEADER) % self.capacity, blob)
        self._tail = tail + need
        self._counters[0] = self._tail
        return True

    # -- consumer side -------------------------------------------------

    def try_pop(self) -> tuple[bool, Any]:
        head = self._head
        if self._counters[0] == head:
            return False, None
        obj, self._head = self._record_at(head)
        self._counters[1] = self._head
        return True, obj

    # -- observer side -------------------------------------------------

    def unread(self) -> list:
        """Every record pushed and not yet popped, oldest first, read off
        the shared counters without popping any.  For a third process,
        and only while neither endpoint moves (the parent during a
        checkpoint round)."""
        records = []
        head, tail = self._counters[1], self._counters[0]
        while head != tail:
            record, head = self._record_at(head)
            records.append(record)
        return records

    def _record_at(self, head: int) -> tuple[Any, int]:
        """The record at ``head`` and the head past it."""
        length = _U32.unpack(self._read_bytes(head % self.capacity, _RECORD_HEADER))[0]
        blob = self._read_bytes((head + _RECORD_HEADER) % self.capacity, length)
        return pickle.loads(blob), head + _RECORD_HEADER + length

    # -- byte helpers (wraparound copies) ------------------------------

    def _write_bytes(self, pos: int, payload: bytes) -> None:
        first = min(len(payload), self.capacity - pos)
        self._data[pos : pos + first] = payload[:first]
        if first < len(payload):
            self._data[0 : len(payload) - first] = payload[first:]

    def _read_bytes(self, pos: int, length: int) -> bytes:
        first = min(length, self.capacity - pos)
        if first == length:
            return bytes(self._data[pos : pos + length])
        return bytes(self._data[pos : pos + first]) + bytes(
            self._data[0 : length - first]
        )


# Only importer: the frozen benchmark probe ``shm.pipe_roundtrip_ns``.
class PipeLane:
    """``multiprocessing.Pipe``-backed lane with the same try-push/pop
    surface as :class:`ShmRing`, for arbitrary record sizes.

    ``try_push`` may block briefly once the OS pipe buffer fills; the
    receiving worker drains its lanes unconditionally into local mirrors,
    so sustained blocking only happens if the peer died (and the parent's
    cleanup terminates stragglers).
    """

    __slots__ = ("_recv", "_send")

    def __init__(self, mp_context):
        self._recv, self._send = mp_context.Pipe(duplex=False)

    def try_push(self, obj: Any) -> bool:
        try:
            self._send.send(obj)
        except (BrokenPipeError, OSError):
            # The receiving worker died.  Swallow the record (dead
            # letters): the parent's crash supervisor is about to abort
            # the run, and a sender wedged in an unhandled BrokenPipeError
            # would be misreported as its own failure.
            return True
        return True

    def try_pop(self) -> tuple[bool, Any]:
        try:
            if self._recv.poll():
                return True, self._recv.recv()
        except (EOFError, BrokenPipeError, OSError):
            pass  # peer died mid-record; supervision handles the abort
        return False, None


# ----------------------------------------------------------------------
# Doorbells: the one wake-up path between the run's processes.
# ----------------------------------------------------------------------


class Doorbell:
    """A non-blocking pipe one process sleeps on and any process rings.

    Created before the fork, so every process holds both ends.  A ring
    is one byte written *after* the change it announces (a lane push or
    pop, a clock publication, a command, an abort).  The sleeper drains
    the pipe *before* it re-checks what it waits on, then sleeps in
    :meth:`wait`: a ring sent before the drain announced a change the
    re-check sees, and one sent after it is still in the pipe, so
    ``wait`` returns at once — no wake-up is lost and no timeout is
    needed.  A full pipe reads as rung, so ``ring`` never blocks.
    """

    __slots__ = ("_read", "_write")

    def __init__(self) -> None:
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)

    def fileno(self) -> int:
        return self._read

    def ring(self) -> None:
        try:
            os.write(self._write, b"\0")
        except OSError:  # full: already rung
            pass

    def drain(self) -> None:
        try:
            while os.read(self._read, 4096):
                pass
        except BlockingIOError:
            pass

    def wait(self) -> None:
        # poll(), not select(): an inherited fd may be numbered past
        # select's FD_SETSIZE in a process that holds many.
        connection.wait([self._read])

    def close(self) -> None:
        os.close(self._read)
        os.close(self._write)
