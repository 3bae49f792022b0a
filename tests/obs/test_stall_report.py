"""Deadlock stall reports: the blocking channel and both endpoint clocks."""

import pytest

from repro import (
    Context,
    DeadlockError,
    IncrCycles,
    Observability,
    ProgramBuilder,
    RunConfig,
)


class Hold(Context):
    """Advances ``delay`` cycles, then dequeues before it ever enqueues."""

    def __init__(self, inp, out, name, delay):
        super().__init__(name=name)
        self.inp, self.out, self.delay = inp, out, delay
        self.register(inp, out)

    def run(self):
        yield IncrCycles(self.delay)
        value = yield self.inp.dequeue()
        yield self.out.enqueue(value)


def build_cycle():
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(1, name="a2b")
    s2, r2 = builder.bounded(1, name="b2a")
    builder.add(Hold(r1, s2, "ctx_a", 5))
    builder.add(Hold(r2, s1, "ctx_b", 3))
    return builder.build()


@pytest.mark.parametrize("executor", ["sequential", "threaded-off"])
class TestStallReport:
    def run_deadlocked(self, executor):
        obs = Observability(trace=False)
        config = RunConfig(superblocks="off") if executor == "threaded-off" else None
        with pytest.raises(DeadlockError) as excinfo:
            build_cycle().run(executor=executor.split("-")[0], config=config, obs=obs)
        return obs, excinfo.value

    def test_error_names_blocking_channels(self, executor):
        _, error = self.run_deadlocked(executor)
        message = str(error)
        assert "a2b" in message
        assert "b2a" in message
        assert "dequeue on empty" in message

    def test_error_names_both_endpoint_times(self, executor):
        _, error = self.run_deadlocked(executor)
        message = str(error)
        # ctx_a stalled at its local t=5 with its peer visible at t=3.
        assert "ctx_a: dequeue on empty a2b @ t=5" in message
        assert "peer ctx_b @ t=3" in message
        assert "ctx_b: dequeue on empty b2a @ t=3" in message
        assert "peer ctx_a @ t=5" in message

    def test_report_attached_to_observability(self, executor):
        obs, _ = self.run_deadlocked(executor)
        report = obs.stall_report
        assert report is not None and len(report) == 2
        stall = report.for_context("ctx_a")
        assert stall.channel == "a2b"
        assert stall.local_time == 5
        assert stall.peer == "ctx_b"
        assert stall.peer_time == 3
        assert stall.occupancy == 0
        assert stall.capacity == 1

    def test_report_renders_human_readable(self, executor):
        obs, _ = self.run_deadlocked(executor)
        text = str(obs.stall_report)
        assert text.startswith("stall report (2 blocked context(s)):")
        assert "occupancy 0/1" in text


class TestClockGap:
    def test_gap_computed_and_rendered(self):
        obs = Observability(trace=False)
        with pytest.raises(DeadlockError):
            build_cycle().run(obs=obs)
        report = obs.stall_report
        # ctx_a local t=5, peer ctx_b at t=3 -> gap -2 (we outran the
        # peer); ctx_b sees the mirror image.
        assert report.for_context("ctx_a").gap == -2
        assert report.for_context("ctx_b").gap == 2
        text = str(report)
        assert "gap=-2" in text
        assert "gap=2" in text

    def test_lines_sorted_by_gap_magnitude(self):
        from repro.obs.stall import ContextStall, StallReport

        report = StallReport(
            stalls=[
                ContextStall("near", "dequeue on empty x", 10,
                             peer="p", peer_time=11),
                ContextStall("far", "dequeue on empty y", 2,
                             peer="p", peer_time=50),
                ContextStall("unknown", "wait-until 99 on p", 4),
            ]
        )
        ordering = [line.split(":")[0] for line in report.lines()]
        # Widest |gap| first; unknown gaps last.
        assert ordering == ["far", "near", "unknown"]

    def test_gap_none_when_peer_clock_unknown(self):
        from repro.obs.stall import ContextStall

        stall = ContextStall("lone", "dequeue on empty z", 7)
        assert stall.gap is None
        assert "gap" not in stall.describe()


class TestFullChannelStall:
    def test_enqueue_stall_reports_occupancy(self):
        """A sender stuck on a full channel reports occupancy cap/cap."""

        class Stuffer(Context):
            def __init__(self, out):
                super().__init__(name="stuffer")
                self.out = out
                self.register(out)

            def run(self):
                for i in range(10):
                    yield self.out.enqueue(i)

        class Sleeper(Context):
            def __init__(self, inp, peer):
                super().__init__(name="sleeper")
                self.inp = inp
                self.peer = peer
                self.register(inp)

            def run(self):
                from repro import WaitUntil

                yield WaitUntil(self.peer, 10_000)
                yield self.inp.dequeue()

        builder = ProgramBuilder()
        snd, rcv = builder.bounded(2, name="jam")
        stuffer = builder.add(Stuffer(snd))
        builder.add(Sleeper(rcv, stuffer))
        obs = Observability(trace=False)
        with pytest.raises(DeadlockError) as excinfo:
            builder.build().run(obs=obs)
        message = str(excinfo.value)
        assert "enqueue on full jam" in message
        assert "occupancy 2/2" in message
        # The WaitUntil stall names the peer clock dependency.
        assert "wait-until 10000 on stuffer" in message


class TestPerContextVerdict:
    """The per-context runtime's deadlock verdict (DESIGN.md §15) sees
    every park site: a ``WaitUntil`` on a peer's clock, and a cycle
    beside a context that already finished."""

    # The deadline turns a missed deadlock into a failure, not a hang.
    CONFIG = RunConfig(superblocks="off", deadline_s=10.0)

    def test_foreign_wait_until_keeps_its_peer(self):
        """A context parked on the clock of a context in another
        connected component reports that peer and the peer's clock."""
        from repro import WaitUntil

        class Watcher(Context):
            def __init__(self, out, target):
                super().__init__(name="watcher")
                self.out, self.target = out, target
                self.register(out)

            def run(self):
                yield WaitUntil(self.target, 100)
                yield self.out.enqueue(0)

        class Mate(Context):
            def __init__(self, inp):
                super().__init__(name="mate")
                self.inp = inp
                self.register(inp)

            def run(self):
                yield self.inp.dequeue()

        builder = ProgramBuilder()
        s1, r1 = builder.bounded(1, name="a2b")
        s2, r2 = builder.bounded(1, name="b2a")
        ctx_a = builder.add(Hold(r1, s2, "ctx_a", 5))
        builder.add(Hold(r2, s1, "ctx_b", 3))
        # A second component: the watcher waits on ctx_a's clock, its
        # mate on the watcher.
        snd, rcv = builder.bounded(1, name="w2m")
        builder.add(Watcher(snd, ctx_a))
        builder.add(Mate(rcv))
        with pytest.raises(DeadlockError) as excinfo:
            builder.build().run("threaded", config=self.CONFIG)
        line = next(
            line for line in excinfo.value.blocked if line.startswith("watcher:")
        )
        assert "wait-until 100 on ctx_a" in line
        assert "peer ctx_a @ t=5" in line

    def test_deadlock_is_found_beside_a_finished_member(self):
        """A finished context beside the blocked ones must not hide the
        stall from the deadlock verdict."""
        from repro.contexts import RampSource

        class Fed(Hold):
            def __init__(self, feed, inp, out, name):
                super().__init__(inp, out, name, 0)
                self.feed = feed
                self.register(feed)

            def run(self):
                yield self.feed.dequeue()
                yield from super().run()

        builder = ProgramBuilder()
        s1, r1 = builder.bounded(1, name="a2b")
        s2, r2 = builder.bounded(1, name="b2a")
        snd, rcv = builder.bounded(4, name="feed")
        builder.add(RampSource(snd, 1, name="feeder"))  # finishes at once
        builder.add(Fed(rcv, r1, s2, "ctx_a"))
        builder.add(Hold(r2, s1, "ctx_b", 3))
        with pytest.raises(DeadlockError) as excinfo:
            builder.build().run("threaded", config=self.CONFIG)
        assert "ctx_a" in str(excinfo.value) and "ctx_b" in str(excinfo.value)


class TestReplicatedNames:
    """Replicated pipelines repeat context names (parallel MHA p=2: 78
    contexts, 39 names); a stall report is per context, not per name."""

    CONFIGS = {
        "sequential": ("sequential", RunConfig()),
        "threaded-off": ("threaded", RunConfig(superblocks="off")),
        "process": ("process", RunConfig(workers=2)),
    }

    @pytest.mark.parametrize("hosting", sorted(CONFIGS))
    def test_two_copies_of_a_cycle_report_four_stalls(self, hosting):
        import multiprocessing

        if hosting == "process" and (
            "fork" not in multiprocessing.get_all_start_methods()
        ):
            pytest.skip("fork start method unavailable")
        builder = ProgramBuilder()
        for copy in range(2):
            sx, rx = builder.bounded(1, name=f"x{copy}")
            sy, ry = builder.bounded(1, name=f"y{copy}")
            builder.add(Hold(rx, sy, "a", 5))
            builder.add(Hold(ry, sx, "b", 3))
        executor, config = self.CONFIGS[hosting]
        obs = Observability(trace=False)
        with pytest.raises(DeadlockError) as excinfo:
            builder.build().run(executor, config=config, obs=obs)
        rows = sorted(
            (stall.context, stall.channel, stall.peer)
            for stall in obs.stall_report.stalls
        )
        assert rows == [
            ("a", "x0", "b"),
            ("a", "x1", "b"),
            ("b", "y0", "a"),
            ("b", "y1", "a"),
        ]
        assert len(excinfo.value.blocked) == 4


class TestCutChannelOccupancy:
    """A sender parked on a full channel reports the same occupancy on
    every host, including across a cut channel, where its side of the
    channel holds only an already-pumped outbox."""

    CONFIGS = {
        "sequential": ("sequential", RunConfig()),
        "threaded-off": ("threaded", RunConfig(superblocks="off")),
        "process": ("process", RunConfig(workers=2, steal=False)),
    }

    @staticmethod
    def build():
        class Stuffer(Context):
            """Enqueues twice on a capacity-1 channel, then feeds ``out``."""

            def __init__(self, jam, out):
                super().__init__(name="stuffer")
                self.jam, self.out = jam, out
                self.register(jam, out)

            def run(self):
                yield self.jam.enqueue(0)
                yield self.jam.enqueue(1)
                yield self.out.enqueue(2)

        class Waiter(Context):
            """Dequeues what the stuffer feeds last before the jam."""

            def __init__(self, jam, inp):
                super().__init__(name="waiter")
                self.jam, self.inp = jam, inp
                self.register(jam, inp)

            def run(self):
                yield self.inp.dequeue()
                yield self.jam.dequeue()

        builder = ProgramBuilder()
        s1, r1 = builder.bounded(1, name="ch1")
        s2, r2 = builder.bounded(1, name="ch2")
        builder.add(Stuffer(s1, s2))
        builder.add(Waiter(r1, r2))
        return builder.build()

    @pytest.mark.parametrize("hosting", sorted(CONFIGS))
    def test_parked_sender_reports_its_queued_elements(self, hosting):
        import multiprocessing

        if hosting == "process" and (
            "fork" not in multiprocessing.get_all_start_methods()
        ):
            pytest.skip("fork start method unavailable")
        program = self.build()
        executor, config = self.CONFIGS[hosting]
        if executor == "process":  # the two contexts on different workers
            pins = {id(ctx): slot for slot, ctx in enumerate(program.contexts)}
            config = config.replace(pins=pins)
        obs = Observability(trace=False)
        with pytest.raises(DeadlockError):
            program.run(executor, config=config, obs=obs)
        rows = sorted(
            (stall.context, stall.detail, stall.channel, stall.occupancy,
             stall.capacity)
            for stall in obs.stall_report.stalls
        )
        assert rows == [
            ("stuffer", "enqueue on full ch1", "ch1", 1, 1),
            ("waiter", "dequeue on empty ch2", "ch2", 0, 1),
        ]


class TestParkSites:
    """The stall report derives each context's ``detail`` from the op it
    is parked on.  Every park site, once: a runner dequeue park bare and
    mid-batch, a runner enqueue park on a full window, ``Peek`` and
    ``WaitUntil`` (the rare ops), and two contexts that park, are woken
    and then park again elsewhere — each must report its last site."""

    CONFIGS = {
        "sequential": ("sequential", RunConfig()),
        "threaded-off": ("threaded", RunConfig(superblocks="off")),
        "process": ("process", RunConfig(workers=2)),
    }

    EXPECTED = {
        "bare": "dequeue on empty a",
        "batch": "dequeue on empty b",
        "stuffer": "enqueue on full c",
        "peeker": "peek on empty d",
        "waiter": "wait-until 100 on holder2",
        "rover1": "dequeue on empty f",
        "rover2": "peek on empty h",
        "holder1": "dequeue on empty z1",
        "holder2": "dequeue on empty z2",
    }

    @staticmethod
    def build():
        from repro import WaitUntil
        from repro.core import FunctionContext, FusedOps

        builder = ProgramBuilder()
        names = [*"abcdefgh", "z1", "z2"]
        (sa, ra), (sb, rb), (sc, rc), (sd, rd), (se, re_), (sf, rf), (sg, rg), (
            sh, rh
        ), z1, z2 = (builder.bounded(1, name=name) for name in names)

        def add(name, body, *handles):
            return builder.add(FunctionContext(body, handles=list(handles), name=name))

        def holder1():
            # Keeps the never-fed channels open: their sender never finishes.
            yield z1[1].dequeue()

        def holder2():
            yield z2[1].dequeue()

        def bare():
            yield ra.dequeue()

        def batch():
            yield FusedOps(IncrCycles(1), rb.dequeue())

        def stuffer():
            yield sc.enqueue(0)
            yield sc.enqueue(1)

        def peeker():
            yield rd.peek()

        def rover1():
            yield re_.peek()  # parks on a rare op, woken by the kicker
            yield re_.dequeue()
            yield rf.dequeue()

        def rover2():
            yield rg.dequeue()  # parks in its runner, woken with delivery
            yield rh.peek()

        def kicker():
            yield IncrCycles(2)
            yield se.enqueue(0)
            yield sg.enqueue(0)

        add("holder1", holder1, z1[1], z2[0], sa, sb, sd, sf, sh, rc)
        target = add("holder2", holder2, z2[1], z1[0])

        def waiter():
            yield WaitUntil(target, 100)

        add("bare", bare, ra)
        add("batch", batch, rb)
        add("stuffer", stuffer, sc)
        add("peeker", peeker, rd)
        add("waiter", waiter)
        add("rover1", rover1, re_, rf)
        add("rover2", rover2, rg, rh)
        add("kicker", kicker, se, sg)
        return builder.build()

    @pytest.mark.parametrize("hosting", sorted(CONFIGS))
    def test_every_site_reports_its_text(self, hosting):
        import multiprocessing

        if hosting == "process" and (
            "fork" not in multiprocessing.get_all_start_methods()
        ):
            pytest.skip("fork start method unavailable")
        executor, config = self.CONFIGS[hosting]
        obs = Observability(trace=False)
        with pytest.raises(DeadlockError) as excinfo:
            self.build().run(executor, config=config, obs=obs)
        details = {stall.context: stall.detail for stall in obs.stall_report.stalls}
        assert details == self.EXPECTED
        for line in excinfo.value.blocked:
            context = line.split(":", 1)[0]
            assert line.startswith(f"{context}: {self.EXPECTED[context]} @ t=")

    def test_a_woken_context_reads_not_started(self):
        """Woken but not yet run, a context still holds the op it parked
        on; its report keeps the channel and reads ``not started``."""
        from repro.core.executor.runners import _BLOCKED, _READY
        from repro.core.executor.sequential import _ContextState, park_site

        program = self.build()
        bare = next(ctx for ctx in program.contexts if ctx.name == "bare")
        state = _ContextState(bare)
        receiver = bare.receivers[0]
        state.retry_op = receiver.dequeue()
        state.status = _BLOCKED
        assert park_site(state) == ("dequeue on empty a", receiver.channel, None)
        state.status = _READY
        assert park_site(state) == ("not started", receiver.channel, None)
