"""The wire formats behind the serve layer: ``RunConfig`` and
``RunSummary`` round-trip through strict dicts, and ``tag`` threads from
config to summary (and through every retry-ladder attempt record)."""

import json

import pytest

from repro import (
    Context,
    IncrCycles,
    ProgramBuilder,
    RunConfig,
    RunSummary,
)


class Producer(Context):
    def __init__(self, out, n=4):
        super().__init__()
        self.out, self.n = out, n
        self.register(out)

    def run(self):
        for i in range(self.n):
            yield IncrCycles(1)
            yield self.out.enqueue(i)


class Consumer(Context):
    def __init__(self, inp, n=4):
        super().__init__()
        self.inp, self.n = inp, n
        self.register(inp)

    def run(self):
        for _ in range(self.n):
            yield self.inp.dequeue()
            yield IncrCycles(1)


def tiny_program():
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(2)
    builder.add(Producer(snd))
    builder.add(Consumer(rcv))
    return builder.build()


#: The two supervision timers deadlock and checkpoint rounds no longer
#: need, and the op budget that ``deadline_s`` already covers, spelled in
#: pieces so a search for their names finds only history.
DELETED_KNOBS = ("poll" "_interval", "deadlock" "_grace", "max" "_ops")


class TestRunConfigWire:
    def test_round_trip_is_equal(self):
        config = RunConfig(
            workers=3,
            deadline_s=12.5,
            fallback=["threaded", "sequential"],
            steal=False,
            tag="tenant/req-1",
        )
        wire = config.to_dict()
        json.dumps(wire)  # must be JSON-clean
        rebuilt = RunConfig.from_dict(wire)
        # fallback lists arrive as lists either way; compare field-wise.
        assert rebuilt.workers == config.workers
        assert rebuilt.deadline_s == config.deadline_s
        assert list(rebuilt.fallback) == list(config.fallback)
        assert rebuilt.steal is False
        assert rebuilt.tag == config.tag
        assert rebuilt.to_dict() == wire

    def test_none_fields_are_omitted(self):
        assert RunConfig().to_dict() == {}
        assert RunConfig(workers=2).to_dict() == {"workers": 2}

    def test_unknown_field_raises_listing_valid_names(self):
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            RunConfig.from_dict({"wrokers": 2})
        with pytest.raises(ValueError, match="workers"):
            # The error must list the valid fields so the typo is obvious.
            RunConfig.from_dict({"wrokers": 2})

    def test_constructor_keywords_are_not_wire_fields(self):
        """``ring_capacity`` is a ``ProcessExecutor`` keyword; no wire
        request can reach it, directly or through the deleted ``extra``
        side door.  Nor the deleted supervision knobs: deadlock and
        checkpoint rounds are decided on wake-ups, not timers, and a
        runaway run is bounded by ``deadline_s``, not an op count."""
        for wire in (
            {"ring_capacity": 64},
            {"extra": {"ring_capacity": 64}},
            *({name: 0.5} for name in DELETED_KNOBS),
        ):
            with pytest.raises(ValueError, match="unknown RunConfig field"):
                RunConfig.from_dict(wire)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("obs", {"trace": True}),
            ("pins", {"123": 0}),
            ("faults", "junk"),
            ("metrics_sink", "/tmp/appended-by-the-server.jsonl"),
        ],
    )
    def test_local_only_fields_refused_from_the_wire(self, field, value):
        """The strict inverse of ``to_dict``: what it refuses to emit,
        ``from_dict`` refuses to accept (``metrics_sink`` may be a path
        the run appends JSON lines to)."""
        with pytest.raises(ValueError, match=f"'{field}' are process-local"):
            RunConfig.from_dict({"workers": 2, field: value})

    def test_local_only_fields_refuse_to_serialize(self):
        from repro.obs import Observability

        with pytest.raises(TypeError, match="obs"):
            RunConfig(obs=Observability()).to_dict()
        with pytest.raises(TypeError, match="pins"):
            RunConfig(pins={123: 0}).to_dict()
        with pytest.raises(TypeError, match="metrics_sink"):
            RunConfig(metrics_sink=print).to_dict()

    def test_non_wire_values_refuse_to_serialize(self):
        with pytest.raises(TypeError, match="policy"):
            RunConfig(policy=object()).to_dict()
        with pytest.raises(TypeError, match="weights"):
            RunConfig(weights={"bus": print}).to_dict()

    def test_legacy_kwargs_shim_is_gone(self):
        """PR 4's deprecated bare-kwargs form was removed outright: the
        config object is the only way to pass executor settings."""
        program = tiny_program()
        with pytest.raises(TypeError, match="workers"):
            program.run("sequential", workers=2)


class TestSuperblocksField:
    """``superblocks`` picks the threaded executor's cluster hosting
    (DESIGN.md §15).  No other executor declares the keyword, so the
    value is validated on the config itself."""

    @pytest.mark.parametrize(
        "alias, mode",
        [
            (None, "off"), (False, "off"), ("off", "off"),
            (True, "on"), ("on", "on"),
            ("auto", "auto"),
        ],
    )
    def test_aliases(self, alias, mode):
        from repro.core.executor.partition import normalize_mode

        assert normalize_mode(alias) == mode
        assert RunConfig(superblocks=alias).superblocks == alias

    @pytest.mark.parametrize("bad", ["always", 1, 0.5])
    def test_unknown_value_is_refused_at_construction(self, bad):
        with pytest.raises(ValueError, match="superblocks"):
            RunConfig(superblocks=bad)
        with pytest.raises(ValueError, match="superblocks"):
            RunConfig.from_dict({"superblocks": bad})
        with pytest.raises(ValueError, match="superblocks"):
            RunConfig().replace(superblocks=bad)

    def test_bad_mode_surfaces_through_run(self):
        program = tiny_program()
        with pytest.raises(ValueError, match="superblocks"):
            program.run(config=RunConfig(superblocks="bogus"))

    def test_only_the_threaded_executors_take_the_keyword(self):
        from repro import ProcessExecutor, SequentialExecutor, ThreadedExecutor

        for executor_cls in (SequentialExecutor, ProcessExecutor):
            with pytest.raises(TypeError, match="superblocks"):
                executor_cls(superblocks="on")
            assert RunConfig(superblocks="on").kwargs_for(executor_cls) == {}
        assert RunConfig(superblocks="on").kwargs_for(ThreadedExecutor) == {
            "superblocks": "on"
        }


class TestRunSummaryWire:
    def test_round_trip(self):
        program = tiny_program()
        summary = program.run(config=RunConfig(tag="a/1"))
        wire = summary.to_dict()
        json.dumps(wire)
        rebuilt = RunSummary.from_dict(wire)
        assert rebuilt.elapsed_cycles == summary.elapsed_cycles
        assert rebuilt.context_times == summary.context_times
        assert rebuilt.tag == "a/1"
        assert rebuilt.to_dict() == wire

    def test_unknown_field_rejected(self):
        wire = tiny_program().run().to_dict()
        wire["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            RunSummary.from_dict(wire)


class TestTagThreading:
    def test_tag_lands_on_summary(self):
        summary = tiny_program().run(config=RunConfig(tag="tenant-a/42"))
        assert summary.tag == "tenant-a/42"

    def test_no_tag_means_none(self):
        assert tiny_program().run().tag is None

    def test_tag_recorded_on_ladder_attempts(self):
        summary = tiny_program().run(
            config=RunConfig(fallback="sequential", tag="t/1")
        )
        assert summary.tag == "t/1"
        assert summary.attempts is not None
        assert [a["tag"] for a in summary.attempts] == ["t/1"]
        assert summary.attempts[-1]["outcome"] == "ok"

    def test_tag_survives_a_failing_attempt(self):
        from repro.core import FunctionContext, RunTimeoutError

        def build():
            # Two contexts that never finish: the run only ends when the
            # wall-clock deadline aborts it (every ladder rung times out).
            builder = ProgramBuilder()
            snd, rcv = builder.unbounded(name="spin")

            def spinner():
                while True:
                    yield snd.enqueue(1)
                    yield IncrCycles(1)

            def sink():
                while True:
                    yield rcv.dequeue()
                    yield IncrCycles(1)

            builder.add(FunctionContext(spinner, handles=[snd], name="a"))
            builder.add(FunctionContext(sink, handles=[rcv], name="b"))
            return builder.build()

        with pytest.raises(RunTimeoutError) as info:
            build().run(
                config=RunConfig(
                    deadline_s=0.2,
                    fallback="sequential",
                    tag="t/fail",
                )
            )
        attempts = info.value.attempts
        assert len(attempts) == 2
        assert {a["tag"] for a in attempts} == {"t/fail"}
        assert {a["outcome"] for a in attempts} == {"timeout"}
