"""The fast tier's transitions are written once, as runner templates.

``repro.core.executor.runners`` holds one template per constituent kind
(DESIGN.md §11).  A batch shape's factory source is those templates in
order; ``#T `` lines (the port-history appends) are live only in a traced
runner, ``#F `` lines (the batch's buffer and park bookkeeping) only in a
batch runner and ``#B `` lines (reading a bare op's channel or count) only
in a bare op's.  Everywhere else they are comments, so every variant of a
shape has the same line numbers.  These tests pin that derivation, the
schedule loop's lack of transitions of its own, and what a traceback through
either shows; ``test_fused_ops.py`` and ``test_runners.py`` pin what the
runners do.
"""

import hashlib
import linecache
import re
import traceback

import pytest

from repro.core import (
    FunctionContext,
    FusedOps,
    IncrCycles,
    ProgramBuilder,
    SimulationError,
)
from repro.core.executor import runners, sequential
from repro.core.executor.sequential import SequentialExecutor
from repro.obs import Observability

#: Every constituent kind in one chunk: dequeue, enqueue, a non-negative
#: count, and a rare op.
EVERY_KIND = ("D", "E", "C", "O")

#: What the ``#T`` statements introduce: the trace buffer and its
#: columns, as locals and as the attributes they are read from, and the
#: channels' port ids (the woken receiver's row goes through ``add``).
TRACED_LOCALS = {"trace", "ports", "times", "payloads"}
TRACED_ATTRS = {
    "buffer", "ports", "times", "payloads", "_enq_port", "_deq_port", "add",
}

#: Every untraced runner variant: each kind alone in every mode, and
#: every kind in one chunk.
UNTRACED_SHAPES = [
    ((token,), mode) for token in EVERY_KIND for mode in ("bare", "last", "chain")
] + [(EVERY_KIND, "last"), (EVERY_KIND, "chain")]

#: sha256 of those variants' sources with their ``#T`` lines removed, in
#: ``UNTRACED_SHAPES`` order.  A change of what an untraced run executes
#: changes it; a change of the trace's recording must not.  (Regenerate
#: only for a deliberate change of the untraced runners.)
UNTRACED_SOURCE_SHA256 = (
    "7a8ee04fe410353aa37aa1a6bc3e7746b24e8fcc77d9ba035a7a2ad23ee06bc6"
)

#: A comment that looks like a marker but would not be stripped.
NEAR_MISS = re.compile(r"^\s*#\s*[tTfFbB]\b(?!\w)")


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


def _compiled(key):
    return compile(runners.source(key), "<test>", "exec")


def _names(key):
    names = set()
    for code in _code_objects(_compiled(key)):
        names |= set(code.co_varnames) | set(code.co_names) | set(code.co_freevars)
    return names


def _bytecode(code):
    """A code object tree without its line numbers."""
    return [
        (
            each.co_name, each.co_code, each.co_names, each.co_varnames,
            each.co_freevars, each.co_cellvars,
            tuple(c for c in each.co_consts if not hasattr(c, "co_code")),
        )
        for each in _code_objects(code)
    ]


def _lines_with_code(key):
    return {
        line
        for code in _code_objects(_compiled(key))
        for _, _, line in code.co_lines()
        if line is not None
    }


def _marked(key, marker):
    """``{line number: statement}`` of the still-marked lines of a source."""
    marked = {}
    for lineno, text in enumerate(runners.source(key).splitlines(), 1):
        match = re.match(rf"^\s*{marker} (.*)$", text)
        if match:
            marked[lineno] = match.group(1)
        elif not re.match(r"^\s*#[TFB] ", text):
            assert not NEAR_MISS.match(text), f"mistyped marker {text.strip()!r}"
    return marked


def _carrying(marked):
    """Marked lines that carry bytecode once live (not a closing bracket)."""
    return {
        lineno
        for lineno, text in marked.items()
        if not re.fullmatch(r"[)\]},\s]*", text)
    }


def _pipeline(body_error=None):
    builder = ProgramBuilder()
    snd, rcv = builder.bounded(1, name="c")

    def producer():
        for value in range(4):
            yield snd.enqueue(value)
            yield IncrCycles(1)
        if body_error is not None:
            raise body_error

    def consumer():
        while True:
            yield rcv.dequeue()

    builder.add(FunctionContext(producer, handles=[snd], name="producer"))
    builder.add(FunctionContext(consumer, handles=[rcv], name="consumer"))
    return builder.build()


class TestDerivation:
    def test_untraced_runner_knows_nothing_of_tracing(self):
        # (A marked local that lost its marker would be read as a global.)
        assert not (TRACED_LOCALS | TRACED_ATTRS) & _names((EVERY_KIND, "last", False))

    def test_traced_runner_adds_the_traced_names_and_nothing_else(self):
        traced = _names((EVERY_KIND, "last", True))
        untraced = _names((EVERY_KIND, "last", False))
        assert traced - untraced == TRACED_LOCALS | TRACED_ATTRS

    def test_every_traced_line_is_compiled_in(self):
        """Each ``#T`` line carries bytecode in the traced runner (bar the
        closing bracket of a wrapped statement) and none in the untraced
        one; the two agree on every other line."""
        untraced_key = (EVERY_KIND, "last", False)
        marked = _marked(untraced_key, "#T")
        # 4 prologue bindings; 3 completion sites (dequeue, enqueue,
        # advance) appending to the port and time columns and, behind a
        # test, the payload column (4 lines each); the enqueue's
        # open-coded wake records for the waiter (1 line).
        assert len(marked) == 4 + 3 * 4 + 1
        traced = _lines_with_code((EVERY_KIND, "last", True))
        untraced = _lines_with_code(untraced_key)
        assert traced - untraced == _carrying(marked)
        assert untraced <= traced
        assert _marked((EVERY_KIND, "last", True), "#T") == {}

    @pytest.mark.parametrize("token", ["D", "E", "O"])
    def test_every_batch_line_is_compiled_in(self, token):
        """``#F`` lines (result slot, park bookkeeping) are code in a
        batch runner and comments in a bare op's."""
        bare = ((token,), "bare", False)
        marked = _marked(bare, "#F")
        assert marked
        batch = _lines_with_code(((token,), "last", False))
        assert batch - _lines_with_code(bare) == _carrying(marked)

    @pytest.mark.parametrize("token, count", [("D", 2), ("E", 2), ("C", 3)])
    def test_every_bare_line_is_compiled_in(self, token, count):
        """``#B`` lines (the op's channel and its deques and stats, or its
        count and the hand-off of a negative one) are code in a bare op's
        runner and comments in a batch runner, which binds them instead."""
        batch = ((token,), "last", False)
        marked = _marked(batch, "#B")
        assert len(marked) == count
        bare = _lines_with_code(((token,), "bare", False))
        assert bare - _lines_with_code(batch) == _carrying(marked)

    def test_a_bare_runner_binds_nothing_of_its_op(self):
        """What a batch runner binds, a bare op's reads off the op."""
        for token in ("D", "E", "C"):
            bind = _compiled(((token,), "bare", False)).co_consts[0]
            params = bind.co_varnames[: bind.co_argcount]
            assert params == ("base", "buf", "nxt"), token

    def test_untraced_runners_are_pinned(self):
        """What an untraced run executes does not move when the trace's
        recording does: every untraced variant's source, less its ``#T``
        lines, has the pinned digest, and compiles to the same code
        objects as the variant itself (line tables aside)."""
        stripped = []
        for tokens, mode in UNTRACED_SHAPES:
            source = runners.source((tokens, mode, False))
            without = re.sub(r"(?m)^[ \t]*#T .*\n", "", source)
            stripped.append(without)
            assert _bytecode(compile(source, "<test>", "exec")) == _bytecode(
                compile(without, "<test>", "exec")
            ), (tokens, mode)
        digest = hashlib.sha256("".join(stripped).encode()).hexdigest()
        assert digest == UNTRACED_SOURCE_SHA256

    def test_variants_share_line_numbers(self):
        lengths = {
            len(runners.source((tokens, mode, traced)).splitlines())
            for tokens in [("E",), ("D",), ("C",), ("O",)]
            for mode in ("bare", "last", "chain")
            for traced in (False, True)
        }
        assert len(lengths) == 4  # one per shape, whatever the variant


class TestOneDefinitionPerTier:
    """The fast tier performs a transition only inside a runner; what
    runs beside them calls the channel's own methods, the one written
    form of the transitions."""

    def test_the_loop_performs_no_transition(self):
        names = set(SequentialExecutor._schedule_loop.__code__.co_names)
        assert not {
            "_data", "_resps", "_delta", "stats", "_enq_code", "_deq_code",
            "try_enqueue", "fast_dequeue", "waiting_sender", "waiting_receiver",
        } & names
        assert {"plan", "resume", "_bare_runners"} <= names

    def test_no_plan_interpreter_is_left(self):
        source = open(sequential.__file__).read()
        assert "_compile_plan" not in source
        assert "for scode, sub, channel" not in source

    @pytest.mark.parametrize(
        "helper, transition",
        [("_wake_send_deliver", "try_enqueue"), ("_wake_recv_deliver", "do_dequeue")],
    )
    def test_wake_helpers_go_through_the_channel_methods(self, helper, transition):
        names = set(getattr(SequentialExecutor, helper).__code__.co_names)
        assert transition in names
        assert not {"_data", "_resps", "_delta", "stats"} & names


class TestTracebacks:
    def test_body_exception_under_tracing_reports_real_lines(self):
        """The frame of the loop in a traced run's traceback names
        ``sequential.py`` and a line that really holds the resume."""
        executor = SequentialExecutor(obs=Observability())
        with pytest.raises(SimulationError) as caught:
            executor.execute(_pipeline(body_error=KeyError("boom")))
        frames = [
            frame
            for frame in traceback.extract_tb(caught.value.__cause__.__traceback__)
            if frame.name == "_schedule_loop"
        ]
        assert len(frames) == 1
        assert frames[0].filename == sequential.__file__
        assert "gen_send(value)" in frames[0].line

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize(
        "batch, label, op",
        [
            (FusedOps(IncrCycles(1), IncrCycles(-2)), "C,O last", "op1"),
            # A bare count's runner hands a negative one to the rare runner.
            (IncrCycles(-2), "O bare", "op0"),
        ],
        ids=["fused", "bare"],
    )
    def test_an_error_inside_a_runner_shows_its_generated_line(
        self, traced, batch, label, op
    ):
        builder = ProgramBuilder()

        def bad():
            yield batch

        builder.add(FunctionContext(bad, name="bad"))
        executor = SequentialExecutor(obs=Observability() if traced else None)
        with pytest.raises(ValueError, match="backwards") as caught:
            executor.execute(builder.build())
        frames = [
            frame
            for frame in traceback.extract_tb(caught.value.__traceback__)
            if frame.filename.startswith(runners.__file__ + "[")
        ]
        label += " traced" if traced else ""
        assert frames[-1].filename == f"{runners.__file__}[{label}]"
        assert frames[-1].line == f"if not self._dispatch(state, {op}):"
        for frame in frames:
            assert linecache.getline(frame.filename, frame.lineno).strip() == frame.line
