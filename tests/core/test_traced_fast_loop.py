"""The traced fast slice loop is derived, not written (DESIGN.md §11).

``SequentialExecutor._run_slice_fast`` is written once.  Statements that
only a traced run executes sit in it behind a ``#T `` marker — comments
to the method Python compiles from ``sequential.py`` — and
``traced_fast_loop()`` compiles the same source lines with the markers
stripped, at the same line numbers, on first traced use.  These tests
pin the derivation itself; ``test_fused_ops.py::TestParkWakeShapes`` pins
what the variant records.
"""

import ast
import inspect
import re
import traceback

import pytest

from repro.core import FunctionContext, IncrCycles, ProgramBuilder, SimulationError
from repro.core.executor import sequential
from repro.core.executor.sequential import SequentialExecutor, traced_fast_loop
from repro.obs import Observability

UNTRACED = SequentialExecutor._run_slice_fast.__code__

#: What the marked statements introduce: the bound appends of a
#: context's columns and its payload column, and the attributes they read
#: off its trace buffer.
TRACED_LOCALS = {"add_kind", "add_channel", "add_time", "payloads"}
TRACED_ATTRS = {"buffer", "kinds", "channels", "times", "payloads"}

MARKER = re.compile(r"^\s*#T (.*)$")
#: A comment that looks like a marker but would not be stripped.
NEAR_MISS = re.compile(r"^\s*#\s*[tT]\b(?!\w)")


def _marked_lines():
    """``{line number: statement text}`` of the loop's marked lines."""
    lines, first = inspect.getsourcelines(SequentialExecutor._run_slice_fast)
    marked = {}
    for lineno, text in enumerate(lines, first):
        match = MARKER.match(text)
        if match:
            marked[lineno] = match.group(1)
        else:
            assert not NEAR_MISS.match(text), (
                f"sequential.py:{lineno}: mistyped trace marker {text.strip()!r}"
            )
    return marked


def _lines_with_code(code):
    return {line for _, _, line in code.co_lines() if line is not None}


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
    def test_untraced_method_knows_nothing_of_tracing(self):
        # (A marked local that lost its marker would be read as a global.)
        names = set(UNTRACED.co_varnames) | set(UNTRACED.co_names)
        assert not (TRACED_LOCALS | TRACED_ATTRS) & names

    def test_traced_variant_has_the_traced_names_and_nothing_else_new(self):
        traced = traced_fast_loop().__code__
        assert set(traced.co_varnames) - set(UNTRACED.co_varnames) == TRACED_LOCALS
        assert set(traced.co_names) - set(UNTRACED.co_names) == TRACED_ATTRS

    def test_every_marked_statement_is_compiled_in(self):
        """Each marked line carries bytecode in the variant (bar the
        closing bracket of a wrapped statement) and none in the method;
        the two agree on every other line."""
        marked = _marked_lines()
        # 4 prologue bindings; 8 completion sites: 7 append to the three
        # columns and, behind a test, the payload column (5 lines), and
        # the hot wake calls the waiter's buffer (3 lines).
        assert len(marked) == 4 + 7 * 5 + 3
        carrying = {
            lineno
            for lineno, text in marked.items()
            if not re.fullmatch(r"[)\]},\s]*", text)
        }
        traced_lines = _lines_with_code(traced_fast_loop().__code__)
        untraced_lines = _lines_with_code(UNTRACED)
        assert traced_lines - untraced_lines == carrying
        assert untraced_lines <= traced_lines

    def test_variant_sits_on_the_methods_own_lines(self):
        traced = traced_fast_loop().__code__
        assert traced.co_filename == UNTRACED.co_filename == sequential.__file__
        assert traced.co_firstlineno == UNTRACED.co_firstlineno
        assert traced.co_name == UNTRACED.co_name

    def test_built_once_per_process(self):
        first = traced_fast_loop()
        executors = [SequentialExecutor(obs=Observability()) for _ in range(2)]
        for executor in executors:
            executor.execute(_pipeline())
            assert executor._fast_loop is first
        assert traced_fast_loop() is first
        assert traced_fast_loop.cache_info().misses == 1

    def test_untraced_run_binds_the_method_itself(self):
        """The executor keeps the plain function, not a bound method: a
        bound method on the executor would be a reference cycle."""
        executor = SequentialExecutor()
        executor.execute(_pipeline())
        assert executor._fast_loop is SequentialExecutor._run_slice_fast


class TestOneDefinitionPerTier:
    """The fast tier open-codes a transition only inside the loop; what
    runs beside it calls the channel's flavor methods."""

    def test_one_loop_over_plan_entries(self):
        """A parked batch re-enters the loop's fused branch: there is no
        second interpreter of compiled plans for the resume path."""
        tree = ast.parse(inspect.getsource(sequential))
        owners = [
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for loop in ast.walk(function)
            if isinstance(loop, ast.For)
            and any(
                isinstance(node, ast.Name) and node.id == "entries"
                for node in ast.walk(loop.iter)
            )
        ]
        assert owners == ["_run_slice_fast"]

    @pytest.mark.parametrize(
        "helper, transition",
        [("_wake_send_deliver", "try_enqueue"), ("_wake_recv_deliver", "fast_dequeue")],
    )
    def test_wake_helpers_go_through_the_flavor_methods(self, helper, transition):
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
            if frame.name == "_run_slice_fast"
        ]
        assert len(frames) == 1
        assert frames[0].filename == sequential.__file__
        assert "gen_send(value)" in frames[0].line
        lines, first = inspect.getsourcelines(SequentialExecutor._run_slice_fast)
        assert first <= frames[0].lineno < first + len(lines)
        assert lines[frames[0].lineno - first].strip() == frames[0].line
