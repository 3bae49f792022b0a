"""Tests for the Fig. 7 LoC accounting tool."""

import re
from pathlib import Path

import repro.core
import repro.core.executor
from repro.tools import count_loc, loc_comparison


class TestCountLoc:
    def test_blank_and_comment_lines_excluded(self):
        source = "x = 1\n\n# comment\ny = 2\n"
        assert count_loc(source) == 2

    def test_docstrings_excluded(self):
        source = '"""Module docs\nspan lines."""\n\ndef f():\n    """f docs."""\n    return 1\n'
        assert count_loc(source) == 2  # def + return

    def test_syntax_error_falls_back_to_line_count(self):
        assert count_loc("not ( valid python\nx=1") == 2


class TestLocComparison:
    def test_has_all_primitives_and_total(self):
        rows = loc_comparison()
        names = [row["primitive"] for row in rows]
        assert "Repeat" in names
        assert names[-1] == "TOTAL"

    def test_counts_positive(self):
        for row in loc_comparison():
            assert row["dam_loc"] > 0
            assert row["legacy_loc"] > 0

    def test_stateful_primitives_shrink_on_dam(self):
        """The Fig. 7 effect: primitives with cross-cycle state (the
        scanner, repeat, reduce, spacc, crd-hold) are substantially
        smaller in CSPT style, where the generator's program counter
        replaces the hand-rolled state machine."""
        rows = {row["primitive"]: row for row in loc_comparison()}
        for name in ["FiberLookup", "Repeat", "Reduce", "SpaccV1", "CrdHold"]:
            assert rows[name]["dam_loc"] < rows[name]["legacy_loc"], name

    def test_total_reduction_positive(self):
        rows = loc_comparison()
        assert rows[-1]["reduction_pct"] > 0


#: Effective lines (``count_loc``: no blanks, comments or docstrings) in
#: ``src/repro/core/executor/`` after the last PR that touched it.  A
#: ratchet: lower it whenever a PR deletes code there, never raise it to
#: make room — ROADMAP wants this directory materially smaller.
EXECUTOR_LOC_LIMIT = 3447


class TestExecutorSizeRatchet:
    def test_core_executor_does_not_grow(self):
        """Template lines behind the runners' ``#T ``, ``#F `` and ``#B ``
        markers are code to the traced, the batch and the bare runners
        (``runners.py``) and count as code here, though ``count_loc``
        alone would see comments."""
        directory = Path(repro.core.executor.__file__).parent
        total = sum(
            count_loc(re.sub(r"#[TFB] ", "", path.read_text()))
            for path in directory.glob("*.py")
        )
        assert total <= EXECUTOR_LOC_LIMIT, (
            f"core/executor/ grew to {total} effective lines "
            f"(limit {EXECUTOR_LOC_LIMIT}): delete before you add"
        )


#: Effective lines (``count_loc``) in ``src/repro/core/*.py``, the
#: framework outside ``executor/``, after the last PR that touched it.
#: The same ratchet: lower it whenever a PR deletes code there, never
#: raise it to make room.
CORE_LOC_LIMIT = 1342


class TestCoreSizeRatchet:
    def test_core_does_not_grow(self):
        directory = Path(repro.core.__file__).parent
        total = sum(count_loc(path.read_text()) for path in directory.glob("*.py"))
        assert total <= CORE_LOC_LIMIT, (
            f"core/ outside executor/ grew to {total} effective lines "
            f"(limit {CORE_LOC_LIMIT}): delete before you add"
        )
