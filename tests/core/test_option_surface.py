"""The option surface, pinned (DESIGN.md §12 has the audit table).

Every independently settable value doubles the configurations the tests
and the benchmark must cover, and by the determinism invariant none of
them can change a simulated result — so each has to earn its place with
a wall-clock row or a test, and adding one is a decision, not a default.
"""

import dataclasses
import inspect
from pathlib import Path

import pytest

import repro
from repro.core import RunConfig
from repro.core.executor import registered_names, resolve_executor
from repro.core.executor.config import _RUN_ONLY_FIELDS

#: Ratchets, like ``EXECUTOR_LOC_LIMIT`` in tests/tools/test_loc.py:
#: lower one when a PR deletes an option, never raise it to make room.
RUNCONFIG_FIELD_LIMIT = 17
CONSTRUCTOR_KEYWORD_LIMITS = {"sequential": 9, "threaded": 8, "process": 14}
#: ``"free-threaded"`` is an alias of ``"threaded"``, not a fourth class.
REGISTERED_NAMES = ["free-threaded", "process", "sequential", "threaded"]


def _keywords(executor_cls) -> set[str]:
    return set(inspect.signature(executor_cls.__init__).parameters) - {"self"}


def _executor_classes() -> dict[str, type]:
    return {cls.name: cls for cls in map(resolve_executor, REGISTERED_NAMES)}


class TestSurfaceRatchet:
    def test_registered_names(self):
        assert registered_names() == REGISTERED_NAMES
        assert sorted(_executor_classes()) == sorted(CONSTRUCTOR_KEYWORD_LIMITS)

    def test_runconfig_field_count(self):
        fields = dataclasses.fields(RunConfig)
        assert len(fields) == RUNCONFIG_FIELD_LIMIT, (
            f"RunConfig has {len(fields)} fields, pinned at "
            f"{RUNCONFIG_FIELD_LIMIT}: delete before you add"
        )

    @pytest.mark.parametrize("name", sorted(CONSTRUCTOR_KEYWORD_LIMITS))
    def test_constructor_keyword_count(self, name):
        keywords = _keywords(_executor_classes()[name])
        limit = CONSTRUCTOR_KEYWORD_LIMITS[name]
        assert len(keywords) == limit, (
            f"{name} executor has {len(keywords)} constructor keywords, "
            f"pinned at {limit}: delete before you add"
        )

    def test_no_environment_variable_is_read(self):
        """A setting read from the environment is an option nobody
        declared."""
        src = Path(repro.__file__).parent
        readers = [
            str(path.relative_to(src))
            for path in src.rglob("*.py")
            if "environ" in path.read_text() or "getenv" in path.read_text()
        ]
        assert readers == []


class TestEveryFieldIsRead:
    def test_each_field_is_some_executors_keyword(self):
        """A field no constructor declares would be dropped by
        ``kwargs_for`` on every runtime: set, and read by nobody."""
        declared = set().union(*map(_keywords, _executor_classes().values()))
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert fields - _RUN_ONLY_FIELDS - declared == set()

    def test_each_field_is_documented(self):
        for field in dataclasses.fields(RunConfig):
            assert field.name in RunConfig.__doc__, field.name


class TestNoSideDoor:
    """``extra`` is gone: an unknown key fails where it is spelled."""

    def test_constructor(self):
        with pytest.raises(TypeError, match="extra"):
            RunConfig(extra={})

    def test_replace(self):
        with pytest.raises(TypeError, match="bogus"):
            RunConfig().replace(bogus=1)

    def test_wire(self):
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            RunConfig.from_dict({"extra": {}})
