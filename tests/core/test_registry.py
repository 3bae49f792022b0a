"""Executor registry + RunConfig: resolution, "auto", laziness, the
typed-config portability contract, and the deprecation shim.

The registry's whole point is that ``Program.run`` can name a runtime
without importing every runtime, so several tests here assert on
``sys.modules`` from a clean subprocess.
"""

import dataclasses
import subprocess
import sys
import textwrap

import pytest

from repro.contexts import Collector, RampSource, UnaryFunction
from repro.core import ProgramBuilder, RunConfig
from repro.core.executor import (
    ProcessExecutor,
    SequentialExecutor,
    ThreadedExecutor,
)
from repro.core.executor import registry as registry_mod
from repro.core.executor.registry import (
    AUTO_ORDER,
    executor_available,
    register_executor,
    registered_names,
    resolve_executor,
)
from repro.obs import Observability


def pipeline(n=10, capacity=3):
    builder = ProgramBuilder()
    s1, r1 = builder.bounded(capacity)
    s2, r2 = builder.bounded(capacity)
    builder.add(RampSource(s1, n))
    builder.add(UnaryFunction(r1, s2, lambda x: x + 1))
    collector = builder.add(Collector(r2))
    return builder.build(), collector


class TestResolution:
    def test_builtin_names_resolve(self):
        assert resolve_executor("sequential") is SequentialExecutor
        assert resolve_executor("threaded") is ThreadedExecutor
        assert resolve_executor("process") is ProcessExecutor

    def test_registered_names_cover_builtins(self):
        names = registered_names()
        for name in ("sequential", "threaded", "process", "free-threaded"):
            assert name in names

    def test_free_threaded_is_an_alias_of_threaded(self):
        """With the GIL off the threaded runtime *is* the free-threaded
        one; the name stays resolvable, the class and its label do not
        fork."""
        assert resolve_executor("free-threaded") is ThreadedExecutor
        assert "free-threaded" not in AUTO_ORDER
        program, collector = pipeline()
        summary = program.run(executor="free-threaded")
        assert summary.executor == "threaded"
        assert collector.values == [i + 1 for i in range(10)]

    def test_auto_order(self):
        assert AUTO_ORDER == ("process", "threaded", "sequential")

    def test_executor_class_passes_through(self):
        assert resolve_executor(SequentialExecutor) is SequentialExecutor

    def test_non_executor_class_rejected(self):
        with pytest.raises(TypeError, match="does not subclass Executor"):
            resolve_executor(dict)

    def test_unknown_name_lists_registered_names(self):
        with pytest.raises(ValueError) as err:
            resolve_executor("gpu")
        message = str(err.value)
        assert "unknown executor 'gpu'" in message
        for name in registered_names():
            assert name in message
        assert "'auto'" in message

    def test_auto_matches_host_predicates(self):
        expected = "sequential"
        for name in AUTO_ORDER:
            if executor_available(name):
                expected = name
                break
        assert resolve_executor("auto") is resolve_executor(expected)

    def test_sequential_always_available(self):
        assert executor_available("sequential")

    def test_unregistered_name_not_available(self):
        assert not executor_available("gpu")


class TestLaziness:
    """Resolution must not import executor modules it does not return."""

    def _run_probe(self, body):
        script = textwrap.dedent(body)
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_unknown_name_error_imports_no_executor_module(self):
        out = self._run_probe(
            """
            import sys
            from repro.core.executor.registry import resolve_executor
            try:
                resolve_executor("nope")
            except ValueError as err:
                assert "registered executors" in str(err)
            else:
                raise AssertionError("expected ValueError")
            heavy = [
                m for m in sys.modules
                if m.endswith((".partitioned", ".threaded", ".sequential"))
            ]
            print(sorted(heavy))
            """
        )
        assert out.strip() == "[]"

    def test_resolving_one_name_imports_only_that_module(self):
        out = self._run_probe(
            """
            import sys
            from repro.core.executor.registry import resolve_executor
            resolve_executor("threaded")
            heavy = [
                m.rsplit(".", 1)[-1] for m in sys.modules
                if m.endswith(".partitioned")
            ]
            print(sorted(heavy))
            """
        )
        assert out.strip() == "[]"


class TestCustomRegistration:
    def test_register_and_resolve_custom_executor(self):
        @register_executor("instrumented-sequential")
        class Instrumented(SequentialExecutor):
            pass

        try:
            assert resolve_executor("instrumented-sequential") is Instrumented
            assert "instrumented-sequential" in registered_names()
            # No availability predicate: explicit-name only, never "auto".
            assert not executor_available("instrumented-sequential")

            program, collector = pipeline()
            program.run(executor="instrumented-sequential")
            assert collector.values == [i + 1 for i in range(10)]
        finally:
            registry_mod._REGISTRY.pop("instrumented-sequential", None)

    def test_reregistered_name_is_filtered_by_the_new_signature(self):
        """``kwargs_for`` caches the declared keywords per *class*: a new
        class under a name already served must not get the old entry."""
        config = RunConfig(workers=3, fast_path=False)
        try:
            @register_executor("shape-shifter")
            class TakesWorkers(SequentialExecutor):
                def __init__(self, workers=1):
                    super().__init__()

            first = resolve_executor("shape-shifter")
            assert config.kwargs_for(first) == {"workers": 3}
            assert config.kwargs_for(first) == {"workers": 3}  # cached

            @register_executor("shape-shifter")
            class TakesFastPath(SequentialExecutor):
                def __init__(self, fast_path=True):
                    super().__init__(fast_path=fast_path)

            second = resolve_executor("shape-shifter")
            assert second is TakesFastPath
            assert config.kwargs_for(second) == {"fast_path": False}
        finally:
            registry_mod._REGISTRY.pop("shape-shifter", None)

    def test_available_predicate_registered(self):
        @register_executor("always-on", available=lambda: True)
        class AlwaysOn(SequentialExecutor):
            pass

        try:
            assert executor_available("always-on")
        finally:
            registry_mod._REGISTRY.pop("always-on", None)
            registry_mod._AVAILABILITY.pop("always-on", None)


class TestRunConfig:
    def test_frozen(self):
        config = RunConfig(workers=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.workers = 4

    def test_none_fields_omitted(self):
        assert RunConfig().kwargs_for(SequentialExecutor) == {}
        assert RunConfig().kwargs_for(ProcessExecutor) == {}

    def test_fields_filtered_by_signature(self):
        config = RunConfig(workers=3, fast_path=False, steal=False)
        # The sequential constructor declares fast_path but neither
        # workers nor steal; the process constructor is the reverse.
        assert config.kwargs_for(SequentialExecutor) == {"fast_path": False}
        assert config.kwargs_for(ProcessExecutor) == {
            "workers": 3,
            "steal": False,
        }

    def test_a_typo_fails_loudly(self):
        """No untyped side door: a keyword that is neither a RunConfig
        field nor a constructor keyword is a TypeError wherever it is
        spelled."""
        with pytest.raises(TypeError, match="bogus_knob"):
            RunConfig(bogus_knob=1)
        with pytest.raises(TypeError, match="bogus_knob"):
            SequentialExecutor(bogus_knob=1)
        with pytest.raises(TypeError, match="bogus_knob"):
            SequentialExecutor.from_config(RunConfig(), bogus_knob=1)

    def test_replace_known_field(self):
        config = RunConfig(workers=2).replace(workers=5)
        assert config.workers == 5

    def test_replace_unknown_key_is_a_type_error(self):
        with pytest.raises(TypeError, match="mystery"):
            RunConfig().replace(mystery=7)

    def test_from_config(self):
        executor = ProcessExecutor.from_config(RunConfig(workers=2, steal=False))
        assert executor.workers == 2
        assert executor.steal is False

    def test_from_config_overrides(self):
        executor = ProcessExecutor.from_config(RunConfig(workers=2), workers=4)
        assert executor.workers == 4

    def test_one_config_portable_across_executors(self):
        config = RunConfig(workers=2)
        program, collector = pipeline()
        summary = program.run(executor="sequential", config=config)
        values = list(collector.values)

        program2, collector2 = pipeline()
        summary2 = program2.run(executor="process", config=config)
        assert collector2.values == values
        assert summary2.elapsed_cycles == summary.elapsed_cycles


class TestProgramRunApi:
    def test_legacy_kwargs_rejected(self):
        """The PR-4 bare-kwargs shim is gone: ``RunConfig`` is the one
        configuration path, so stray keywords fail loudly at the call."""
        program, _ = pipeline()
        with pytest.raises(TypeError, match="fast_path"):
            program.run(executor="sequential", fast_path=False)

    def test_config_form_runs(self):
        import warnings

        program, collector = pipeline()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            program.run(
                executor="sequential", config=RunConfig(fast_path=False)
            )
        assert collector.values == [i + 1 for i in range(10)]

    def test_executor_instance_passthrough(self):
        program, collector = pipeline()
        summary = program.run(executor=SequentialExecutor())
        assert summary.executor == "sequential"
        assert collector.values == [i + 1 for i in range(10)]

    def test_instance_plus_config_rejected(self):
        program, _ = pipeline()
        with pytest.raises(TypeError, match="executor instance"):
            program.run(executor=SequentialExecutor(), config=RunConfig())
        with pytest.raises(TypeError, match="workers"):
            program.run(executor=SequentialExecutor(), workers=2)

    def test_instance_plus_obs_rejected(self):
        """``obs=`` is configuration too: an instance would run without
        it (no metrics, no trace), so it is refused like ``config=``."""
        program, _ = pipeline()
        obs = Observability()
        with pytest.raises(TypeError, match="executor instance"):
            program.run(executor=SequentialExecutor(), obs=obs)
        assert len(obs.trace) == 0

    def test_auto_runs_and_reports_real_executor(self):
        program, collector = pipeline()
        summary = program.run(executor="auto")
        assert collector.values == [i + 1 for i in range(10)]
        assert summary.executor in ("sequential", "threaded", "process")
