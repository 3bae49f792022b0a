"""Executor registry: name → class, with lazy imports and ``"auto"``.

``Program.run`` historically imported every executor module just to
string-match a name — paying the full import cost (shared-memory,
threading, partitioning machinery) even for a sequential run, and even to
raise "unknown executor".  The registry fixes both:

* builtin executors are *declared* here as ``name -> (module, attr)``
  pairs and imported only when resolved, so an unknown name raises a
  :class:`ValueError` listing every registered name without importing
  anything;
* third-party executors join via the :func:`register_executor` class
  decorator (optionally with an ``available`` predicate consulted by
  ``"auto"``);
* ``"auto"`` picks the best runtime the host can actually use, in the
  order process > threaded > sequential.

The availability predicates are deliberately import-free: GIL state via
``sys._is_gil_enabled`` (absent before CPython 3.13 → GIL assumed on),
fork via ``multiprocessing.get_all_start_methods()``, and the CPU budget
via ``os.sched_getaffinity``.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import sys
from typing import Callable, Optional

#: Builtin executors, resolvable without importing their modules.
_BUILTIN: dict[str, tuple[str, str]] = {
    "sequential": (".sequential", "SequentialExecutor"),
    "threaded": (".threaded", "ThreadedExecutor"),
    "process": (".partitioned", "ProcessExecutor"),
    # An alias: with the GIL off the threaded runtime *is* the
    # free-threaded one (summaries report ``executor == "threaded"``).
    "free-threaded": (".threaded", "ThreadedExecutor"),
}

#: Classes registered via :func:`register_executor` (builtins self-register
#: on import; the lazy table above makes that import unnecessary for
#: resolution).
_REGISTRY: dict[str, type] = {}

#: Per-name availability predicates consulted by ``"auto"``.
_AVAILABILITY: dict[str, Callable[[], bool]] = {}

#: Preference order for ``executor="auto"``.
AUTO_ORDER = ("process", "threaded", "sequential")


def gil_disabled() -> bool:
    """True only on a free-threaded CPython build running with the GIL
    actually off (``python3.13t``, no ``PYTHON_GIL=1`` re-enabling)."""
    probe = getattr(sys, "_is_gil_enabled", None)
    return probe is not None and probe() is False


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _cpu_budget() -> int:
    # ``sched_getaffinity`` is absent off-Linux (AttributeError) and can
    # fail with OSError in constrained sandboxes/containers where the
    # affinity syscall (or /proc) is masked.  Registry resolution must
    # degrade, never raise: fall back to the flat CPU count, then to 1.
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError, ValueError):
        pass
    try:
        return os.cpu_count() or 1
    except OSError:  # pragma: no cover - /proc unavailable
        return 1


def _process_available() -> bool:
    # One CPU makes process parallelism pure overhead; fork is required
    # because context generators cannot be pickled.
    return _fork_available() and _cpu_budget() >= 2


_AVAILABILITY.update(
    {
        # Under the GIL, threads add synchronization cost with no
        # parallelism — "auto" prefers process or sequential instead.
        "threaded": gil_disabled,
        "process": _process_available,
        "sequential": lambda: True,
    }
)


def register_executor(
    name: str,
    *,
    available: Optional[Callable[[], bool]] = None,
) -> Callable[[type], type]:
    """Class decorator: make ``cls`` resolvable as ``Program.run(name)``.

    ``available`` (optional, import-free) tells ``"auto"`` whether this
    runtime can be used on the current host; without it a registered
    executor is only selected by explicit name.
    """

    def decorate(cls: type) -> type:
        _REGISTRY[name] = cls
        if available is not None:
            _AVAILABILITY[name] = available
        return cls

    return decorate


def registered_names() -> list[str]:
    """Every resolvable executor name (no imports performed)."""
    return sorted(set(_BUILTIN) | set(_REGISTRY))


def executor_available(name: str) -> bool:
    """Whether ``"auto"`` may pick ``name`` on this host.

    A predicate that *raises* (host probing is inherently platform-
    dependent) counts as unavailable: ``"auto"`` resolution must always
    land on some executor rather than surface a probe failure.
    """
    predicate = _AVAILABILITY.get(name)
    if predicate is None:
        return False
    try:
        return bool(predicate())
    except Exception:
        return False


def _resolve_auto() -> type:
    for name in AUTO_ORDER:
        if name in (_REGISTRY.keys() | _BUILTIN.keys()) and executor_available(name):
            return resolve_executor(name)
    return resolve_executor("sequential")  # pragma: no cover - unreachable


def resolve_executor(spec) -> type:
    """Resolve ``spec`` (a name, ``"auto"``, or an Executor class) to an
    executor class, importing at most the winning module."""
    if isinstance(spec, type):
        from .base import Executor

        if issubclass(spec, Executor):
            return spec
        raise TypeError(
            f"executor class {spec.__name__} does not subclass Executor"
        )
    if spec == "auto":
        return _resolve_auto()
    cls = _REGISTRY.get(spec)
    if cls is not None:
        return cls
    entry = _BUILTIN.get(spec)
    if entry is not None:
        module_name, attr = entry
        module = importlib.import_module(module_name, __package__)
        return getattr(module, attr)
    raise ValueError(
        f"unknown executor {spec!r}; registered executors: "
        f"{', '.join(registered_names())} (or 'auto')"
    )
