"""True in-process thread parallelism on free-threaded CPython.

The paper's runtime is one OS thread per context with SVA/SVP pairwise
synchronization — exactly what :class:`ThreadedExecutor` implements, and
exactly what the GIL has historically reduced to time-slicing.  CPython
3.13's free-threaded build (``python3.13t``) removes the GIL, so the same
runtime finally delivers the paper's wall-clock scaling without forking.

:class:`FreeThreadedExecutor` reuses the threaded runtime unchanged when
``sys._is_gil_enabled()`` reports the GIL is off:

* SVA stays sound: free-threaded CPython guarantees tear-free attribute
  loads of the integer clock values the ``ViewTime``/``WaitUntil`` paths
  read (per-object synchronization replaces the GIL's implicit acquire),
  and the values remain monotone lower bounds;
* SVP stays ``threading.Condition`` — a real futex park/unpark now that
  waiters and wakers run concurrently.

On a GIL build the executor *falls back* to :class:`ProcessExecutor`
(the fork-based route around the GIL) when fork is available, else to the
plain threaded runtime — so ``executor="free-threaded"`` is safe to
request anywhere and simply does the best the interpreter allows.
"""

from __future__ import annotations

from typing import Optional

from ...obs import Observability
from ..program import Program
from .base import RunSummary
from .registry import gil_disabled, register_executor
from .threaded import ThreadedExecutor


@register_executor("free-threaded", available=gil_disabled)
class FreeThreadedExecutor(ThreadedExecutor):
    """The threaded runtime, truly parallel on free-threaded builds.

    Parameters (beyond :class:`ThreadedExecutor`'s)
    -----------------------------------------------
    workers:
        Worker-count hint forwarded to the process-executor fallback on
        GIL builds; ignored when threads run truly in parallel (the
        runtime is one thread per context either way).
    pin_workers:
        Pin context threads round-robin onto the available CPUs
        (``os.sched_setaffinity``); only applied when the GIL is off.
    steal:
        Forwarded to the process-executor fallback (work stealing).
    """

    name = "free-threaded"

    def __init__(
        self,
        poll_interval: float = 0.05,
        deadlock_grace: float = 2.0,
        obs: Optional[Observability] = None,
        workers: Optional[int] = None,
        pin_workers: bool = False,
        steal: bool = True,
        deadline_s: Optional[float] = None,
        faults=None,
        metrics_interval_s: Optional[float] = None,
        metrics_sink=None,
        superblocks=None,
        checkpoint_interval_s: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
    ):
        super().__init__(
            poll_interval=poll_interval,
            deadlock_grace=deadlock_grace,
            obs=obs,
            deadline_s=deadline_s,
            faults=faults,
            metrics_interval_s=metrics_interval_s,
            metrics_sink=metrics_sink,
            superblocks="auto" if superblocks is None else superblocks,
            checkpoint_interval_s=checkpoint_interval_s,
            checkpoint_path=checkpoint_path,
        )
        self.workers = workers
        self.pin_workers = pin_workers
        self.steal = steal
        self._pin_cpus: dict[int, list[int]] = {}

    @staticmethod
    def parallel_capable() -> bool:
        """True when threads can actually run in parallel here."""
        return gil_disabled()

    def execute(self, program: Program) -> RunSummary:
        if not self.parallel_capable():
            return self._execute_fallback(program)
        if self.pin_workers:
            from .affinity import available_cpus

            cpus = available_cpus() or []
            if cpus:
                self._pin_cpus = {
                    id(ctx): [cpus[index % len(cpus)]]
                    for index, ctx in enumerate(program.contexts)
                }
        return super().execute(program)

    def _drive(self, ctx) -> None:
        cpu_set = self._pin_cpus.get(id(ctx))
        if cpu_set:
            from .affinity import pin_current_process

            pin_current_process(cpu_set)
        super()._drive(ctx)

    def _execute_fallback(self, program: Program) -> RunSummary:
        """GIL build: route around it, keeping the requested semantics."""
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from .partitioned import ProcessExecutor

            fallback = ProcessExecutor(
                workers=self.workers or 2,
                obs=self.obs,
                deadlock_grace=max(self.deadlock_grace, 0.5),
                steal=self.steal,
                pin_workers=self.pin_workers,
                deadline_s=self.deadline_s,
                faults=self.faults,
                metrics_interval_s=self.metrics_interval_s,
                metrics_sink=self.metrics_sink,
                checkpoint_interval_s=self.checkpoint_interval_s,
                checkpoint_path=self.checkpoint_path,
            )
        else:  # pragma: no cover - no-fork platforms
            fallback = ThreadedExecutor(
                poll_interval=self.poll_interval,
                deadlock_grace=self.deadlock_grace,
                obs=self.obs,
                deadline_s=self.deadline_s,
                faults=self.faults,
                metrics_interval_s=self.metrics_interval_s,
                metrics_sink=self.metrics_sink,
                superblocks=self.superblocks,
                checkpoint_interval_s=self.checkpoint_interval_s,
                checkpoint_path=self.checkpoint_path,
            )
        summary = fallback.execute(program)
        summary.executor = f"{self.name}({fallback.name})"
        return summary
