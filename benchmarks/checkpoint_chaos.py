"""Checkpoint-chaos driver (the CI ``checkpoint-chaos`` job).

Seeded end-to-end kill/resume rounds on top of the unit suites:

1. For each seed: a process run on two or three workers with the
   contexts pinned at random, checkpointing at a randomized interval
   and a random worker SIGKILLed after a randomized number of
   checkpoint dumps, retried through the ladder — the final result must
   be bit-identical to a clean reference run, and the last attempt must
   record ``resumed_from``.
2. A crash-only run (random pins and worker count again), then a manual
   resume from ``latest_checkpoint`` onto a *different* worker count
   (elastic repartitioning), freshly planned or with the checkpoint's
   placement folded onto it — again bit-identical.  Once per run the
   same with 96-byte rings, so the cuts hold records that had not fit
   in a lane (DESIGN.md §17).
3. Post-conditions after every round: no stale temp files in the
   checkpoint directory, no orphaned child processes (multiprocessing's
   ``resource_tracker`` legitimately lives until interpreter exit), and
   no ``/dev/shm`` segments.

Exit code 0 = all rounds passed.
"""

import argparse
import os
import random
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import spec  # noqa: E402
from repro.core import RunConfig, checkpoint as ckpt, pins_from_placement  # noqa: E402
from repro.core.errors import WorkerCrashError  # noqa: E402
from repro.core.executor.partitioned import ProcessExecutor  # noqa: E402
from repro.core.faults import FaultPlan  # noqa: E402
from repro.sam import CsfTensor  # noqa: E402
from repro.sam.graphs import build_spmspm  # noqa: E402
from repro.sam.tensor import random_dense  # noqa: E402


def build_kernel():
    # 12x12: the ladder's 10 ms capture interval must reach a third dump
    # before the victim retires, which an 8x8 run (~25 ms) does not.
    b = random_dense(12, 12, density=0.4, seed=23)
    ct = random_dense(12, 12, density=0.4, seed=24)
    return build_spmspm(
        CsfTensor.from_dense(b, "cc"), CsfTensor.from_dense(ct, "cc"), depth=4
    )


def checkpoint_leftovers(ckdir):
    return [
        name
        for name in os.listdir(ckdir)
        if not (name.startswith("ckpt-") and name.endswith(".dam"))
    ]


def shm_segments():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:
        return set()


def orphan_children():
    """Child processes that outlived their run (resource_tracker excluded)."""
    pids = subprocess.run(
        ["ps", "--ppid", str(os.getpid()), "-o", "pid="],
        capture_output=True,
        text=True,
    ).stdout.split()
    orphans = []
    for pid in pids:
        try:
            with open(f"/proc/{pid}/cmdline") as handle:
                cmd = handle.read().replace("\0", " ").strip()
        except OSError:
            continue  # the ps child itself, already reaped
        if "resource_tracker" in cmd:
            continue  # lives until interpreter exit by design
        orphans.append(f"{pid}: {cmd}")
    return orphans


def check_hygiene(ckdir, shm_before, label, failures):
    leftovers = checkpoint_leftovers(ckdir)
    if leftovers:
        failures.append(f"{label}: stale checkpoint files {leftovers}")
    leaked = shm_segments() - shm_before
    if leaked:
        failures.append(f"{label}: leaked shm segments {sorted(leaked)}")
    orphans = orphan_children()
    if orphans:
        failures.append(f"{label}: orphaned processes {orphans}")


#: The kill fires only if the victim is still live at its Nth dump, so
#: any single try may legitimately finish clean; a scenario gets this
#: many tries to land its crash before we call the injection broken.
#: The crashing attempts run with ``steal=False``: worker 0 is forked
#: first and, left to steal, often adopts another worker's clusters
#: before that worker claims them — the victim then retires without
#: ever dumping.
MAX_TRIES = 6


def random_layout(rng, workers):
    """A worker per program slot: the slots shuffled and dealt round
    robin, so every worker gets a group of the same size and most
    channels are cut."""
    slots = list(range(len(build_kernel().program.contexts)))
    rng.shuffle(slots)
    layout = [0] * len(slots)
    for index, slot in enumerate(slots):
        layout[slot] = index % workers
    return layout


def pins_for(program, layout):
    return {id(ctx): worker for ctx, worker in zip(program.contexts, layout)}


def ladder_round(rng, reference, shm_before, failures):
    """Kill a random worker after a random dump count; ladder-resume."""
    workers = rng.choice([2, 3])
    layout = random_layout(rng, workers)
    victim = rng.randrange(workers)
    after = rng.randint(2, 3)  # >= 2: round N-1 has stitched by then
    interval = rng.choice([0.0, 0.001, 0.01])
    label = (
        f"ladder(workers={workers}, victim={victim}, after={after}, "
        f"interval={interval})"
    )
    crashed = False
    for attempt in range(MAX_TRIES):
        with tempfile.TemporaryDirectory() as ckdir:
            kernel = build_kernel()
            plan = FaultPlan(seed=rng.randint(0, 1 << 30)).kill_worker(
                worker=victim, after_checkpoints=after
            )
            summary = kernel.run(
                executor="process",
                config=RunConfig(
                    workers=workers,
                    pins=pins_for(kernel.program, layout),
                    timeslice=7,
                    steal=False,
                    faults=plan,
                    fallback="sequential",
                    checkpoint_interval_s=interval,
                    checkpoint_path=ckdir,
                ),
            )
            if (spec.simulated(kernel.program, summary), kernel.result_dense().tobytes()) != reference:
                failures.append(f"{label}: result differs from clean run")
            check_hygiene(ckdir, shm_before, label, failures)
            if summary.attempts[0]["outcome"] != "crashed":
                continue  # run finished before the Nth dump; try again
            crashed = True
            resumed = summary.attempts[-1]["resumed_from"]
            # An every-round cadence guarantees a stitched checkpoint
            # exists by dump N >= 2; a wall-clock cadence may crash
            # before the first stitch (scratch retry, resumed None).
            if interval == 0.0 and (resumed is None or resumed["epoch"] < 1):
                failures.append(f"{label}: retry did not resume ({resumed})")
            print(
                f"  {label}: try {attempt + 1}, attempts="
                f"{[(a['executor'], a['outcome']) for a in summary.attempts]}"
                f" resumed_from={resumed}"
            )
            break
    if not crashed:
        failures.append(f"{label}: kill never fired in {MAX_TRIES} tries")


def elastic_round(rng, reference, shm_before, failures, ring_capacity=1 << 20):
    """Crash, then manually resume onto a different worker count."""
    workers = rng.choice([2, 3])
    layout = random_layout(rng, workers)
    resume_workers = rng.choice([n for n in (1, 2, 3, 4) if n != workers])
    replay = rng.random() < 0.5
    label = (
        f"elastic(workers={workers}, resume_workers={resume_workers}, "
        f"replay={replay}, ring={ring_capacity})"
    )
    for attempt in range(MAX_TRIES):
        with tempfile.TemporaryDirectory() as ckdir:
            kernel = build_kernel()
            plan = FaultPlan(seed=rng.randint(0, 1 << 30)).kill_worker(
                worker=1, after_checkpoints=2
            )
            try:
                # ``ring_capacity`` is constructor-only: an instance.
                kernel.run(
                    ProcessExecutor(
                        workers=workers,
                        pins=pins_for(kernel.program, layout),
                        timeslice=7,
                        steal=False,
                        faults=plan,
                        ring_capacity=ring_capacity,
                        checkpoint_interval_s=0.0,
                        checkpoint_path=ckdir,
                    )
                )
                continue  # run finished before the 2nd dump; try again
            except WorkerCrashError:
                pass
            fresh = build_kernel()
            found = ckpt.latest_checkpoint(ckdir, fresh.program)
            if found is None:
                failures.append(f"{label}: no valid checkpoint survived")
                return
            found.restore_into(fresh.program)
            pins = None
            if replay:
                # As a ladder resume does: the recorded placement,
                # folded onto the new worker count.
                pins = pins_from_placement(
                    fresh.program, found.placement, resume_workers
                )
            summary = fresh.run(
                executor="process",
                config=RunConfig(workers=resume_workers, timeslice=7, pins=pins),
            )
            if (spec.simulated(fresh.program, summary), fresh.result_dense().tobytes()) != reference:
                failures.append(
                    f"{label}: elastic resume differs from clean run"
                )
            print(
                f"  {label}: try {attempt + 1}, resumed epoch "
                f"{found.epoch} OK"
            )
            check_hygiene(ckdir, shm_before, label, failures)
            return
    failures.append(f"{label}: kill never fired in {MAX_TRIES} tries")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    shm_before = shm_segments()
    kernel = build_kernel()
    reference = spec.run(kernel.program), kernel.result_dense().tobytes()

    failures: list[str] = []
    for round_no in range(args.rounds):
        print(f"round {round_no + 1}/{args.rounds}")
        ladder_round(rng, reference, shm_before, failures)
        elastic_round(rng, reference, shm_before, failures)
    print("tiny rings")
    elastic_round(rng, reference, shm_before, failures, ring_capacity=96)

    if failures:
        print(f"\n{len(failures)} FAILURES")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nALL OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
