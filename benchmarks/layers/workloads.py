"""Seeded inputs, graph builders and the run workloads' cases.

Everything the program sees is generated here from ``--seed``: the same
seed gives the same inputs, and every channel and context carries an
explicit ``name=`` so a fresh subprocess builds the identical program
(default names come from process-global counters).

The ring and pipeline builders are copies of the ones in
``benchmarks/bench_core_ops.py`` (which later PRs may delete), reduced to
what the suite uses; no diamond is copied because no probe needs one.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys

import numpy as np

import repro
from repro.core import FunctionContext, FusedOps, IncrCycles, ProgramBuilder, RunConfig
from repro.core.checkpoint import clean_stale_temps, list_checkpoints
from repro.obs import Observability
from repro.sam import CsfTensor
from repro.sam import reference
from repro.sam.graphs import build_parallel_mha, build_spmspm

from catalog import EXECUTORS


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream) so adding a draw to one
    input never shifts another."""
    return np.random.default_rng([seed, *stream])


def sparse_matrix(rng: np.random.Generator, rows: int, cols: int, density: float):
    """``round(cols * density)`` nonzeros in every row, at seeded columns.

    Fixing the row population keeps the amount of simulated work nearly
    the same for every seed (fully random sparsity moved SpMSpM op counts
    by several percent between seeds, which hid the host's own spread).
    Values are in (0.1, 1.0] so no stored value is accidentally zero.
    """
    keep = max(1, round(cols * density))
    order = rng.random((rows, cols)).argsort(axis=1)
    mask = np.zeros((rows, cols), dtype=bool)
    np.put_along_axis(mask, order[:, :keep], True, axis=1)
    return rng.uniform(0.1, 1.0, size=(rows, cols)) * mask


def spmspm_inputs(seed: int, n: int, density: float, stream: int = 0):
    rng = rng_for(seed, 1, stream)
    return sparse_matrix(rng, n, n, density), sparse_matrix(rng, n, n, density)


def mha_inputs(seed: int, heads: int, seq_len: int, head_dim: int):
    """Mask rows keep the diagonal plus the same number of seeded
    off-diagonal positions (40 % of them), for the reason above."""
    rng = rng_for(seed, 2)
    keep = 1 + round(0.4 * (seq_len - 1))
    scores = rng.random((heads, seq_len, seq_len))
    scores[:, np.arange(seq_len), np.arange(seq_len)] = -1.0
    mask = np.zeros((heads, seq_len, seq_len))
    np.put_along_axis(mask, scores.argsort(axis=2)[:, :, :keep], 1.0, axis=2)
    shape = (heads, seq_len, head_dim)
    return (
        mask,
        rng.standard_normal(shape),
        rng.standard_normal(shape),
        rng.standard_normal(shape),
    )


def ring_inputs(seed: int, nodes: int):
    """The token's start value and what each node adds to it per lap."""
    rng = rng_for(seed, 3)
    return int(rng.integers(0, 1000)), [int(v) for v in rng.integers(1, 10, nodes)]


# ----------------------------------------------------------------------
# Builders for hand-written graphs (explicit names throughout).
# ----------------------------------------------------------------------


def build_ring(nodes: int, laps: int, start: int, increments: list[int]):
    """One token around ``nodes`` capacity-1 channels for ``laps`` laps.

    Returns ``(program, final)`` where ``final`` is a one-element list the
    head node fills with the token's last value.
    """
    builder = ProgramBuilder()
    links = [builder.bounded(1, name=f"hop{i}") for i in range(nodes)]
    final: list[int] = []

    def head_body(rcv=links[-1][1], snd=links[0][0], add=increments[0]):
        deq = rcv.dequeue()
        enq = snd.enqueue(None)
        step = FusedOps(enq, IncrCycles(1))
        yield snd.enqueue(start)
        value = start
        for _ in range(laps):
            value = yield deq
            enq.data = value + add
            yield step
        final.append(value)

    def node_body(rcv, snd, add):
        def body():
            deq = rcv.dequeue()
            enq = snd.enqueue(None)
            step = FusedOps(enq, IncrCycles(1), deq)
            value = yield deq
            while True:
                enq.data = value + add
                value = (yield step)[2]

        return body

    builder.add(
        FunctionContext(head_body, handles=[links[-1][1], links[0][0]], name="ring0")
    )
    for index in range(1, nodes):
        rcv, snd = links[index - 1][1], links[index][0]
        builder.add(
            FunctionContext(
                node_body(rcv, snd, increments[index]),
                handles=[rcv, snd],
                name=f"ring{index}",
            )
        )
    return builder.build(), final


def ring_expected(laps: int, start: int, increments: list[int]) -> int:
    """The head's last dequeued value: every full lap adds every
    increment; the final lap stops short of the head's own add."""
    if laps == 0:
        return start
    return start + laps * sum(increments) - increments[0]


def build_pipeline(stages: int, tokens: int, capacity: int = 8):
    """A chain of forwarding stages: the non-blocking-op fast path.

    Returns ``(program, total)``; the sink adds every token into
    ``total[0]`` (``sum(range(tokens))`` when nothing was lost).
    """
    builder = ProgramBuilder()
    links = [builder.bounded(capacity, name=f"link{i}") for i in range(stages + 1)]
    total = [0]

    def source(snd=links[0][0]):
        enq = snd.enqueue(None)
        step = FusedOps(enq, IncrCycles(1))
        for i in range(tokens):
            enq.data = i
            yield step

    def stage_body(rcv, snd):
        def body():
            deq = rcv.dequeue()
            enq = snd.enqueue(None)
            step = FusedOps(enq, IncrCycles(1), deq)
            value = yield deq
            while True:
                enq.data = value
                value = (yield step)[2]

        return body

    def sink(rcv=links[-1][1]):
        deq = rcv.dequeue()
        while True:
            total[0] += yield deq

    builder.add(FunctionContext(source, handles=[links[0][0]], name="src"))
    for index in range(stages):
        rcv, snd = links[index][1], links[index + 1][0]
        builder.add(
            FunctionContext(
                stage_body(rcv, snd), handles=[rcv, snd], name=f"stage{index}"
            )
        )
    builder.add(FunctionContext(sink, handles=[links[-1][1]], name="sink"))
    return builder.build(), total


def build_idle_contexts(count: int):
    """``count`` unconnected contexts of one op each: a run of this is all
    fixed cost (spawn, schedule once, join)."""
    builder = ProgramBuilder()

    def body():
        yield IncrCycles(1)

    for index in range(count):
        builder.add(FunctionContext(body, name=f"idle{index}"))
    return builder.build()


def program_of(built):
    """The ``Program`` inside whatever a builder here returned: a
    ``(program, result holder)`` pair, a kernel graph, or the program."""
    return built[0] if isinstance(built, tuple) else getattr(built, "program", built)


def spmspm_kernel(b, ct, depth: int):
    return build_spmspm(
        CsfTensor.from_dense(b, "cc"), CsfTensor.from_dense(ct, "cc"), depth=depth
    )


# ----------------------------------------------------------------------
# Run workloads: one case = seeded inputs + build + run + check.
# ----------------------------------------------------------------------


class RunCase:
    """A workload whose operation is one ``Program.run`` call."""

    def __init__(self, name: str, params: dict, seed: int, scratch: str):
        self.name = name
        self.params = params
        self.seed = seed
        self.scratch = scratch
        self.executor = EXECUTORS[name]
        self._runs = 0
        self._obs = None
        self._ckpt_dir = None

    # -- set-up --------------------------------------------------------

    def prepare(self) -> None:
        """Generate the inputs and the dense reference result."""
        p = self.params
        if "heads" in p:
            self.inputs = mha_inputs(self.seed, p["heads"], p["seq_len"], p["head_dim"])
            mask, q, k, v = self.inputs
            self.expected = reference.sparse_mha(q, k, v, mask)
        elif "laps" in p:
            self.inputs = ring_inputs(self.seed, p["nodes"])
            self.expected = ring_expected(p["laps"], *self.inputs)
        else:
            self.inputs = spmspm_inputs(self.seed, p["n"], p["density"])
            b, ct = self.inputs
            self.expected = reference.spmspm(b, ct.T)

    def build(self):
        p = self.params
        if "heads" in p:
            return build_parallel_mha(*self.inputs, parallelism=p["parallelism"])
        if "laps" in p:
            return build_ring(p["nodes"], p["laps"], *self.inputs)
        return spmspm_kernel(*self.inputs, depth=p["depth"])

    # -- one operation -------------------------------------------------

    def run(self, built):
        """One timed operation: ``Program.run`` as the workload hosts it."""
        config = None
        self._obs = None
        self._ckpt_dir = None
        if self.name == "proc_mha":
            config = RunConfig(workers=2)
        elif self.name == "obs_spmspm":
            self._obs = Observability(trace=True, metrics=True)
        elif self.name == "ckpt_spmspm":
            self._runs += 1
            self._ckpt_dir = os.path.join(self.scratch, f"ckpt-{self._runs}")
            config = RunConfig(
                checkpoint_interval_s=self.params["interval_s"],
                checkpoint_path=self._ckpt_dir,
            )
        return program_of(built).run(self.executor, config=config, obs=self._obs)

    def run_reference(self, built):
        """The untimed reference: sequential, generic interpreter, no obs,
        no checkpointing.  Simulated results must not depend on any of
        those (the Timetide invariant)."""
        return program_of(built).run("sequential", config=RunConfig(fast_path=False))

    # -- checks --------------------------------------------------------

    def check(self, built, summary, expect: dict | None) -> list[str]:
        """Failures of one finished run (empty when it is correct)."""
        failures = []
        if expect is not None:
            got = {"cycles": summary.elapsed_cycles, "ops": summary.ops_executed}
            if got != expect:
                failures.append(f"simulated counts {got} != reference {expect}")
        if isinstance(built, tuple):
            final = built[1]
            if final != [self.expected]:
                failures.append(f"ring token {final} != {self.expected}")
        elif not np.allclose(built.result_dense(), self.expected):
            failures.append("result tensor differs from the dense numpy reference")
        if self._obs is not None and not summary.profile:
            failures.append("traced run attached no profile")
        if self._ckpt_dir is not None:
            failures.extend(self._check_checkpoints(self._ckpt_dir))
        return failures

    def _check_checkpoints(self, directory: str) -> list[str]:
        failures = []
        if not list_checkpoints(directory):
            failures.append("checkpointing run wrote no epoch")
        if clean_stale_temps(directory):
            failures.append("checkpoint temp file left behind")
        shutil.rmtree(directory, ignore_errors=True)
        if os.path.exists(directory):
            failures.append(f"checkpoint directory {directory} not removed")
        return failures


# ----------------------------------------------------------------------
# serve_mixed: the seeded request schedule.
# ----------------------------------------------------------------------


class Request:
    """One scheduled request: the wire spec plus what checks it."""

    __slots__ = ("index", "spec", "tenant", "expected")

    def __init__(self, index, spec, tenant, expected):
        self.index = index
        self.spec = spec
        self.tenant = tenant
        self.expected = expected


#: One block of the schedule: (kind, graph, repeats a known configuration).
#: Every 8 consecutive requests are these in a seeded order, so any window
#: sees the same mix: 25 % medium, half plan-cache hits.
SERVE_BLOCK = (
    ("medium", "spmspm", True),
    ("medium", "spmspm", False),
    ("small", "spmspm", True),
    ("small", "spmspm", False),
    ("small", "spmspm", True),
    ("small", "mmadd", False),
    ("small", "mmadd", True),
    ("small", "mmadd", False),
)


def serve_request(seed: int, index: int, params: dict, stream: int = 4) -> Request:
    """Request ``index`` of the schedule for ``seed``.

    Medium SpMSpM requests carry a large payload and are run-dominated
    (they set p95); small SpMSpM or MMAdd ones are dominated by HTTP, JSON
    and admission (they set p50).  Requests that repeat use ``depth`` 16
    (plan-cache hits); the others carry a ``depth`` no other request has,
    as a tuner sweep would, so their shape key is new (misses).  Every
    payload is distinct, so nothing coalesces.
    """
    from repro.sam.spec import ProgramSpec

    order = rng_for(seed, stream, 0, index // len(SERVE_BLOCK)).permutation(
        len(SERVE_BLOCK)
    )
    kind, graph, repeats = SERVE_BLOCK[order[index % len(SERVE_BLOCK)]]
    rng = rng_for(seed, stream, 1, index)
    n = params["medium_n"] if kind == "medium" else params["small_n"]
    left = sparse_matrix(rng, n, n, 0.3)
    right = sparse_matrix(rng, n, n, 0.3)
    if graph == "mmadd":
        names, expected = ("b", "c"), reference.mmadd(left, right)
    else:
        names, expected = ("b", "c_transposed"), reference.spmspm(left, right.T)
    spec = ProgramSpec.from_graph_inputs(
        graph,
        {
            names[0]: CsfTensor.from_dense(left, "cc"),
            names[1]: CsfTensor.from_dense(right, "cc"),
        },
        params={"depth": 16 if repeats else 17 + index},
    )
    return Request(index, spec, f"tenant{index % params['tenants']}", expected)


#: The directory ``repro`` was imported from, handed to the server subprocess.
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def start_server() -> tuple[subprocess.Popen, tuple[str, int]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--max-concurrent", "2", "--queue-limit", "8"],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        # A benchmark started in the background inherits SIGINT ignored, and
        # Python then never raises KeyboardInterrupt: the server would sit
        # through ``stop_server``'s SIGINT until killed.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    line = server.stdout.readline()
    if "listening on" not in line:
        server.kill()
        server.wait()
        raise RuntimeError(f"server did not start: {line!r}")
    host, port = line.strip().rsplit("/", 1)[1].rsplit(":", 1)
    return server, (host, int(port))


def stop_server(server: subprocess.Popen) -> int:
    """SIGINT is the CLI's clean shutdown path; exit code 0 is required."""
    server.send_signal(signal.SIGINT)
    try:
        code = server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        code = server.wait()
    server.stdout.close()
    return code
