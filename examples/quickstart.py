"""Quickstart: build and run your first DAM program.

A three-stage pipeline — a source, the paper's merge unit (Listing 1),
and a collecting sink — demonstrating the core CSPT ideas:

* contexts are generators yielding channel operations,
* timing is injected with IncrCycles (initiation intervals) and channel
  latency (pipeline depth),
* the same program runs on the deterministic cooperative executor, on
  the one-thread-per-context executor, and on whatever runtime
  ``executor="auto"`` picks for this host — with identical simulated
  results.

Run:  python examples/quickstart.py
"""

from repro import Context, IncrCycles, ProgramBuilder
from repro.contexts import Collector, IterableSource, Merge


class Scaler(Context):
    """A simple user-defined context: multiply every element by 10."""

    def __init__(self, inp, out, ii=1):
        super().__init__(name="scaler")
        self.inp = inp
        self.out = out
        self.ii = ii
        self.register(inp, out)  # declare channel ownership (static wiring)

    def run(self):
        while True:
            value = yield self.inp.dequeue()  # blocks while empty
            yield IncrCycles(self.ii)         # initiation interval
            yield self.out.enqueue(10 * value)  # blocks while full


def build():
    builder = ProgramBuilder()
    # bounded(capacity, latency): capacity simulates backpressure,
    # latency is the sender->receiver visibility delay in cycles.
    a_snd, a_rcv = builder.bounded(4, latency=1, name="streamA")
    b_snd, b_rcv = builder.bounded(4, latency=1, name="streamB")
    merged_snd, merged_rcv = builder.bounded(4, latency=6, name="merged")
    out_snd, out_rcv = builder.bounded(4, latency=1, name="scaled")

    builder.add(IterableSource(a_snd, [1, 4, 5, 9], ii=1, name="srcA"))
    builder.add(IterableSource(b_snd, [2, 3, 8], ii=1, name="srcB"))
    # The paper's Listing 1: a merge unit with a 2-cycle II; its 6-cycle
    # pipeline latency lives on the 'merged' channel.
    builder.add(Merge(a_rcv, b_rcv, merged_snd, ii=2))
    builder.add(Scaler(merged_rcv, out_snd))
    sink = builder.add(Collector(out_rcv, name="sink"))
    return builder.build(), sink


def main():
    program, sink = build()
    summary = program.run(executor="sequential")
    print("merged and scaled:", sink.values)
    print(f"simulated cycles:  {summary.elapsed_cycles}")
    print(f"real seconds:      {summary.real_seconds:.4f}")

    # Determinism: the threaded executor (one OS thread per context,
    # SVA/SVP-style synchronization) produces identical simulated results.
    # Tunables travel in a typed RunConfig; each executor picks out the
    # fields its constructor understands, so the same config is portable
    # across runtimes.
    from repro.core import RunConfig

    program2, sink2 = build()
    summary2 = program2.run(executor="threaded", config=RunConfig())
    assert sink2.values == sink.values
    assert summary2.elapsed_cycles == summary.elapsed_cycles
    print("threaded executor agrees cycle-exactly:", summary2.elapsed_cycles)

    # "auto" asks the registry for the best of the three runtimes this
    # host supports (process > threaded > sequential): a multi-core host
    # with fork gets the work-stealing process executor, a no-GIL build
    # without it gets threads, a one-core GIL box stays sequential.
    program3, sink3 = build()
    summary3 = program3.run(executor="auto", config=RunConfig(workers=2))
    assert sink3.values == sink.values
    assert summary3.elapsed_cycles == summary.elapsed_cycles
    print(f"auto picked {summary3.executor!r}; cycle-exact again:",
          summary3.elapsed_cycles)


if __name__ == "__main__":
    main()
