"""Property-based cross-executor determinism tests.

The paper claims DAM is "an exact, deterministic system, producing the same
results on each execution".  We generate random dataflow pipelines (random
channel geometries, initiation intervals, and payload streams) and assert
that the sequential executor — under multiple scheduling policies — and the
threaded executor leave the spec's record (:func:`repro.spec.simulated`)
and deliver its values.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FairPolicy, ProgramBuilder, RunConfig
from repro import spec as reference
from repro.contexts import Collector, IterableSource, UnaryFunction
from repro.spec import simulated

channel_geometry = st.tuples(
    st.one_of(st.none(), st.integers(min_value=1, max_value=5)),  # capacity
    st.integers(min_value=0, max_value=4),  # latency
    st.integers(min_value=0, max_value=4),  # resp_latency
)


def build_pipeline(payload, stage_geometries, stage_iis, source_ii):
    """Linear pipeline with one UnaryFunction per stage geometry."""
    builder = ProgramBuilder()
    snd, rcv = builder.channel(*stage_geometries[0])
    builder.add(IterableSource(snd, payload, ii=source_ii, name="src"))
    for index, geometry in enumerate(stage_geometries[1:]):
        nxt_snd, nxt_rcv = builder.channel(*geometry)
        builder.add(
            UnaryFunction(
                rcv,
                nxt_snd,
                lambda x, k=index: x + k,
                ii=stage_iis[index],
                name=f"stage{index}",
            )
        )
        rcv = nxt_rcv
    collector = builder.add(Collector(rcv, name="sink"))
    return builder.build(), collector


@st.composite
def pipeline_spec(draw):
    payload = draw(st.lists(st.integers(-100, 100), min_size=0, max_size=25))
    n_stages = draw(st.integers(min_value=1, max_value=4))
    geometries = draw(
        st.lists(channel_geometry, min_size=n_stages, max_size=n_stages)
    )
    iis = draw(
        st.lists(
            st.integers(min_value=0, max_value=5),
            min_size=max(n_stages - 1, 1),
            max_size=max(n_stages - 1, 1),
        )
    )
    source_ii = draw(st.integers(min_value=0, max_value=4))
    return payload, geometries, iis, source_ii


@settings(max_examples=40, deadline=None)
@given(pipeline_spec())
def test_every_host_matches_the_spec(spec):
    program, collector = build_pipeline(*spec)
    expected = reference.run(program), collector.values
    hosts = [
        ("sequential", RunConfig(policy=policy))
        for policy in ["fifo", FairPolicy(timeslice=2), FairPolicy(timeslice=7, boost=False)]
    ]
    hosts.append(("threaded", RunConfig(superblocks="off")))
    for executor, config in hosts:
        program, collector = build_pipeline(*spec)
        summary = program.run(executor, config=config)
        assert (simulated(program, summary), collector.values) == expected, executor


@settings(max_examples=25, deadline=None)
@given(
    payload=st.lists(st.integers(-50, 50), max_size=30),
    capacity=st.one_of(st.none(), st.integers(1, 3)),
    latency=st.integers(0, 3),
)
def test_pipeline_preserves_payload(payload, capacity, latency):
    """Property: channels never drop, duplicate, or reorder data."""
    builder = ProgramBuilder()
    snd, rcv = builder.channel(capacity, latency)
    builder.add(IterableSource(snd, payload))
    collector = builder.add(Collector(rcv))
    builder.build().run()
    assert collector.values == payload
