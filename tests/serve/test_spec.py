"""ProgramSpec: the declarative, wire-serializable run request.

The load-bearing property: a spec that round-trips through JSON and is
then built and run produces **bit-identical** simulated results to a
graph constructed directly in process — for every registered SAM kernel
and every executor.  That equivalence is what lets ``repro.serve`` claim
the service boundary adds no semantics.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro import spec as reference
from repro.core import RunConfig
from repro.sam import CsfTensor
from repro.sam.spec import (
    ProgramSpec,
    SpecError,
    build_spec,
    decode_tensor,
    encode_tensor,
    register_graph,
    registered_graphs,
)
from repro.sam.primitives import TimingParams
from repro.sam.tensor import random_dense
from repro.spec import simulated

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="fork start method unavailable"
)


# ----------------------------------------------------------------------
# One (tensors, params, direct-builder) recipe per registered graph.
# ----------------------------------------------------------------------


def _spmspm_inputs():
    b = CsfTensor.from_dense(random_dense(6, 6, density=0.3, seed=23), "cc")
    ct = CsfTensor.from_dense(random_dense(6, 6, density=0.3, seed=24), "cc")
    return {"b": b, "c_transposed": ct}, {"depth": 4}


def _gustavson_inputs():
    b = CsfTensor.from_dense(random_dense(6, 6, density=0.3, seed=25), "cc")
    c = CsfTensor.from_dense(random_dense(6, 6, density=0.3, seed=26), "cc")
    return {"b": b, "c": c}, {"depth": 4}


def _mmadd_inputs():
    b = CsfTensor.from_dense(random_dense(6, 6, density=0.5, seed=21), "cc")
    c = CsfTensor.from_dense(random_dense(6, 6, density=0.5, seed=22), "cc")
    return {"b": b, "c": c}, {
        "depth": 3,
        "timing": TimingParams(ii=2, stop_bubble=1),
    }


def _sddmm_inputs():
    rng = np.random.default_rng(31)
    s = CsfTensor.from_dense(random_dense(6, 6, density=0.4, seed=30), "cc")
    return {
        "s": s,
        "a_dense": rng.standard_normal((6, 4)),
        "b_dense": rng.standard_normal((6, 4)),
    }, {"depth": 4, "timing": TimingParams(ii=2)}


def _mha_inputs():
    rng = np.random.default_rng(3)
    H, N, d = 2, 5, 3
    mask = (rng.random((H, N, N)) < 0.5).astype(float)
    for h in range(H):
        np.fill_diagonal(mask[h], 1.0)
    return {
        "mask": CsfTensor.from_dense(mask, "dcc"),
        "q": rng.standard_normal((H, N, d)),
        "k": rng.standard_normal((H, N, d)),
        "v": rng.standard_normal((H, N, d)),
    }, {"depth": 6, "softmax_depth": 32}


_RECIPES = {
    "spmspm": _spmspm_inputs,
    "spmspm_gustavson": _gustavson_inputs,
    "mmadd": _mmadd_inputs,
    "sddmm": _sddmm_inputs,
    "mha": _mha_inputs,
}


_EXECUTOR_CONFIGS = [
    ("sequential", RunConfig()),
    ("threaded", RunConfig()),
    pytest.param("process", RunConfig(workers=2), marks=needs_fork),
]


class TestSpecEquivalence:
    """spec → JSON → spec → build → run, on every executor, must leave
    the record and output the spec leaves for a direct in-process
    construction."""

    @pytest.mark.parametrize("graph", sorted(_RECIPES))
    @pytest.mark.parametrize("executor,config", _EXECUTOR_CONFIGS)
    def test_round_tripped_spec_matches_direct_build(
        self, graph, executor, config
    ):
        tensors, params = _RECIPES[graph]()

        # Direct build: hand the live tensors to the builder; the spec
        # runs it.
        direct_built = ProgramSpec.from_graph_inputs(
            graph, tensors, params
        ).build()
        expected = (
            reference.run(direct_built.program), direct_built.result_dense().tobytes()
        )

        # Wire path: encode, serialize, parse, decode, build, run.
        spec = ProgramSpec.from_graph_inputs(
            graph, tensors, params, config=config, executor=executor
        )
        rebuilt = ProgramSpec.from_json(spec.to_json())
        built, summary = rebuilt.run()
        got = simulated(built.program, summary), built.result_dense().tobytes()
        assert got == expected, (
            f"{graph} via spec on {executor} diverged from direct build"
        )


class TestTensorCodec:
    def test_csf_round_trip(self):
        tensor = CsfTensor.from_dense(
            random_dense(5, 7, density=0.4, seed=9), "dc"
        )
        wire = encode_tensor(tensor)
        json.dumps(wire)
        back = decode_tensor(wire)
        assert isinstance(back, CsfTensor)
        assert back.shape == tensor.shape
        assert np.array_equal(back.to_dense(), tensor.to_dense())

    def test_dense_round_trip(self):
        array = np.random.default_rng(1).standard_normal((3, 4))
        back = decode_tensor(encode_tensor(array))
        assert isinstance(back, np.ndarray)
        # JSON floats round-trip exactly (shortest-repr), so bit-equal.
        assert back.tobytes() == array.tobytes()


class TestSpecStrictness:
    def test_unknown_graph_lists_registered_names(self):
        with pytest.raises(SpecError, match="spmspm"):
            ProgramSpec(graph="nope").build()

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(SpecError, match="bogus"):
            ProgramSpec.from_dict({"graph": "spmspm", "bogus": 1})

    def test_bad_config_fails_at_parse_time(self):
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            ProgramSpec.from_dict(
                {"graph": "spmspm", "config": {"wrokers": 2}}
            )

    def test_missing_and_stray_tensors(self):
        tensors, params = _RECIPES["spmspm"]()
        spec = ProgramSpec.from_graph_inputs("spmspm", {}, params)
        with pytest.raises(SpecError, match="missing tensor"):
            spec.build()
        tensors["oops"] = tensors["b"]
        spec = ProgramSpec.from_graph_inputs("spmspm", tensors, params)
        with pytest.raises(SpecError, match="unexpected tensor"):
            spec.build()

    def test_builtins_are_registered(self):
        assert {"spmspm", "spmspm_gustavson", "mmadd", "sddmm", "mha"} <= set(
            registered_graphs()
        )


class TestSpecIdentity:
    def test_shape_key_ignores_values_but_not_structure(self):
        tensors, params = _RECIPES["spmspm"]()
        a = ProgramSpec.from_graph_inputs("spmspm", tensors, params)

        # Same sparsity pattern, different values → same shape.
        scaled = {
            name: (
                CsfTensor(t.levels, np.asarray(t.vals) * 2.0, t.shape)
                if isinstance(t, CsfTensor)
                else t * 2.0
            )
            for name, t in tensors.items()
        }
        b = ProgramSpec.from_graph_inputs("spmspm", scaled, params)
        assert a.shape_key() == b.shape_key()
        assert a.payload_key() != b.payload_key()

        # A param change is a different shape.
        c = ProgramSpec.from_graph_inputs("spmspm", tensors, {"depth": 5})
        assert a.shape_key() != c.shape_key()

    def test_payload_key_is_deterministic(self):
        tensors, params = _RECIPES["mmadd"]()
        a = ProgramSpec.from_graph_inputs("mmadd", tensors, params)
        b = ProgramSpec.from_json(a.to_json())
        assert a.payload_key() == b.payload_key()


class TestGraphRegistry:
    def test_registered_graph_builds_through_spec(self):
        name = "test_only_passthrough"

        @register_graph(name, tensors=("b", "c_transposed"))
        def build(b, c_transposed, depth=4):
            from repro.sam.graphs import build_spmspm

            return build_spmspm(b, c_transposed, depth=depth)

        try:
            tensors, params = _RECIPES["spmspm"]()
            direct = ProgramSpec.from_graph_inputs(
                "spmspm", tensors, params
            ).build()
            expected = reference.run(direct.program), direct.result_dense().tobytes()

            spec = ProgramSpec.from_graph_inputs(name, tensors, params)
            built = build_spec(spec.to_json())
            summary = built.program.run()
            assert (
                simulated(built.program, summary), built.result_dense().tobytes()
            ) == expected
        finally:
            # Keep the registry clean for other tests.
            from repro.sam import spec as spec_module

            spec_module._GRAPH_REGISTRY.pop(name, None)
