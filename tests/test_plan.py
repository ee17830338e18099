"""The round-plan IR: builder/validation, dispatch barriers per plan,
eager-vs-plan bit-identity on every backend, and trace capture → replay
round-trips."""

import importlib.util
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.bench.workloads import Workload
from repro.core.grow import contract_batch, contract_plan
from repro.mpc import (
    LocalBackend,
    MPCEngine,
    PlanBuilder,
    PlanError,
    PlanTrace,
    ProcessBackend,
    ShardedBackend,
    register_transform,
    replay,
)
from repro.mpc.plan import TRANSFORMS, content_digest, load_trace

SEED = 31
WORKERS = 2


def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessBackend(
        shard_memory=64, workers=WORKERS, min_parallel_items=0
    )
    yield backend
    backend.close()


def contract_inputs(n=40, m=60):
    g = rng()
    labels = np.sort(g.integers(0, 8, n)).astype(np.int64)
    batch = g.integers(0, n, (m, 2)).astype(np.int64)
    return labels, batch


def numpy_contraction(labels, batch):
    """Definition 2 in plain numpy, the reference for the contract plan:
    cross-component label pairs deduplicated by ``np.unique``, each with
    the index of its first batch edge."""
    cu, cv = labels[batch[:, 0]], labels[batch[:, 1]]
    idx = np.flatnonzero(cu != cv)
    a = np.minimum(cu[idx], cv[idx])
    b = np.maximum(cu[idx], cv[idx])
    _, first = np.unique(a * (int(labels.max()) + 1) + b, return_index=True)
    return np.stack([a[first], b[first]], axis=1), idx[first]


# ---------------------------------------------------------------------------
# Builder + validation
# ---------------------------------------------------------------------------


class TestBuilderAndValidation:
    def test_builder_records_steps_and_outputs(self):
        labels, batch = contract_inputs()
        plan = contract_plan(labels, batch)
        assert plan.name == "contract"
        assert plan.backend_ops() == ["search", "reduce_by_key"]
        assert len(plan.outputs) == 2
        assert plan.validate() is plan

    def test_unknown_transform_rejected(self):
        builder = PlanBuilder("bad")
        with pytest.raises(PlanError):
            builder.transform("zz_never_registered", np.arange(3))

    def test_dangling_output_rejected(self):
        from repro.mpc.plan import RoundPlan, SlotRef

        builder = PlanBuilder("bad")
        builder.search(np.arange(4), np.arange(4))
        with pytest.raises(PlanError):
            builder.build(SlotRef("nowhere"))
        # The dataclass-level validator catches it too.
        with pytest.raises(PlanError):
            RoundPlan(
                name="bad", steps=(), bindings={}, outputs=("ghost",)
            ).validate()

    def test_undefined_input_slot_rejected(self):
        from repro.mpc.plan import OpStep, RoundPlan

        plan = RoundPlan(
            name="bad",
            steps=(OpStep("sort", ("missing",), ("out",)),),
            bindings={},
            outputs=("out",),
        )
        with pytest.raises(PlanError):
            plan.validate()

    def test_duplicate_transform_registration_rejected(self):
        with pytest.raises(ValueError):
            register_transform("canonical_labels")(lambda x: x)
        assert "canonical_labels" in TRANSFORMS

    def test_user_transform_with_declared_arity(self):
        from repro.mpc.plan import _TRANSFORM_ARITY, transform_arity

        name = "zz_test_split_pair"

        @register_transform(name, n_out=2)
        def _split(pairs):
            pairs = np.asarray(pairs).reshape(-1, 2)
            return pairs[:, 0].copy(), pairs[:, 1].copy()

        try:
            assert transform_arity(name) == 2
            builder = PlanBuilder("split")
            left, right = builder.transform(
                name, np.array([1, 2, 3, 4], dtype=np.int64)
            )
            a, b = LocalBackend().run_plan(builder.build([left, right]))
            assert a.tolist() == [1, 3] and b.tolist() == [2, 4]
        finally:
            TRANSFORMS.pop(name, None)
            _TRANSFORM_ARITY.pop(name, None)

    def test_transform_arity_mismatch_rejected_at_validate(self):
        from repro.mpc.plan import OpStep, RoundPlan

        plan = RoundPlan(
            name="bad",
            steps=(OpStep(
                "transform", ("in1",), ("a", "b"),
                {"name": "canonical_labels"},
            ),),
            bindings={"in1": np.arange(3)},
            outputs=("a",),
        )
        with pytest.raises(PlanError, match="returns 1"):
            plan.validate()

    def test_invalid_n_out_rejected(self):
        with pytest.raises(ValueError):
            register_transform("zz_bad_arity", n_out=0)

    def test_params_stay_json_scalars(self):
        labels, batch = contract_inputs()
        plan = contract_plan(labels, batch)
        for step in plan.steps:
            json.dumps(step.params)  # must not raise


# ---------------------------------------------------------------------------
# Dispatch barriers per plan
# ---------------------------------------------------------------------------


class TestPlanBarriers:
    def test_process_contract_plan_costs_one_barrier(self, process_backend):
        labels, batch = contract_inputs(n=80, m=600)
        plan = contract_plan(labels, batch)

        process_backend.reset()
        pooled = process_backend.run_plan(plan)
        # The search runs in the parent: the
        # search→reduce pair costs the reduce's barrier only.
        assert process_backend.dispatch_barriers == 1
        assert process_backend.plan_barriers == {"contract": 1}

        serial = ShardedBackend(shard_memory=64)
        reference = serial.run_plan(plan)
        assert (process_backend.exchanges, process_backend.bytes_exchanged) == (
            serial.exchanges, serial.bytes_exchanged
        )
        for a, b in zip(pooled, reference):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Eager vs recorded-then-run_plan bit-identity
# ---------------------------------------------------------------------------


def counters_of(backend):
    stats = backend.stats()
    return (stats.exchanges, stats.bytes_exchanged, stats.shard_count,
            stats.peak_shard_load, stats.op_counts)


#: One legal random op invocation: (op name, positional arrays, params).
def _ops_strategy():
    small = st.integers(min_value=0, max_value=50)
    arr = st.lists(small, min_size=1, max_size=48).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    )

    def to_search(pair):
        table, raw = pair
        return ("search", (table, raw % table.shape[0]), {})

    def to_reduce(triple):
        keys, values, op = triple
        m = min(keys.shape[0], values.shape[0])
        return ("reduce_by_key", (keys[:m], values[:m]), {"op": op})

    def to_min_label(triple):
        labels, send, recv = triple
        m = min(send.shape[0], recv.shape[0])
        return (
            "min_label_exchange",
            (labels, send[:m] % labels.shape[0], recv[:m] % labels.shape[0]),
            {},
        )

    sort_step = st.tuples(arr, st.booleans()).map(
        lambda pair: ("sort", (pair[0],) if pair[1] else
                      (pair[0], pair[0][::-1].copy()), {})
    )
    return st.lists(
        st.one_of(
            sort_step,
            st.tuples(arr, arr).map(to_search),
            st.tuples(arr, arr, st.sampled_from(["min", "max", "sum"])).map(
                to_reduce
            ),
            st.tuples(arr, arr, arr).map(to_min_label),
        ),
        min_size=1,
        max_size=5,
    )


class TestEagerVsPlanProperty:
    """Any legal op sequence: eager public-op calls vs recording the same
    sequence through a PlanBuilder and executing via run_plan must be
    bit-identical — outputs *and* model counters — on all three backends."""

    @staticmethod
    def _eager(backend, ops):
        outputs = []
        for name, args, params in ops:
            result = getattr(backend, name)(*args, **params)
            outputs.extend(result if isinstance(result, tuple) else (result,))
        return outputs

    @staticmethod
    def _planned(backend, ops):
        builder = PlanBuilder("random-sequence")
        refs = []
        for name, args, params in ops:
            out = getattr(builder, name)(*args, **params)
            refs.extend(out if isinstance(out, tuple) else (out,))
        return list(backend.run_plan(builder.build(refs)))

    def _check(self, backend, ops):
        backend.reset()
        eager = self._eager(backend, ops)
        eager_counters = counters_of(backend)
        backend.reset()
        planned = self._planned(backend, ops)
        assert counters_of(backend) == eager_counters
        assert len(planned) == len(eager)
        for a, b in zip(eager, planned):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    @settings(max_examples=25, deadline=None)
    @given(ops=_ops_strategy())
    def test_local_and_sharded(self, ops):
        self._check(LocalBackend(), ops)
        self._check(ShardedBackend(shard_memory=16), ops)

    @settings(max_examples=10, deadline=None)
    @given(ops=_ops_strategy())
    def test_process(self, process_backend, ops):
        self._check(process_backend, ops)

    def test_contract_round_matches_eager_calls(self):
        labels, batch = contract_inputs(n=64, m=300)
        reference = numpy_contraction(labels, batch)
        for backend in (None, LocalBackend(), ShardedBackend(shard_memory=32)):
            engine = None if backend is None else MPCEngine(10**6, backend=backend)
            edges, rep = contract_batch(labels, batch, engine=engine)
            assert np.array_equal(edges, reference[0])
            assert np.array_equal(rep, reference[1])
            if backend is not None:
                assert backend.stats().plans == 1


# ---------------------------------------------------------------------------
# Trace capture + replay
# ---------------------------------------------------------------------------


CONFIG = repro.PipelineConfig(
    delta=0.5, expander_degree=4, max_walk_length=32, oversample=4,
    max_phases=2,
)


def capture_pipeline(tmp_path, backend, *, n=256):
    graph = Workload("permutation_regular", n, {"degree": 6}).build(SEED)
    path = tmp_path / "trace.json"
    with MPCEngine.for_delta(
        graph.n + graph.m, CONFIG.delta, backend=backend, trace=str(path)
    ) as engine:
        result = repro.mpc_connected_components(
            graph, 0.1, config=CONFIG, rng=SEED, engine=engine
        )
        captured = engine.backend.stats()
        trace = engine.trace
    return path, result, captured, trace


def trace_ops(path) -> set:
    doc = load_trace(path)
    return {
        s["op"] for entry in doc["plans"] for s in entry["steps"]
    }


class TestTraceRoundTrip:
    def test_capture_writes_on_close(self, tmp_path):
        path, result, captured, trace = capture_pipeline(
            tmp_path, ShardedBackend()
        )
        assert path.exists()
        assert len(trace) > 0
        doc = load_trace(path)
        assert doc["backend"] == "sharded"
        assert doc["machine_memory"] == trace.machine_memory
        assert len(doc["plans"]) == captured.plans

    def test_replay_reproduces_labels_and_counters(self, tmp_path):
        path, result, captured, _ = capture_pipeline(
            tmp_path, ShardedBackend()
        )
        for name in ("sharded", "local"):
            replayed = replay(path, backend=name)
            assert replayed.ok
            assert replayed.backend_name == name
            if name == "sharded":
                # Same machine memory => the gated communication counters
                # reproduce exactly.  (shard_count does not: it is peaked
                # by *engine charges* over control-plane data volumes the
                # trace deliberately excludes.)
                assert replayed.stats.exchanges == captured.exchanges
                assert (replayed.stats.bytes_exchanged
                        == captured.bytes_exchanged)
                assert replayed.stats.op_counts == captured.op_counts
        # The broadcast levels' new-label outputs are part of the stream,
        # so a faithful replay reproduces the pipeline's labels exactly:
        # every recorded output matched bit for bit (replayed.ok above).

    def test_replay_on_process_backend(self, tmp_path, process_backend):
        path, result, captured, _ = capture_pipeline(
            tmp_path, ShardedBackend()
        )
        # By name: the fresh backend adopts the trace's machine memory,
        # so its fleet (and therefore the gated counters) match the
        # capture exactly.
        replayed = replay(path, backend="process")
        assert replayed.ok
        assert replayed.stats.exchanges == captured.exchanges
        assert replayed.stats.bytes_exchanged == captured.bytes_exchanged
        # An instance with its own shard memory still replays the outputs
        # bit-identically — counters then describe *its* fleet, not the
        # captured one.
        process_backend.reset()
        also = replay(path, backend=process_backend)
        assert also.ok

    def test_replay_detects_divergence(self, tmp_path):
        path, *_ = capture_pipeline(tmp_path, ShardedBackend())
        doc = json.loads(path.read_text())
        # Corrupt one non-empty recorded result: replay must notice.
        import base64

        arr = None
        for entry in reversed(doc["plans"]):
            for digest in entry["results"]:
                if 0 not in doc["arrays"][digest]["shape"]:
                    arr = doc["arrays"][digest]
                    break
            if arr is not None:
                break
        raw = np.frombuffer(
            base64.b64decode(arr["data"]), dtype=np.dtype(arr["dtype"])
        ).copy()
        raw.ravel()[0] += 1
        arr["data"] = base64.b64encode(raw.tobytes()).decode("ascii")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="diverged"):
            replay(path, backend="sharded")
        lenient = replay(path, backend="sharded", verify=False)
        assert not lenient.ok
        assert len(lenient.mismatches) >= 1

    def test_trace_schema_version_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999, "arrays": {}, "plans": []}))
        with pytest.raises(ValueError, match="schema"):
            load_trace(path)

    def test_in_memory_trace_needs_path_to_save(self):
        trace = PlanTrace()
        with pytest.raises(ValueError):
            trace.save()

    def test_unwritable_trace_still_closes_backend(self, tmp_path):
        # close() must release the backend even when the trace save
        # raises (unwritable path): OS resources may not leak behind a
        # reporting failure.
        closed = []

        class Probe(ShardedBackend):
            def close(self):
                closed.append(True)
                super().close()

        target = tmp_path / "dir-not-file"
        target.mkdir()
        engine = MPCEngine(64, backend=Probe(), trace=str(target))
        engine.run_plan(contract_plan(*contract_inputs()))
        with pytest.raises(OSError):
            engine.close()
        assert closed == [True]

    def test_local_capture_replays_on_sharded(self, tmp_path):
        # The accounting-only capture carries enough to certify an
        # enforced backend: the replay seam is backend-agnostic.
        path, result, _, _ = capture_pipeline(tmp_path, LocalBackend())
        replayed = replay(path, backend="sharded")
        assert replayed.ok
        assert replayed.stats.exchanges > 0


# ---------------------------------------------------------------------------
# Trace capture + replay: the pipeline over a CSR-form graph
# ---------------------------------------------------------------------------


class TestCSRTraceReplay:
    """A pipeline capture over a CSR-form :class:`Graph` must survive the
    capture → replay round trip on every backend: the broadcast's
    ``min_label_exchange`` levels bind the edge list's two orientations
    as ordinary plan bindings, so a replay reproduces those rounds
    (outputs and gated counters) bit for bit."""

    def test_csr_capture_replays_on_all_backends(self, tmp_path):
        path, result, captured, _ = capture_pipeline(
            tmp_path, ShardedBackend()
        )
        assert "min_label_exchange" in trace_ops(path)
        for name in ("sharded", "local", "process", "rpc"):
            replayed = replay(path, backend=name)
            assert replayed.ok, name
            assert replayed.stats.op_counts == captured.op_counts, name
            if name != "local":
                # Enforced backends adopt the trace's machine memory, so
                # the gated counters reproduce exactly.
                assert replayed.stats.exchanges == captured.exchanges
                assert (replayed.stats.bytes_exchanged
                        == captured.bytes_exchanged)


# ---------------------------------------------------------------------------
# Trace capture + replay: Liu–Tarjan's min-label rounds
# ---------------------------------------------------------------------------


class TestLiuTarjanTraceReplay:
    """Liu–Tarjan's rounds bind the edge list's two orientations as
    ordinary plan bindings, so a replay reproduces its min-label rounds
    (outputs and gated counters) bit for bit."""

    def test_liu_tarjan_binds_incidence_arrays_and_round_trips(self, tmp_path):
        from repro.engines import get_engine
        from repro.engines.base import incidence_arrays

        graph = Workload("permutation_regular", 256, {"degree": 6}).build(
            SEED
        )
        path = tmp_path / "liu-tarjan.json"
        with MPCEngine.for_delta(
            graph.n + graph.m, CONFIG.delta,
            backend=ShardedBackend(), trace=str(path),
        ) as mpc:
            result = get_engine("liu_tarjan").run(
                graph, 0.1, config=CONFIG, rng=SEED, mpc=mpc
            )
            captured = mpc.backend.stats()
        doc = load_trace(path)
        # Every round binds the same two orientation arrays, which the
        # trace records as plan bindings: the opening plan only scatters,
        # and no step rebuilds the arrays on replay.
        (opening,) = [e for e in doc["plans"] if e["name"] == "scatter-input"]
        assert [s["op"] for s in opening["steps"]] == ["scatter"]
        incidences = [content_digest(a) for a in incidence_arrays(graph.edges)]
        levels = [
            [entry["bindings"][slot] for slot in step["inputs"][1:]]
            for entry in doc["plans"]
            for step in entry["steps"]
            if step["op"] == "min_label_exchange"
        ]
        assert levels and all(bound == incidences for bound in levels)
        assert result.labels.shape == (graph.n,)
        for name in ("sharded", "process", "rpc"):
            replayed = replay(path, backend=name)
            assert replayed.ok, name
            assert replayed.stats.exchanges == captured.exchanges


# ---------------------------------------------------------------------------
# The capture → replay smoke tool (CI's differential gate)
# ---------------------------------------------------------------------------


def smoke_tool():
    """Import ``tools/trace_replay_smoke.py`` as a module."""
    path = pathlib.Path(__file__).resolve().parent.parent / "tools"
    spec = importlib.util.spec_from_file_location(
        "trace_replay_smoke", path / "trace_replay_smoke.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReplaySmokeTool:
    ARGS = ["--capture", "sharded", "--replay", "sharded", "process"]

    def test_liu_tarjan_capture_exchanges_and_replays(self, capsys):
        """Liu–Tarjan's stream holds no op the pools run (no sort, no
        reduce), so its process replay passes without dispatching."""
        args = ["--n", "512", *self.ARGS, "--engine", "liu_tarjan"]
        assert smoke_tool().main(args) == 0
        out = capsys.readouterr().out
        (captured,) = re.findall(r"\((\d+) rounds, (\d+) exchanges\)", out)
        assert int(captured[1]) > 0
        assert "pooled ops: none" in out
        (process,) = re.findall(r"on 'process': .* (\d+) dispatches", out)
        assert int(process) == 0

    def test_exponentiation_replay_dispatches_its_pooled_ops(self, capsys):
        args = ["--n", "512", *self.ARGS, "--engine", "exponentiation"]
        assert smoke_tool().main(args) == 0
        out = capsys.readouterr().out
        assert "pooled ops: reduce_by_key, sort" in out
        (process,) = re.findall(r"on 'process': .* (\d+) dispatches", out)
        assert int(process) > 0

    def test_exchange_free_capture_fails(self, capsys):
        """At n = 16 the whole input fits one shard: the exchange check
        would compare 0 with 0, so the run fails instead of passing."""
        args = ["--n", "16", *self.ARGS, "--engine", "liu_tarjan"]
        assert smoke_tool().main(args) == 1
        assert "made no exchange" in capsys.readouterr().err

    def test_undispatched_pool_replay_fails(self, capsys, monkeypatch):
        """A pool at its default size threshold runs the smoke-scale ops
        on the serial kernels, which certifies nothing about the pool."""
        tool = smoke_tool()
        monkeypatch.setitem(tool.POOLS, "process", lambda: ProcessBackend(workers=2))
        args = ["--n", "512", *self.ARGS, "--engine", "exponentiation"]
        assert tool.main(args) == 1
        assert "dispatched nothing" in capsys.readouterr().err
