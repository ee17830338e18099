"""The four workloads and the closed-loop measurement they share.

One client sends one request at a time and waits for the answer: a
connectivity solve on the pipeline workloads, an event batch followed by
a query on the stream workload.  Every input is generated from the
run's seed; the program under test only receives the generated graphs,
streams and per-solve seeds.  Every answer is checked against
union-find truth, and a wrong or raising answer counts as failed while
the run goes on.

The harness calls only ``repro``'s public API.  A traced run
additionally wraps public callables from the outside (see
:mod:`spans`); untraced answers never run through a wrapper.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import scipy.sparse.csgraph as csgraph

import repro
import repro.core.randomize
import repro.streaming.connectivity
import spans
from reference import reference_seconds
from repro.graph import (
    Graph,
    canonical_labels,
    components_agree,
    connected_components,
    permutation_regular_graph,
)
from repro.mpc import (
    ExecutionBackend,
    LocalBackend,
    MPCEngine,
    ProcessBackend,
    ShardedBackend,
    usable_cpu_count,
)
from repro.sketch import ShardedAGMSketch
from repro.streaming import StreamingConnectivity, StreamWorkload

#: The e18 pipeline configuration and its spectral-gap bound.
CONFIG = repro.PipelineConfig(
    delta=0.3, expander_degree=4, max_walk_length=64, oversample=6, max_phases=4
)
GAP_BOUND = 0.25
STREAM_GAP_BOUND = 0.1

#: Degree of every generated ``permutation_regular`` graph.
DEGREE = 6
#: Shards of the stream workload's AGM sketch.
SKETCH_SHARDS = 2
#: Batches of the stream workload: one pass applies and queries each.
STREAM_BATCHES = 24

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: ``setup_s`` is reported in seconds at the host speed at which the
#: reference work takes this long (see :mod:`reference`).
REFERENCE_SECONDS = 0.25

#: Top-level ``MPCEngine.phase`` names and the spans they are traced as.
PHASE_SPANS = {
    "Step1-Regularize": "core.regularize",
    "Step2-Randomize": "core.randomize",
    "Step3-RandomGraphCC": "core.random_graph_cc",
    "Verify": "core.verify",
    "Exponentiation": "engines.exponentiation",
}
#: The same phases' round counters (``mpc.rounds.regularize``, ...).
PHASE_ROUNDS = {
    phase: "mpc.rounds." + span.split(".", 1)[1] for phase, span in PHASE_SPANS.items()
}
BACKEND_OPS = (
    "scatter",
    "sort",
    "search",
    "reduce_by_key",
    "min_label_exchange",
    "csr_min_label",
    "sketch_update",
    "sketch_collect",
)
#: Spans reported as total seconds per answer (``<span>_s``).
TIMED_SPANS = (
    *PHASE_SPANS.values(),
    "core.walk_engine",
    "graph.build",
    *(f"mpc.backend.{op}" for op in BACKEND_OPS),
    "sketch.update",
    "sketch.merge",
    "sketch.decode",
    "streaming.oracle",
)
#: Spans reported as self seconds (``<span>_self_s``): their own work
#: outside every child span.
SELF_SPANS = ("mpc.run_plan", "streaming.apply")
#: Spans whose calls per answer are counted (``<span>_calls``).
COUNTED_SPANS = ("graph.build", "mpc.run_plan", *(f"mpc.backend.{op}" for op in BACKEND_OPS))
BACKEND_COUNTERS = (
    "mpc.exchanges",
    "mpc.bytes_exchanged",
    "mpc.dispatch.barriers",
    "mpc.dispatch.messages",
    "mpc.dispatch.shm_bytes_copied",
    "mpc.arena.segments",
    "mpc.csr.csr_builds",
)


def pool_workers() -> int:
    """Worker processes for the process backend: at most the 2 the
    benchmark was sized for, fewer on a smaller host."""
    return min(2, usable_cpu_count())


@dataclass
class Answer:
    """One closed-loop iteration.

    ``wall_s`` is all the client waited (solve; apply plus query),
    ``latency_s`` the answer itself (solve; query), and ``work_s`` the
    time spent consuming the ``work_items`` input edges (solve; apply).
    """

    wall_s: float
    latency_s: float
    work_items: int
    work_s: float
    rounds: int
    ok: bool
    counters: dict
    tracer: "spans.Tracer | None"


@dataclass
class RunResult:
    """What one run of one workload measured."""

    attempted: int
    failed: int
    passes: int
    metrics: "dict[str, float | None]"
    wall_clock: "dict[str, float]"
    samples: "list[dict]"
    setup_s: "list[float]"
    errors: "list[str]"
    spans: "list[dict]"


def _backend_counters(stats: dict) -> "dict[str, int]":
    """The backend counters of ``ExecutionBackend.stats().to_json()``."""
    return {
        "mpc.exchanges": stats["exchanges"],
        "mpc.bytes_exchanged": stats["bytes_exchanged"],
        "mpc.dispatch.barriers": stats["dispatch"]["barriers"],
        "mpc.dispatch.messages": stats["dispatch"]["messages"],
        "mpc.dispatch.shm_bytes_copied": stats["dispatch"]["shm_bytes_copied"],
        "mpc.arena.segments": stats["arena"]["segments"],
        "mpc.csr.csr_builds": stats["csr"]["csr_builds"],
    }


def _held_counters(backend: "ExecutionBackend | None") -> "dict[str, int]":
    if backend is None:
        return dict.fromkeys(BACKEND_COUNTERS, 0)
    return _backend_counters(backend.stats().to_json())


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


def _close(backend: "ExecutionBackend | None") -> None:
    if backend is not None:
        backend.close()


def trace_targets(tracer: "spans.Tracer") -> list:
    """Every public callable the traced run wraps, with its span name."""
    wrap = functools.partial
    targets = [
        (MPCEngine, "phase", wrap(tracer.wrap_phase, PHASE_SPANS)),
        (MPCEngine, "run_plan", wrap(tracer.wrap, "mpc.run_plan")),
        (repro.core.randomize, "direct_walk_targets", wrap(tracer.wrap, "core.walk_engine")),
        (Graph, "__init__", wrap(tracer.wrap, "graph.build")),
        (ShardedAGMSketch, "update_edges", wrap(tracer.wrap, "sketch.update")),
        (ShardedAGMSketch, "merge", wrap(tracer.wrap, "sketch.merge")),
        (repro.streaming.connectivity, "agm_decode_components", wrap(tracer.wrap, "sketch.decode")),
        (
            repro.streaming.connectivity,
            "mpc_connected_components",
            wrap(tracer.wrap, "streaming.oracle"),
        ),
        (StreamingConnectivity, "apply", wrap(tracer.wrap, "streaming.apply")),
    ]
    for cls in (ExecutionBackend, LocalBackend, ShardedBackend, ProcessBackend):
        for op in BACKEND_OPS:
            if op in vars(cls):
                targets.append((cls, op, wrap(tracer.wrap, f"mpc.backend.{op}")))
    return targets


def _tracing(tracer: "spans.Tracer | None"):
    if tracer is None:
        return contextlib.nullcontext()
    return spans.installed(trace_targets(tracer))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class PipelineState:
    graphs: "list[Graph]"
    truths: "list[np.ndarray]"
    backend: "ProcessBackend | None"
    seeds: np.random.Generator
    solves: int = 0


@dataclass(frozen=True)
class PipelineCase:
    """Repeated ``repro.mpc_connected_components`` calls.

    A pass solves each of the run's ``graphs`` graphs once, in order.
    Several graphs per run keep one graph from deciding a run's median;
    the exponentiation engine's rounds and work vary from graph to
    graph, so it gets more of them.  ``backend="process"`` keeps one
    warm :class:`ProcessBackend` for the whole run and resets its
    counters between solves.
    """

    name: str
    engine: str
    backend: str
    n: int
    graphs: int

    def params(self) -> dict:
        return {
            **dataclasses.asdict(self),
            "degree": DEGREE,
            "family": "permutation_regular",
            "config": dataclasses.asdict(CONFIG),
            "spectral_gap_bound": GAP_BOUND,
            "workers": pool_workers() if self.backend == "process" else None,
        }

    def setup(self, seed: int) -> PipelineState:
        graph_seq, solve_seq = np.random.SeedSequence(seed).spawn(2)
        graphs = [
            permutation_regular_graph(self.n, DEGREE, rng=np.random.default_rng(seq))
            for seq in graph_seq.spawn(self.graphs)
        ]
        backend = (
            ProcessBackend(workers=pool_workers()) if self.backend == "process" else None
        )
        state = PipelineState(
            graphs,
            [connected_components(graph) for graph in graphs],
            backend,
            np.random.default_rng(solve_seq),
        )
        try:
            self._solve(state, graphs[0])  # warm-up: starts the pool, fills the arena
        except BaseException:
            _close(backend)
            raise
        return state

    def _solve(self, state: PipelineState, graph: Graph):
        return repro.mpc_connected_components(
            graph,
            GAP_BOUND,
            config=CONFIG,
            rng=int(state.seeds.integers(2**32)),
            engine=self.engine,
            backend=state.backend if state.backend is not None else self.backend,
        )

    def pass_length(self, state: PipelineState) -> int:
        return len(state.graphs)

    def answer(self, state: PipelineState, tracer) -> Answer:
        index = state.solves % len(state.graphs)
        state.solves += 1
        graph = state.graphs[index]
        if state.backend is not None:
            state.backend.reset()
        before = _held_counters(state.backend)
        with _tracing(tracer):
            start = time.perf_counter()
            result = self._solve(state, graph)
            seconds = time.perf_counter() - start
        summary = result.engine.summary()
        counters = _delta(_backend_counters(summary["backend"]), before)
        counters["mpc.rounds"] = summary["rounds"]
        counters.update(dict.fromkeys(PHASE_ROUNDS.values(), 0))
        for phase in summary["phase_breakdown"]:
            if phase["name"] in PHASE_ROUNDS:
                counters[PHASE_ROUNDS[phase["name"]]] = phase["rounds"]
        return Answer(
            wall_s=seconds,
            latency_s=seconds,
            work_items=graph.m,
            work_s=seconds,
            rounds=result.rounds,
            ok=components_agree(result.labels, state.truths[index]),
            counters=counters,
            tracer=tracer,
        )

    def floor_graph(self, state: PipelineState) -> Graph:
        return state.graphs[0]

    def close(self, state: PipelineState) -> None:
        _close(state.backend)


@dataclass
class StreamState:
    batches: tuple
    truth: "list[np.ndarray]"
    final_graph: Graph
    backend: ProcessBackend
    seeds: np.random.Generator
    structure: "StreamingConnectivity | None" = None
    position: int = 0


def _checkpoint_truth(n: int, batches) -> "tuple[list[np.ndarray], Graph]":
    """Union-find labels of the live graph after every batch."""
    live: "dict[int, int]" = {}
    truth = []
    for batch in batches:
        lo = np.minimum(batch.edges[:, 0], batch.edges[:, 1])
        hi = np.maximum(batch.edges[:, 0], batch.edges[:, 1])
        for key, weight in zip((lo * n + hi).tolist(), batch.weights.tolist()):
            live[key] = live.get(key, 0) + weight
        ids = np.fromiter((k for k, v in live.items() if v > 0), dtype=np.int64)
        graph = Graph(n, np.column_stack([ids // n, ids % n]))
        truth.append(connected_components(graph))
    return truth, graph


@dataclass(frozen=True)
class StreamCase:
    """A churn stream fed batch by batch, with a query after each batch.

    A pass feeds the whole stream.  The next pass replays it into a
    fresh structure (fresh sketch randomness) on the same warm backend.
    """

    name: str
    n: int

    def params(self) -> dict:
        return {
            **dataclasses.asdict(self),
            "batches": STREAM_BATCHES,
            "sketch_shards": SKETCH_SHARDS,
            "family": "permutation_regular",
            "pattern": "churn",
            "spectral_gap_bound": STREAM_GAP_BOUND,
            "workers": pool_workers(),
        }

    def _structure(self, state: StreamState) -> StreamingConnectivity:
        return StreamingConnectivity(
            self.n,
            rng=int(state.seeds.integers(2**32)),
            sketch_shards=SKETCH_SHARDS,
            backend=state.backend,
            spectral_gap_bound=STREAM_GAP_BOUND,
        )

    def setup(self, seed: int) -> StreamState:
        stream_seq, sketch_seq = np.random.SeedSequence(seed).spawn(2)
        stream = StreamWorkload(
            "permutation_regular", self.n, "churn", batches=STREAM_BATCHES
        ).build(np.random.default_rng(stream_seq))
        truth, final_graph = _checkpoint_truth(stream.n, stream.batches)
        state = StreamState(
            stream.batches,
            truth,
            final_graph,
            ProcessBackend(workers=pool_workers()),
            np.random.default_rng(sketch_seq),
        )
        try:
            warm = self._structure(state)  # starts the pool, fills the arena
            try:
                warm.apply(stream.batches[0])
                warm.query()
            finally:
                warm.close()
            state.structure = self._structure(state)
        except BaseException:
            state.backend.close()
            raise
        return state

    def pass_length(self, state: StreamState) -> int:
        return len(state.batches)

    def answer(self, state: StreamState, tracer) -> Answer:
        if state.position == len(state.batches):
            state.structure.close()
            state.structure = self._structure(state)
            state.position = 0
        batch = state.batches[state.position]
        truth = state.truth[state.position]
        state.position += 1
        structure = state.structure
        before = _held_counters(state.backend)
        stats_before = structure.stats.to_json()
        with _tracing(tracer):
            start = time.perf_counter()
            structure.apply(batch)
            applied = time.perf_counter()
            labels = structure.query()
            done = time.perf_counter()
        stats = structure.stats.to_json()
        counters = _delta(_held_counters(state.backend), before)
        oracle_rounds = stats["oracle_rounds"] - stats_before["oracle_rounds"]
        counters["mpc.rounds"] = oracle_rounds
        counters.update(dict.fromkeys(PHASE_ROUNDS.values(), 0))
        counters["streaming.fallbacks"] = (
            stats["full_recomputes"] - stats_before["full_recomputes"]
        )
        counters["streaming.sketch_hit_ratio"] = (
            stats["sketch_queries"] - stats_before["sketch_queries"]
        )
        counters["sketch.partial_words"] = stats["sketch"]["partial_words"]
        return Answer(
            wall_s=done - start,
            latency_s=done - applied,
            work_items=batch.size,
            work_s=applied - start,
            # Each cycle's MPC rounds: the ingest and merge exchange
            # barriers (the decode runs on the coordinator) plus any
            # oracle recompute.
            rounds=counters["mpc.exchanges"] + oracle_rounds,
            ok=bool(np.array_equal(canonical_labels(labels), truth)),
            counters=counters,
            tracer=tracer,
        )

    def floor_graph(self, state: StreamState) -> Graph:
        return state.final_graph

    def close(self, state: StreamState) -> None:
        try:
            if state.structure is not None:
                state.structure.close()
        finally:
            state.backend.close()


#: The benchmark's workloads, by name (see README.md for why each).
CASES = {
    case.name: case
    for case in (
        PipelineCase("paper_local", engine="paper", backend="local", n=4096, graphs=4),
        PipelineCase("paper_process", engine="paper", backend="process", n=4096, graphs=4),
        PipelineCase(
            "expo_process", engine="exponentiation", backend="process", n=32768, graphs=16
        ),
        StreamCase("stream_churn", n=2048),
    )
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def timed_answers(attempts: list, units: "list[float]") -> list:
    """``(answer, unit)`` for every answer of an untraced run.

    ``units[i]`` and ``units[i + 1]`` are the reference times just before
    and after ``attempts[i]``; their mean is that answer's time unit.
    """
    return [
        (a, (units[i] + units[i + 1]) / 2)
        for i, a in enumerate(attempts)
        if isinstance(a, Answer)
    ]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest peak among its
    finished worker processes (a pool's workers count once it is closed)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


def end_to_end(pairs: list, attempted: int, setup_s: "list[float]") -> dict:
    """The user-visible metrics of an untraced run, times in ref units.

    The metrics that need a successful answer are None without one.
    """
    metrics = dict.fromkeys(("answer.p50", "edges_per_ref", "rounds"))
    if pairs:
        metrics["answer.p50"] = statistics.median(a.latency_s / unit for a, unit in pairs)
        metrics["edges_per_ref"] = sum(a.work_items for a, _ in pairs) / sum(
            a.work_s / unit for a, unit in pairs
        )
        metrics["rounds"] = max(a.rounds for a, _ in pairs)
    metrics["correct_ratio"] = sum(a.ok for a, _ in pairs) / attempted
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def wall_clock_times(pairs: list) -> dict:
    """Wall-clock counterparts of the ref-unit metrics (not gated)."""
    if not pairs:
        return {}
    return {
        "answer_s.p50": statistics.median(a.latency_s for a, _ in pairs),
        "edges_per_s": sum(a.work_items for a, _ in pairs) / sum(a.work_s for a, _ in pairs),
        "ref_s.p50": statistics.median(unit for _, unit in pairs),
    }


#: Counters a traced answer reports, 0 where its workload has none.
ANSWER_COUNTERS = (
    "streaming.fallbacks",
    "streaming.sketch_hit_ratio",
    "sketch.partial_words",
    *BACKEND_COUNTERS,
    "mpc.rounds",
    *PHASE_ROUNDS.values(),
)


def layer_names() -> "list[str]":
    """The per-answer metrics :func:`layer_values` reports."""
    return [
        *(f"{name}_s" for name in TIMED_SPANS),
        *(f"{name}_self_s" for name in SELF_SPANS),
        *(f"{name}_calls" for name in COUNTED_SPANS),
        "residue_s",
        *ANSWER_COUNTERS,
    ]


def layer_values(answer: Answer) -> "dict[str, float]":
    """Per-layer values of one traced answer."""
    totals = answer.tracer.totals()
    values = {}
    for name in TIMED_SPANS:
        values[f"{name}_s"] = totals.get(name, (0.0, 0.0, 0))[0]
    for name in SELF_SPANS:
        values[f"{name}_self_s"] = totals.get(name, (0.0, 0.0, 0))[1]
    for name in COUNTED_SPANS:
        values[f"{name}_calls"] = totals.get(name, (0.0, 0.0, 0))[2]
    values["residue_s"] = answer.wall_s - answer.tracer.root_seconds()
    for name in ANSWER_COUNTERS:
        values[name] = answer.counters.get(name, 0)
    return values


def scipy_floor_s(graph: Graph) -> float:
    """Median time of scipy's connected components on ``graph``'s edges,
    adjacency build included: the sequential floor."""
    samples = []
    deadline = time.perf_counter() + 0.5
    while len(samples) < 5 or (time.perf_counter() < deadline and len(samples) < 200):
        start = time.perf_counter()
        csgraph.connected_components(graph.adjacency_matrix(), directed=False)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def per_layer(answers: "list[Answer]") -> dict:
    """Per-answer medians of traced times, means of traced counts, and
    the tracing overhead against the untraced answers of the same inputs.
    A metric is None when the answers it needs all failed."""
    traced = [a for a in answers if a.tracer is not None]
    untraced = [a for a in answers if a.tracer is None]
    rows = [layer_values(a) for a in traced]
    metrics = dict.fromkeys(layer_names())
    if rows:
        for name in metrics:
            column = [row[name] for row in rows]
            metrics[name] = (
                statistics.median(column) if name.endswith("_s") else statistics.fmean(column)
            )
    metrics["trace_overhead"] = None
    if traced and untraced:
        metrics["trace_overhead"] = (
            statistics.median(a.wall_s for a in traced)
            / statistics.median(a.wall_s for a in untraced)
            - 1.0
        )
    return metrics


def timed_setups(case, seed: int, setups: int) -> "tuple[object, list[float]]":
    """Set ``case`` up ``setups`` times from scratch; return the last
    state and each set-up's time, scaled to ``REFERENCE_SECONDS`` by the
    reference work timed just before and after it."""
    times = []
    state = None
    before = reference_seconds()
    for _ in range(setups):
        if state is not None:
            case.close(state)
        gc.collect()
        start = time.perf_counter()
        state = case.setup(seed)
        seconds = time.perf_counter() - start
        after = reference_seconds()
        times.append(seconds * REFERENCE_SECONDS / ((before + after) / 2))
        before = after
    return state, times


def run_workload(case, *, seed: int, seconds: float, trace: bool, setups: int) -> RunResult:
    """Set ``case`` up ``setups`` times, then answer in a closed loop.

    The loop runs whole passes over the run's inputs, so every run
    measures each input equally often: as many passes as come nearest
    to ``seconds``, at least one.  An untraced run times the reference
    work (its time unit) between answers.  A traced run goes in pairs
    of passes and answers each input once traced and once untraced.
    """
    state, setup_s = timed_setups(case, seed, setups)
    length = case.pass_length(state)
    step = 2 if trace else 1  # passes between checks of the clock
    attempts: list = []  # an Answer, or the error an attempt raised
    units: "list[float]" = []
    passes = 0
    try:
        start = time.perf_counter()
        while True:
            for _ in range(step * length):
                lap, position = divmod(len(attempts), length)
                traced = trace and (lap + position) % 2 == 0
                tracer = spans.Tracer() if traced else None
                gc.collect()
                if not trace:
                    units.append(reference_seconds())
                try:
                    attempts.append(case.answer(state, tracer))
                except Exception as exc:  # counted as failed; the loop goes on
                    traceback.print_exc(file=sys.stderr)
                    attempts.append(f"{type(exc).__name__}: {exc}")
            passes += step
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / passes * step / 2 >= seconds:
                break  # another step would end further from ``seconds``
        if not trace:
            units.append(reference_seconds())
        floor_s = scipy_floor_s(case.floor_graph(state)) if trace else None
    finally:
        case.close(state)
    answers = [a for a in attempts if isinstance(a, Answer)]
    errors = [a for a in attempts if not isinstance(a, Answer)]
    samples = []
    if trace:
        metrics = per_layer(answers)
        metrics["ref.scipy_cc_s"] = floor_s
        wall_clock = {}
    else:
        pairs = timed_answers(attempts, units)
        metrics = end_to_end(pairs, len(attempts), setup_s)
        wall_clock = wall_clock_times(pairs)
        samples = [
            {"latency_s": a.latency_s, "work_s": a.work_s, "unit_s": unit, "ok": a.ok}
            for a, unit in pairs
        ]
    traced = [a for a in answers if a.tracer is not None]
    return RunResult(
        attempted=len(attempts),
        failed=len(errors) + sum(not a.ok for a in answers),
        passes=passes,
        metrics=metrics,
        wall_clock=wall_clock,
        samples=samples,
        setup_s=setup_s,
        errors=errors,
        spans=traced[-1].tracer.to_json() if traced else [],
    )
