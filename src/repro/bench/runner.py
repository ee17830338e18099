"""Execute registered benchmarks with warmup/repeat timing.

The runner owns everything an experiment body should not: wall-clock
measurement (``BenchContext.timeit`` with warmup and repeat), MPC engine
accounting capture (``BenchContext.account``), table-row and record
collection, and shape-check bookkeeping.  Experiment functions stay pure
"run the sweep, report what you saw" code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.registry import BenchmarkSpec, get_benchmark
from repro.engines import engine_names
from repro.mpc.backends import backend_names
from repro.mpc.process_backend import default_workers
from repro.utils.rng import ensure_rng

#: suite -> (warmup, repeat) for ``BenchContext.timeit`` kernels.  Smoke
#: kernels are tiny, so they can afford a warmup plus repeats; full-suite
#: kernels are the paper-scale runs and are timed single-shot.
DEFAULT_TIMING = {"smoke": (1, 3), "full": (0, 1)}


class BenchCheckError(AssertionError):
    """A paper-shape check failed during a benchmark run.

    ``result`` is the :class:`CaseResult` collected up to the failed
    check (its last check has ``ok: false``) when :func:`run_case`
    raised it, so the CLI can still write the case's artifact.
    """

    result: "CaseResult | None" = None


@dataclass
class Timing:
    """Warmup/repeat wall-clock measurement of one kernel."""

    label: str
    warmup: int
    repeat: int
    seconds: "list[float]"

    @property
    def best(self) -> float:
        return min(self.seconds)

    @property
    def mean(self) -> float:
        return sum(self.seconds) / len(self.seconds)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "warmup": self.warmup,
            "repeat": self.repeat,
            "seconds_best": self.best,
            "seconds_mean": self.mean,
            "seconds_all": list(self.seconds),
        }


@dataclass
class CaseResult:
    """Everything one benchmark execution produced."""

    name: str
    title: str
    suite: str
    seed: int
    backend: str
    engine: str
    workers: "int | None"
    sketch_shards: "int | None"
    params: dict
    headers: "tuple[str, ...]"
    rows: "list[list]"
    records: "list[dict]"
    timings: "list[Timing]"
    checks: "list[dict]"
    notes: "list[str]"
    total_seconds: float

    @property
    def rounds_by_key(self) -> "dict[str, int]":
        """Record key → total MPC rounds, for quick regression eyeballing."""
        out = {}
        for record in self.records:
            for name, value in record.items():
                if name.endswith("rounds") and isinstance(value, (int, float)):
                    out[f"{record.get('key', '?')}.{name}"] = value
        return out


class BenchContext:
    """What an experiment function sees while it runs.

    ``backend`` is the execution-backend name selected for this run
    (``--backend`` on the CLI); experiments that execute the pipeline
    thread it into ``mpc_connected_components(..., backend=ctx.backend)``
    so one registered case can be measured on any data plane.  ``engine``
    is the connectivity-engine name selected with ``--engine`` (default
    ``"paper"``); pipeline experiments thread it the same way
    (``engine=ctx.engine``) so one registered case can race any
    registered algorithm through the dispatch seam.  ``workers``
    is the ``--workers`` pool-size override for the ``process`` backend
    (``None`` means each experiment picks its own default);
    ``sketch_shards`` is the ``--sketch-shards`` override for streaming
    experiments that maintain a sharded AGM sketch (``None`` means each
    experiment picks its own sweep of shard counts).
    """

    def __init__(
        self,
        spec: BenchmarkSpec,
        suite: str,
        seed: int,
        warmup: int,
        repeat: int,
        backend: str = "local",
        engine: str = "paper",
        workers: "int | None" = None,
        sketch_shards: "int | None" = None,
    ):
        if backend not in backend_names():
            raise ValueError(
                f"unknown backend {backend!r}; available: {backend_names()}"
            )
        if engine not in engine_names():
            raise ValueError(
                f"unknown engine {engine!r}; available: {engine_names()}"
            )
        if workers is not None and int(workers) < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if sketch_shards is not None and int(sketch_shards) < 1:
            raise ValueError(f"sketch_shards must be >= 1, got {sketch_shards}")
        self.spec = spec
        self.suite = suite
        self.seed = int(seed)
        self.backend = backend
        self.engine = engine
        self.workers = None if workers is None else int(workers)
        self.sketch_shards = None if sketch_shards is None else int(sketch_shards)
        self.params = spec.params_for(suite)
        self.warmup = int(warmup)
        self.repeat = int(repeat)
        self.rows: "list[list]" = []
        self.records: "list[dict]" = []
        self.timings: "list[Timing]" = []
        self.checks: "list[dict]" = []
        self.notes: "list[str]" = []

    # -- randomness ----------------------------------------------------------

    def rng(self, salt: int = 0):
        """A fresh deterministic generator (stable across re-runs)."""
        return ensure_rng(self.seed + salt)

    # -- reporting -----------------------------------------------------------

    def record(self, key: str, row: "list | None" = None, **fields) -> dict:
        """Add one machine-readable record (and optionally a table row).

        ``key`` is the stable identity used when two JSON artifacts are
        diffed — keep it deterministic (workload label, sweep point).
        """
        if any(r.get("key") == key for r in self.records):
            raise ValueError(f"duplicate record key {key!r} in {self.spec.name}")
        record = {"key": key, **fields}
        self.records.append(record)
        if row is not None:
            self.rows.append(list(row))
        return record

    def account(self, engine) -> dict:
        """Serialize an :class:`~repro.mpc.engine.MPCEngine`'s accounting."""
        return engine.summary()

    def note(self, text: str) -> None:
        self.notes.append(text)

    # -- timing --------------------------------------------------------------

    def timeit(self, label: str, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)`` with this run's warmup/repeat policy.

        Returns the result of the final timed call, so experiments can time
        their representative kernel and use its output in the same sweep.
        """
        for _ in range(self.warmup):
            fn(*args, **kwargs)
        seconds = []
        result = None
        for _ in range(max(1, self.repeat)):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds.append(time.perf_counter() - start)
        self.timings.append(
            Timing(label=label, warmup=self.warmup, repeat=max(1, self.repeat),
                   seconds=seconds)
        )
        return result

    # -- shape checks --------------------------------------------------------

    def check(self, name: str, ok, detail: str = "") -> None:
        """Record a paper-shape assertion; failure aborts the case."""
        entry = {"name": name, "ok": bool(ok)}
        if detail:
            entry["detail"] = detail
        self.checks.append(entry)
        if not ok:
            raise BenchCheckError(
                f"[{self.spec.name}] shape check failed: {name}"
                + (f" ({detail})" if detail else "")
            )

    @property
    def is_full(self) -> bool:
        return self.suite == "full"


def run_case(
    name: str,
    *,
    suite: str = "smoke",
    seed: "int | None" = None,
    warmup: "int | None" = None,
    repeat: "int | None" = None,
    backend: str = "local",
    engine: str = "paper",
    workers: "int | None" = None,
    sketch_shards: "int | None" = None,
) -> CaseResult:
    """Run one registered benchmark and return its :class:`CaseResult`.

    Parameters
    ----------
    name:
        A registered benchmark name (see :func:`repro.bench.iter_benchmarks`).
    suite:
        Parameter tier, ``"smoke"`` or ``"full"``.
    seed, warmup, repeat:
        Overrides for the suite's base seed and kernel timing policy.
    backend:
        Execution-backend name threaded into the experiment context.
    engine:
        Connectivity-engine name threaded into the experiment context
        (the ``--engine`` flag; default ``"paper"``).
    workers:
        Optional ``process``-backend pool size (the ``--workers`` flag).
    sketch_shards:
        Optional sharded-sketch shard-count override for streaming
        experiments (the ``--sketch-shards`` flag); ``None`` lets each
        experiment pick its own sweep.

    Raises
    ------
    BenchCheckError
        A shape check failed; its ``result`` holds what the case
        collected up to that check.
    KeyError
        ``name`` is not a registered benchmark.
    ValueError
        Unknown backend or engine name, or non-positive ``workers``.
    """
    spec = get_benchmark(name)
    default_warmup, default_repeat = DEFAULT_TIMING.get(suite, (0, 1))
    ctx = BenchContext(
        spec,
        suite,
        seed=spec.params_for(suite).get("seed", 0) if seed is None else seed,
        warmup=default_warmup if warmup is None else warmup,
        repeat=default_repeat if repeat is None else repeat,
        backend=backend,
        engine=engine,
        workers=workers,
        sketch_shards=sketch_shards,
    )
    start = time.perf_counter()

    def collected() -> CaseResult:
        return CaseResult(
            name=spec.name,
            title=spec.title,
            suite=suite,
            seed=ctx.seed,
            backend=ctx.backend,
            engine=ctx.engine,
            workers=ctx.workers,
            sketch_shards=ctx.sketch_shards,
            params=dict(ctx.params),
            headers=spec.headers,
            rows=ctx.rows,
            records=ctx.records,
            timings=ctx.timings,
            checks=ctx.checks,
            notes=([spec.notes] if spec.notes else []) + list(ctx.notes),
            total_seconds=time.perf_counter() - start,
        )

    try:
        # Scope the --workers override so every backend the experiment
        # constructs by name (including inside the pipeline) honours it.
        with default_workers(ctx.workers):
            spec.func(ctx)
    except BenchCheckError as exc:
        exc.result = collected()
        raise
    return collected()
