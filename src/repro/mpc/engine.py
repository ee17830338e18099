"""Round and resource accounting for MPC algorithms.

Every MPC-facing algorithm in this library takes an :class:`MPCEngine` and
*charges* it for each primitive it would execute on a real cluster: sorts,
searches, shuffles, broadcasts.  The engine is the experiment's measuring
device — benches report ``engine.rounds`` (the quantity bounded by the
paper's theorems) alongside the predicted values.

The engine is the control plane; the data plane behind it is a pluggable
:class:`~repro.mpc.backends.ExecutionBackend`.  With the default
:class:`~repro.mpc.backends.LocalBackend`, local computation runs as plain
vectorised numpy — the MPC model places no bound on per-machine
computation, only on memory and communication, so simulating machine-local
work faithfully is unnecessary for round counts.  What *is* tracked is the
peak number of machines needed (``total data / machine memory``), which the
theorems also bound.  With a
:class:`~repro.mpc.backends.ShardedBackend` (or one of the worker pools
built on it, :class:`~repro.mpc.process_backend.ProcessBackend` and
:class:`~repro.mpc.rpc.RpcBackend`), the same
charges additionally *enforce* the fleet's capacity (every charge's data
volume is checked against the shard caps, raising
:class:`~repro.mpc.machine.MachineMemoryError` on a capped fleet) and
every charge records the materialised exchange barriers executed since
the previous charge, so pipeline-level tests can certify the charged
round counts are achievable.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

from repro.mpc.backends import ExecutionBackend, LocalBackend
from repro.mpc.cost import MPCCostModel
from repro.mpc.plan import PlanTrace, RoundPlan
from repro.utils.validation import check_nonnegative_int, check_positive_int


@dataclass
class RoundCharge:
    """One accounting entry.

    ``exchanges`` counts the backend exchange barriers materialised since
    the previous charge — i.e. the real communication this charge pays
    for.  Always 0 on the accounting-only local backend.
    """

    label: str
    kind: str
    rounds: int
    items: int = 0
    phase: str = ""
    exchanges: int = 0


@dataclass
class PhaseSummary:
    """Aggregated charges of one top-level phase: total ``rounds``,
    number of ``charges``, and the backend ``exchanges`` they covered.
    """

    name: str
    rounds: int
    charges: int
    exchanges: int = 0

    def to_json(self) -> dict:
        """Plain-dict form for the ``BENCH_*.json`` artifacts."""
        return {
            "name": self.name,
            "rounds": self.rounds,
            "charges": self.charges,
            "exchanges": self.exchanges,
        }


class MPCEngine:
    """Accumulates MPC round charges for one algorithm execution.

    Parameters
    ----------
    machine_memory:
        The paper's ``s``.  Convenience constructors :meth:`for_delta`
        derive it as ``ceil(N^δ)``.
    backend:
        The :class:`~repro.mpc.backends.ExecutionBackend` executing the
        data plane (default: a fresh accounting-only
        :class:`~repro.mpc.backends.LocalBackend`).  A
        :class:`~repro.mpc.backends.ShardedBackend` without an explicit
        ``shard_memory`` is bound to ``machine_memory`` on attach.
    trace:
        Optional plan-stream capture: a path (the trace JSON is written
        by :meth:`close`) or a :class:`~repro.mpc.plan.PlanTrace` to
        record into.  Every :meth:`run_plan` appends the executed
        :class:`~repro.mpc.plan.RoundPlan` plus its outputs;
        :func:`repro.mpc.plan.replay` re-executes the stream against
        any backend.
    """

    def __init__(
        self,
        machine_memory: int,
        backend: "ExecutionBackend | None" = None,
        *,
        trace: "str | PlanTrace | None" = None,
    ):
        self.cost = MPCCostModel(machine_memory)
        self.backend = backend if backend is not None else LocalBackend()
        self.backend.attach(self.cost.machine_memory)
        if trace is None or isinstance(trace, PlanTrace):
            self.trace = trace
        else:
            self.trace = PlanTrace(trace)
        if self.trace is not None:
            self.trace.machine_memory = self.cost.machine_memory
            self.trace.backend = self.backend.name
        self._charges: list[RoundCharge] = []
        self._phase_stack: list[str] = []
        self._peak_items = 0

    # -- constructors --------------------------------------------------------

    @classmethod
    def for_delta(
        cls,
        total_items: int,
        delta: float,
        *,
        polylog_exponent: int = 2,
        backend: "ExecutionBackend | None" = None,
        trace: "str | PlanTrace | None" = None,
    ) -> "MPCEngine":
        """Engine with ``s = ceil(N^δ · log^2 N)`` — the paper's standing
        parameter choice: Theorem 1 runs on machines with
        ``O(n^δ · polylog(n))`` memory.  The polylog factor matters at
        laptop scale: it keeps the per-sort round charge ≈ ``1/δ`` even
        when intermediate data (the layered walk structure) exceeds the
        input size by ``polylog`` factors."""
        total_items = check_positive_int(total_items, "total_items")
        if not 0.0 < delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {delta}")
        polylog = max(1.0, math.log2(max(total_items, 2))) ** polylog_exponent
        memory = max(2, math.ceil(total_items**delta * polylog))
        return cls(memory, backend=backend, trace=trace)

    # -- properties ------------------------------------------------------------

    @property
    def machine_memory(self) -> int:
        """The model's per-machine memory ``s`` (words)."""
        return self.cost.machine_memory

    @property
    def rounds(self) -> int:
        """Total MPC rounds charged so far."""
        return sum(c.rounds for c in self._charges)

    @property
    def charges(self) -> "list[RoundCharge]":
        """A copy of every accounting entry, in charge order."""
        return list(self._charges)

    @property
    def peak_items(self) -> int:
        """Largest total data volume seen (drives the machine count)."""
        return self._peak_items

    @property
    def peak_machines(self) -> int:
        """Machines needed for the peak volume (``ceil(peak_items / s)``)."""
        return self.cost.machines_for(self._peak_items)

    # -- charging ---------------------------------------------------------------

    def _add(self, label: str, kind: str, rounds: int, items: int = 0) -> None:
        rounds = check_nonnegative_int(rounds, "rounds")
        items = check_nonnegative_int(items, "items")
        # The backend enforces fleet capacity for every charged data volume
        # (MachineMemoryError when a sharded fleet is capped) and attributes
        # the exchange barriers it materialised since the previous charge.
        exchanges = self.backend.take_exchange_delta()
        self.backend.ensure_capacity(items)
        self._peak_items = max(self._peak_items, items)
        phase = self._phase_stack[-1] if self._phase_stack else ""
        self._charges.append(
            RoundCharge(
                label=label,
                kind=kind,
                rounds=rounds,
                items=items,
                phase=phase,
                exchanges=exchanges,
            )
        )

    def charge_rounds(self, rounds: int, label: str = "custom") -> None:
        """Charge an explicit number of rounds (e.g. one BFS level)."""
        self._add(label, "explicit", rounds)

    def charge_sort(self, total_items: int, label: str = "sort") -> None:
        """Charge one Goodrich sort of ``total_items`` words."""
        self._add(label, "sort", self.cost.sort_rounds(total_items), total_items)

    def charge_search(self, total_items: int, label: str = "search") -> None:
        """Charge one parallel search over ``total_items`` words."""
        self._add(label, "search", self.cost.search_rounds(total_items), total_items)

    def charge_shuffle(self, total_items: int = 0, label: str = "shuffle") -> None:
        """Charge one all-to-all shuffle (O(1) rounds in the model)."""
        self._add(label, "shuffle", self.cost.shuffle_rounds(), total_items)

    def charge_broadcast(self, total_items: int, label: str = "broadcast") -> None:
        """Charge one broadcast tree over ``total_items`` words."""
        self._add(label, "broadcast", self.cost.broadcast_rounds(total_items), total_items)

    def run_plan(self, plan: "RoundPlan") -> tuple:
        """Execute one recorded round on the data plane; returns its outputs.

        This is the single seam every algorithm-layer round passes
        through: the backend chooses its execution strategy (sequential
        steps, or fused dispatch on the process backend), and when the
        engine was constructed with ``trace=...`` the plan and its
        outputs are appended to the capture.  Round *charges* stay
        separate — callers still charge the engine for the round, and
        the charge absorbs whatever exchanges the plan materialised.
        """
        outputs = self.backend.run_plan(plan)
        if self.trace is not None:
            self.trace.record(plan, outputs)
        return outputs

    def note_data_volume(self, total_items: int) -> None:
        """Record a data volume without charging rounds (memory accounting)."""
        total_items = check_nonnegative_int(total_items, "items")
        self.backend.ensure_capacity(total_items)
        self._peak_items = max(self._peak_items, total_items)

    # -- phases -----------------------------------------------------------------

    @contextmanager
    def phase(self, name: str):
        """Group subsequent charges under ``name`` (nesting joins with '/')."""
        full = f"{self._phase_stack[-1]}/{name}" if self._phase_stack else name
        self._phase_stack.append(full)
        try:
            yield self
        finally:
            self._phase_stack.pop()

    def phase_summaries(self) -> "list[PhaseSummary]":
        """Rounds per top-level phase, in first-charge order."""
        order: list[str] = []
        totals: dict[str, list[int]] = {}
        for charge in self._charges:
            top = charge.phase.split("/")[0] if charge.phase else "(none)"
            if top not in totals:
                totals[top] = [0, 0, 0]
                order.append(top)
            totals[top][0] += charge.rounds
            totals[top][1] += 1
            totals[top][2] += charge.exchanges
        return [
            PhaseSummary(
                name=name,
                rounds=totals[name][0],
                charges=totals[name][1],
                exchanges=totals[name][2],
            )
            for name in order
        ]

    def summary(self) -> dict:
        """Machine-readable run summary (JSON-serializable).

        ``phases`` keeps the historical name → rounds mapping;
        ``phase_breakdown`` carries the full per-phase records (rounds and
        charge counts, in first-charge order) that the benchmark artifacts
        embed; ``backend`` carries the data-plane counters (shard count,
        peak shard load, exchanges, bytes) of the attached backend.
        """
        return {
            "machine_memory": self.machine_memory,
            "rounds": self.rounds,
            "peak_items": self.peak_items,
            "peak_machines": self.peak_machines,
            "phases": {p.name: p.rounds for p in self.phase_summaries()},
            "phase_breakdown": [p.to_json() for p in self.phase_summaries()],
            "backend": self.backend.stats().to_json(),
        }

    def reset(self) -> None:
        """Clear charges, phases, peaks, and the backend's counters."""
        self._charges.clear()
        self._phase_stack.clear()
        self._peak_items = 0
        self.backend.reset()

    def close(self) -> None:
        """Release the backend's external resources (pool, arena segments).

        Engines owning a :class:`~repro.mpc.process_backend.ProcessBackend`
        hold OS resources — worker processes and shared-memory arena
        segments — that should be released deterministically rather than
        left to finalizers.  A trace attached with a path is saved here
        (first, so the capture survives even if the backend teardown
        raises).  Counters stay readable after closing and the
        backend restarts its resources on demand, so a closed engine
        remains usable.  Also available as a context manager::

            with MPCEngine(1024, backend=ProcessBackend()) as engine:
                ...
        """
        try:
            if self.trace is not None and self.trace.path is not None:
                self.trace.save()
        finally:
            # The backend must release its OS resources even when the
            # trace cannot be written (unwritable path, full disk).
            self.backend.close()

    def __enter__(self) -> "MPCEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MPCEngine(s={self.machine_memory}, rounds={self.rounds}, "
            f"machines={self.peak_machines})"
        )


def ensure_engine(engine: "MPCEngine | None" = None) -> MPCEngine:
    """Return ``engine``, or a throwaway engine for a bare stage call.

    The stages' twin of :func:`repro.utils.rng.ensure_rng`: each stage
    calls it once at entry and passes the result down, so every plan,
    phase and charge runs on one path whatever the caller passed.  The
    throwaway runs on a :class:`~repro.mpc.backends.LocalBackend` whose
    one machine holds any input (every charge costs one round); nobody
    reads its counters.
    """
    return engine if engine is not None else MPCEngine(2**62)
