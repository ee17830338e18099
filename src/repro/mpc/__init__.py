"""MPC simulator: round accounting engine and pluggable execution backends.

Four execution backends ship (see :mod:`repro.mpc.backends`): the
accounting-only :class:`LocalBackend`, the enforced serial
:class:`ShardedBackend`, the true-parallel :class:`ProcessBackend`
(:mod:`repro.mpc.process_backend`), which runs the block kernels of
:mod:`repro.mpc.kernels` on a pool of OS worker processes over shared
memory, and the wire-protocol :class:`RpcBackend` (:mod:`repro.mpc.rpc`),
which runs them across length-prefixed socket frames — the substrate of
the long-lived connectivity service in :mod:`repro.service`.  All four
share one set of serial compute hooks, on :class:`ExecutionBackend`, and
give bit-identical labels, rounds and model counters.  Select one
with ``mpc_connected_components(..., backend="local" | "sharded" |
"process" | "rpc")`` or construct it directly and pass it to
:class:`MPCEngine`.

Every backend speaks the round-plan IR of :mod:`repro.mpc.plan`: the
algorithm layer records each MPC round's op sequence in a
:class:`RoundPlan` (via :class:`PlanBuilder`) and submits it once
through ``engine.run_plan``, and ``MPCEngine(trace=...)`` +
:func:`repro.mpc.plan.replay` capture and re-execute the plan stream on
any backend.
"""

from repro.mpc.arena import ArenaLease, ArenaLeaseError, ShmArena
from repro.mpc.backends import (
    BACKENDS,
    BackendStats,
    ExecutionBackend,
    LocalBackend,
    ShardedBackend,
    backend_names,
    make_backend,
)
from repro.mpc.cost import MPCCostModel
from repro.mpc.engine import MPCEngine, PhaseSummary, RoundCharge
from repro.mpc.machine import MachineMemoryError
from repro.mpc.plan import (
    OpStep,
    PlanBuilder,
    PlanError,
    PlanTrace,
    ReplayResult,
    RoundPlan,
    SlotRef,
    content_digest,
    graph_digest,
    register_transform,
    replay,
)
from repro.mpc.process_backend import (
    ProcessBackend,
    default_worker_count,
    default_workers,
    usable_cpu_count,
)
from repro.mpc.rpc import (
    RpcBackend,
    RpcError,
    RpcProtocolError,
    RpcTimeoutError,
    RpcWorkerError,
)

__all__ = [
    "MPCCostModel",
    "MPCEngine",
    "RoundCharge",
    "PhaseSummary",
    "MachineMemoryError",
    "BACKENDS",
    "BackendStats",
    "ExecutionBackend",
    "LocalBackend",
    "OpStep",
    "PlanBuilder",
    "PlanError",
    "PlanTrace",
    "ProcessBackend",
    "ReplayResult",
    "RoundPlan",
    "RpcBackend",
    "RpcError",
    "RpcProtocolError",
    "RpcTimeoutError",
    "RpcWorkerError",
    "SlotRef",
    "content_digest",
    "graph_digest",
    "register_transform",
    "replay",
    "ArenaLease",
    "ArenaLeaseError",
    "ShmArena",
    "ShardedBackend",
    "backend_names",
    "default_worker_count",
    "default_workers",
    "make_backend",
    "usable_cpu_count",
]
