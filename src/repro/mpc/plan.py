"""The round-plan IR: explicit per-round op batches for every backend.

Before this module existed, the algorithm layer issued backend
operations *eagerly*, one call at a time, and only
:class:`~repro.mpc.process_backend.ProcessBackend` knew (privately, in
its ``_dispatch``) how to fuse kernel steps into a single barrier.  The
paper's headline bound is about *rounds*, so the unit the layers
exchange should be the round, not the op: a :class:`RoundPlan` is the
serializable description of everything one MPC round asks of the data
plane — backend operations plus the machine-local transforms between
them — built by the algorithm layer through a :class:`PlanBuilder` and
submitted once.

Three things fall out of making the plan a first-class value:

* **Fusion becomes a backend decision.**  Every backend executes plans
  through :meth:`~repro.mpc.backends.ExecutionBackend.run_plan`
  (default: sequential step execution, exactly the eager behaviour).
  The process backend overrides the *analysis* only: a step whose
  output feeds a later backend op in the same plan is pinned to the
  serial kernels (:func:`parent_local_steps`), because its result must
  be materialised in the parent anyway before the next dispatch can be
  planned — so the contract stage's search→reduce pair costs one
  dispatch barrier instead of two, with bit-identical results and
  model counters (all accounting stays in the public operations).
* **Rounds become traceable.**  :class:`PlanTrace` records every plan
  an engine executed — step graph, input arrays, and outputs — and
  serializes the stream to JSON (:meth:`PlanTrace.save`).
* **Rounds become replayable.**  :func:`replay` re-executes a captured
  stream against *any* backend and verifies the outputs bit-for-bit —
  the differential seam every backend, the wire-protocol
  :class:`~repro.mpc.rpc.RpcBackend` included, is certified through.

Transforms — the machine-local glue between backend ops (computing
contraction keys from endpoint labels, canonicalising a relabelling) —
are *named, registered functions* (:func:`register_transform`), never
lambdas, so a plan remains serializable and a replayed plan runs the
same code the capture ran.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

#: JSON schema version of trace files written by :class:`PlanTrace`.
TRACE_SCHEMA = 1

#: Backend operations a plan step may invoke, mapped to the number of
#: values the operation returns (``reduce_by_key`` and
#: ``min_label_exchange`` return pairs).
BACKEND_OPS = {
    "scatter": 1,
    "sort": 1,
    "search": 1,
    "reduce_by_key": 2,
    "min_label_exchange": 2,
    "csr_min_label": 2,
}

#: Registry of named machine-local transforms (see
#: :func:`register_transform`).
TRANSFORMS: "dict[str, callable]" = {}

#: Output arity per registered transform name (filled by
#: :func:`register_transform`).
_TRANSFORM_ARITY: "dict[str, int]" = {}


class PlanError(ValueError):
    """A malformed plan: unknown op/transform, dangling slot, bad arity."""


def register_transform(name: str, *, n_out: int = 1):
    """Decorator: register a pure machine-local transform under ``name``.

    Transforms are the glue between backend operations inside one plan:
    pure functions of numpy arrays (plus JSON-scalar keyword
    parameters) that cost no rounds — they model computation a machine
    performs on data it already holds.  They must be registered by name
    so plans stay serializable and a replayed trace runs exactly the
    code the capture ran.  ``n_out`` declares how many arrays the
    function returns (as a tuple when more than one); it becomes the
    step's output arity in every plan that uses the transform.
    Registering a taken name raises :class:`ValueError`.
    """
    if n_out < 1:
        raise ValueError(f"n_out must be >= 1, got {n_out}")

    def decorator(fn):
        if name in TRANSFORMS:
            raise ValueError(f"transform {name!r} is already registered")
        TRANSFORMS[name] = fn
        _TRANSFORM_ARITY[name] = int(n_out)
        return fn

    return decorator


@dataclass(frozen=True)
class SlotRef:
    """A symbolic reference to one named value slot inside a plan."""

    name: str


@dataclass(frozen=True)
class OpStep:
    """One step of a :class:`RoundPlan`.

    ``op`` is either a backend operation name (a key of
    :data:`BACKEND_OPS`) or the literal ``"transform"``, in which case
    ``params["name"]`` selects the registered transform.  ``inputs``
    and ``outputs`` are slot names in the plan's environment; ``params``
    holds JSON-scalar keyword arguments (e.g. ``{"op": "min"}`` for a
    reduce) so every step round-trips through the trace format.
    """

    op: str
    inputs: "tuple[str, ...]"
    outputs: "tuple[str, ...]"
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """Plain-dict form for the trace file."""
        return {
            "op": self.op,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "params": dict(self.params),
        }


@dataclass(frozen=True)
class RoundPlan:
    """Everything one MPC round asks of the data plane, as a value.

    ``bindings`` maps input slot names to the concrete arrays the round
    operates on; ``steps`` is the op/transform sequence; ``outputs``
    names the slots whose values the round hands back to the algorithm
    layer.  Plans are immutable: build them with :class:`PlanBuilder`
    and execute them with ``backend.run_plan(plan)`` (or
    ``engine.run_plan(plan)``, which also feeds the engine's trace).
    """

    name: str
    steps: "tuple[OpStep, ...]"
    bindings: "dict[str, np.ndarray]"
    outputs: "tuple[str, ...]"

    def backend_ops(self) -> "list[str]":
        """The backend operation names this plan invokes, in step order."""
        return [s.op for s in self.steps if s.op != "transform"]

    def validate(self) -> "RoundPlan":
        """Check ops, transforms, arities, and slot dataflow; returns self.

        Raises
        ------
        PlanError
            Unknown op or transform, wrong output arity, a step reading
            a slot no binding or earlier step defines, or a plan output
            that nothing defines.
        """
        defined = set(self.bindings)
        for step in self.steps:
            if step.op == "transform":
                tname = step.params.get("name")
                if tname not in TRANSFORMS:
                    raise PlanError(f"unknown transform {tname!r}")
                if len(step.outputs) != _TRANSFORM_ARITY[tname]:
                    raise PlanError(
                        f"transform {tname!r} returns "
                        f"{_TRANSFORM_ARITY[tname]} values, step declares "
                        f"{len(step.outputs)} outputs"
                    )
            elif step.op not in BACKEND_OPS:
                raise PlanError(f"unknown backend op {step.op!r}")
            elif len(step.outputs) != BACKEND_OPS[step.op]:
                raise PlanError(
                    f"{step.op} returns {BACKEND_OPS[step.op]} values, "
                    f"step declares {len(step.outputs)} outputs"
                )
            missing = [s for s in step.inputs if s not in defined]
            if missing:
                raise PlanError(
                    f"step {step.op!r} reads undefined slots {missing}"
                )
            defined.update(step.outputs)
        dangling = [s for s in self.outputs if s not in defined]
        if dangling:
            raise PlanError(f"plan outputs {dangling} are never defined")
        return self


class PlanBuilder:
    """Records one round's op sequence and builds the :class:`RoundPlan`.

    Each op method accepts concrete arrays (bound as plan inputs) or
    :class:`SlotRef`\\ s produced by earlier steps, and returns the
    :class:`SlotRef`\\ (s) for its outputs — so recording a round reads
    like the eager code it replaces::

        builder = PlanBuilder("contract")
        ep = builder.search(labels, batch.ravel())
        keys, values = builder.transform("contract_keys", ep, k=k)
        unique, rep = builder.reduce_by_key(keys, values, op="min")
        edges = builder.transform("unpack_pair_keys", unique, k=k)
        plan = builder.build([edges, rep])
    """

    def __init__(self, name: str):
        self.name = str(name)
        self._steps: "list[OpStep]" = []
        self._bindings: "dict[str, np.ndarray]" = {}
        self._counter = 0

    # -- slots ---------------------------------------------------------------

    def _slot(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def bind(self, array) -> SlotRef:
        """Bind a concrete array as a plan input; returns its slot ref.

        The array object itself is stored (not copied), so read-only
        arrays keep their identity and an arena-backed backend can
        still pin them across plans.
        """
        ref = SlotRef(self._slot("in"))
        self._bindings[ref.name] = array
        return ref

    def _ref(self, value) -> SlotRef:
        return value if isinstance(value, SlotRef) else self.bind(value)

    def _add(self, op, inputs, params, n_out, prefix) -> "tuple[SlotRef, ...]":
        refs = tuple(self._ref(v) for v in inputs)
        outs = tuple(SlotRef(self._slot(prefix)) for _ in range(n_out))
        self._steps.append(
            OpStep(
                op=op,
                inputs=tuple(r.name for r in refs),
                outputs=tuple(o.name for o in outs),
                params=dict(params),
            )
        )
        return outs

    # -- backend ops ---------------------------------------------------------

    def scatter(self, values) -> SlotRef:
        """Record a ``scatter`` step; returns the placed handle's slot."""
        return self._add("scatter", (values,), {}, 1, "scattered")[0]

    def sort(self, values, order_by=None) -> SlotRef:
        """Record a global stable ``sort`` (by ``order_by`` when given)."""
        inputs = (values,) if order_by is None else (values, order_by)
        return self._add("sort", inputs, {}, 1, "sorted")[0]

    def search(self, table, queries) -> SlotRef:
        """Record a parallel ``search`` (``table[queries]``)."""
        return self._add("search", (table, queries), {}, 1, "found")[0]

    def reduce_by_key(self, keys, values, op: str = "min"):
        """Record a ``reduce_by_key``; returns ``(unique_keys, reduced)``."""
        return self._add(
            "reduce_by_key", (keys, values), {"op": op}, 2, "reduced"
        )

    def min_label_exchange(self, labels, send, recv):
        """Record one min-label level; returns ``(new_labels, incoming)``."""
        return self._add(
            "min_label_exchange", (labels, send, recv), {}, 2, "labels"
        )

    def csr_min_label(self, labels, indptr, indices):
        """Record one CSR-gather min-label level; returns
        ``(new_labels, incoming)``.

        The indptr-sliced counterpart of :meth:`min_label_exchange`:
        binding the frozen CSR arrays keeps their identity, so an
        arena-backed backend pins them across every level of a broadcast
        loop and the RPC backend ships them once per content digest.
        """
        return self._add(
            "csr_min_label", (labels, indptr, indices), {}, 2, "labels"
        )

    # -- transforms ----------------------------------------------------------

    def transform(self, name: str, *inputs, **params):
        """Record a registered machine-local transform step.

        ``name`` must be registered (see :func:`register_transform`);
        ``params`` are JSON-scalar keyword arguments.  Returns one
        :class:`SlotRef` when the transform yields a single array, or a
        tuple of refs matching :func:`transform_arity`.
        """
        n_out = transform_arity(name)
        outs = self._add(
            "transform", inputs, {"name": name, **params}, n_out, "t"
        )
        return outs if n_out > 1 else outs[0]

    # -- build ---------------------------------------------------------------

    def build(self, outputs) -> RoundPlan:
        """Freeze the recorded steps into a validated :class:`RoundPlan`.

        ``outputs`` is one :class:`SlotRef` or a sequence of them — the
        values the round returns to the algorithm layer.
        """
        if isinstance(outputs, SlotRef):
            outputs = (outputs,)
        return RoundPlan(
            name=self.name,
            steps=tuple(self._steps),
            bindings=dict(self._bindings),
            outputs=tuple(ref.name for ref in outputs),
        ).validate()


def transform_arity(name: str) -> int:
    """Number of arrays the registered transform ``name`` returns
    (declared via ``register_transform(..., n_out=)``).

    Raises :class:`PlanError` for unregistered names.
    """
    if name not in TRANSFORMS:
        raise PlanError(f"unknown transform {name!r}")
    return _TRANSFORM_ARITY[name]


# ---------------------------------------------------------------------------
# Built-in transforms (the machine-local glue the pipeline rounds use)
# ---------------------------------------------------------------------------


@register_transform("contract_keys", n_out=2)
def _t_contract_keys(endpoint_labels: np.ndarray, *, k: int):
    """Contraction dedup keys from flat endpoint labels (Definition 2).

    ``endpoint_labels`` is the flat ``(2m,)`` result of searching the
    label table with ``batch.ravel()``; returns ``(keys, values)`` for
    the min-reduce: packed ``a * k + b`` pair keys of the cross-component
    edges and their original batch indices.
    """
    pairs = np.asarray(endpoint_labels).reshape(-1, 2)
    cu, cv = pairs[:, 0], pairs[:, 1]
    idx = np.flatnonzero(cu != cv)
    a = np.minimum(cu[idx], cv[idx])
    b = np.maximum(cu[idx], cv[idx])
    return a * int(k) + b, idx


@register_transform("unpack_pair_keys")
def _t_unpack_pair_keys(keys: np.ndarray, *, k: int) -> np.ndarray:
    """Inverse of the ``contract_keys`` packing: ``(m, 2)`` label pairs."""
    keys = np.asarray(keys)
    return np.stack([keys // int(k), keys % int(k)], axis=1)


@register_transform("canonical_labels")
def _t_canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Canonicalise a labelling (first-occurrence order, 0..k-1)."""
    from repro.graph.components import canonical_labels

    return canonical_labels(labels)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_plan_steps(backend, plan: RoundPlan, serial_steps=frozenset()):
    """Execute ``plan`` on ``backend`` step by step; returns its outputs.

    This is the shared sequential executor behind every backend's
    :meth:`~repro.mpc.backends.ExecutionBackend.run_plan`: backend-op
    steps call the backend's *public* operations (so capacity
    enforcement and every exchange/byte counter behave exactly as the
    eager code did), transform steps call the registered function
    in-process.  ``serial_steps`` is a set of step indices the backend
    wants pinned to its serial kernels (see
    :func:`parent_local_steps`); each runs inside the backend's
    ``_serial_kernels()`` scope.

    Raises
    ------
    PlanError
        The plan is malformed (also raised by ``plan.validate()``).
    """
    plan.validate()
    env: dict = dict(plan.bindings)
    for index, step in enumerate(plan.steps):
        args = [env[name] for name in step.inputs]
        if step.op == "transform":
            params = {k: v for k, v in step.params.items() if k != "name"}
            result = TRANSFORMS[step.params["name"]](*args, **params)
        else:
            op = getattr(backend, step.op)
            scope = (
                backend._serial_kernels()
                if index in serial_steps
                else contextlib.nullcontext()
            )
            with scope:
                result = op(*args, **step.params)
        values = result if isinstance(result, tuple) else (result,)
        if len(values) != len(step.outputs):
            raise PlanError(
                f"step {step.op!r} produced {len(values)} values for "
                f"{len(step.outputs)} declared outputs"
            )
        env.update(zip(step.outputs, values))
    return tuple(env[name] for name in plan.outputs)


def parent_local_steps(plan: RoundPlan) -> frozenset:
    """Backend-op steps a fusing executor should run on serial kernels.

    A backend op whose output feeds a *later backend op* in the same
    plan (directly or through any chain of transforms) must be
    materialised in the parent before that later dispatch can be
    planned — its shared-memory round-trip buys nothing, so a fusing
    backend executes it serially and saves the barrier.  This is the
    analysis that fuses the contract stage's search→reduce pair into
    one dispatch.  Ops whose outputs only feed transforms or the plan's
    outputs keep their parallel dispatch.

    Returns the set of step indices to pin to serial kernels.
    """
    pinned = set()
    for i, step in enumerate(plan.steps):
        if step.op == "transform":
            continue
        frontier = set(step.outputs)
        for j in range(i + 1, len(plan.steps)):
            later = plan.steps[j]
            if not frontier.intersection(later.inputs):
                continue
            if later.op != "transform":
                pinned.add(i)
                break
            frontier.update(later.outputs)
    return frozenset(pinned)


# ---------------------------------------------------------------------------
# Trace capture
# ---------------------------------------------------------------------------


def _encode_array(array: np.ndarray) -> dict:
    """JSON-able encoding of one array (dtype + shape + base64 payload)."""
    array = np.ascontiguousarray(array)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(doc: dict) -> np.ndarray:
    """Inverse of :func:`_encode_array`."""
    raw = base64.b64decode(doc["data"].encode("ascii"))
    return np.frombuffer(raw, dtype=np.dtype(doc["dtype"])).reshape(
        doc["shape"]
    ).copy()


def content_digest(array) -> str:
    """Content digest of one array: dtype + shape + raw bytes, truncated.

    This is the identity every array-dedup layer shares: trace files
    store each distinct array once under its digest, the RPC backend
    ships an array to a worker only the first time a digest appears
    (:mod:`repro.mpc.rpc`), and the connectivity service keys its
    label cache by the digest of the resident edge array
    (:func:`graph_digest`).  Two arrays collide iff they are
    bit-identical in dtype, shape, and payload.
    """
    array = np.asarray(array)
    if array.ndim:  # ascontiguousarray would flatten a 0-d to (1,)
        array = np.ascontiguousarray(array)
    h = hashlib.sha256()
    h.update(array.dtype.str.encode())
    h.update(repr(array.shape).encode())
    h.update(array.tobytes())
    return h.hexdigest()[:24]


def graph_digest(n: int, edges) -> str:
    """Cache key for one concrete graph: vertex count + edge-array digest.

    The key is exact, not canonical: it hashes the edge array as given
    (order and multiplicity included), because every downstream compute
    — the pipeline's batches, the RNG consumption, the resulting label
    array — is a function of that exact array.  Two graphs share a key
    iff a cached result for one is bit-valid for the other.
    """
    edges = np.ascontiguousarray(np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    return f"g{int(n)}-{content_digest(edges)}"


class PlanTrace:
    """Recorder for the plan stream one engine executes.

    Attach via ``MPCEngine(..., trace=path)`` (the engine records every
    ``run_plan`` and saves on ``close()``), or construct directly and
    call :meth:`record` yourself.  Arrays are stored once per content
    digest, so the loop-invariant incidence arrays of the broadcast
    stage do not bloat the file.  ``machine_memory`` and ``backend``
    are stamped by the engine so :func:`replay` can reconstruct an
    equivalent fleet (identical shard counts ⇒ identical exchange and
    byte counters).
    """

    def __init__(self, path: "str | pathlib.Path | None" = None):
        self.path = pathlib.Path(path) if path is not None else None
        self.machine_memory: "int | None" = None
        self.backend: "str | None" = None
        self.entries: "list[dict]" = []
        self._arrays: "dict[str, dict]" = {}

    def __len__(self) -> int:
        return len(self.entries)

    def _intern(self, value) -> str:
        digest = content_digest(value)
        if digest not in self._arrays:
            self._arrays[digest] = _encode_array(value)
        return digest

    def record(self, plan: RoundPlan, outputs) -> None:
        """Append one executed plan and the outputs it produced."""
        self.entries.append(
            {
                "name": plan.name,
                "steps": [s.to_json() for s in plan.steps],
                "bindings": {
                    slot: self._intern(arr)
                    for slot, arr in plan.bindings.items()
                },
                "outputs": list(plan.outputs),
                "results": [self._intern(v) for v in outputs],
            }
        )

    def to_json(self) -> dict:
        """The full trace document (see :data:`TRACE_SCHEMA`)."""
        return {
            "schema": TRACE_SCHEMA,
            "machine_memory": self.machine_memory,
            "backend": self.backend,
            "arrays": dict(self._arrays),
            "plans": list(self.entries),
        }

    def save(self, path: "str | pathlib.Path | None" = None) -> pathlib.Path:
        """Write the trace JSON to ``path`` (default: the attach path).

        Raises
        ------
        ValueError
            No path was given here or at construction.
        """
        target = pathlib.Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("PlanTrace has no path; pass one to save()")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_json()) + "\n")
        return target


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a captured plan stream on a backend.

    ``outputs`` holds each replayed plan's output tuple (in stream
    order), ``recorded`` the outputs the capture stored, ``stats`` the
    replay backend's counter snapshot, and ``backend_name`` which
    backend executed the replay.  ``mismatches`` lists
    ``"plan-index/slot"`` strings for outputs that differed from the
    capture — empty on a faithful replay.
    """

    outputs: "list[tuple]"
    recorded: "list[tuple]"
    stats: object
    backend_name: str
    mismatches: "list[str]"

    @property
    def ok(self) -> bool:
        """True iff every replayed output matched the capture bit-for-bit."""
        return not self.mismatches


def load_trace(path: "str | pathlib.Path") -> dict:
    """Load and schema-check a trace file written by :class:`PlanTrace`.

    Raises
    ------
    ValueError
        Unsupported schema version or missing sections.
    """
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"unsupported trace schema {doc.get('schema')!r} "
            f"(expected {TRACE_SCHEMA})"
        )
    for key in ("arrays", "plans"):
        if key not in doc:
            raise ValueError(f"trace file missing {key!r} section")
    return doc


def _plan_from_json(entry: dict, arrays: "dict[str, np.ndarray]") -> RoundPlan:
    """Rebuild one RoundPlan from a trace entry + decoded array table."""
    return RoundPlan(
        name=entry["name"],
        steps=tuple(
            OpStep(
                op=s["op"],
                inputs=tuple(s["inputs"]),
                outputs=tuple(s["outputs"]),
                params=dict(s["params"]),
            )
            for s in entry["steps"]
        ),
        bindings={
            slot: arrays[digest] for slot, digest in entry["bindings"].items()
        },
        outputs=tuple(entry["outputs"]),
    )


def replay(
    path: "str | pathlib.Path",
    backend=None,
    *,
    verify: bool = True,
) -> ReplayResult:
    """Re-execute a captured plan stream against ``backend``.

    Parameters
    ----------
    path:
        A trace file written by :class:`PlanTrace` / ``MPCEngine(trace=…)``.
    backend:
        Backend name, :class:`~repro.mpc.backends.ExecutionBackend`
        instance, or ``None`` to rebuild the backend the capture ran on.
        Named backends are constructed fresh, attached to the trace's
        ``machine_memory`` (so sharded fleets reproduce the captured
        exchange/byte counters exactly), and closed before returning;
        instances stay the caller's to manage.
    verify:
        When true (default), raise :class:`ValueError` on the first
        plan whose outputs differ bit-for-bit from the capture.  When
        false, differences are collected in ``ReplayResult.mismatches``.

    Returns
    -------
    ReplayResult
        Replayed outputs, recorded outputs, and the replay backend's
        counter snapshot.
    """
    from repro.mpc.backends import ExecutionBackend, make_backend

    doc = load_trace(path)
    arrays = {d: _decode_array(enc) for d, enc in doc["arrays"].items()}
    owns = not isinstance(backend, ExecutionBackend)
    resolved = make_backend(backend if backend is not None else doc["backend"])
    if resolved is None:  # trace predates backend stamping
        raise ValueError("trace names no backend; pass one explicitly")
    if doc.get("machine_memory"):
        resolved.attach(int(doc["machine_memory"]))
    outputs: "list[tuple]" = []
    recorded: "list[tuple]" = []
    mismatches: "list[str]" = []
    try:
        for index, entry in enumerate(doc["plans"]):
            plan = _plan_from_json(entry, arrays)
            replayed = resolved.run_plan(plan)
            expected = tuple(arrays[d] for d in entry["results"])
            outputs.append(replayed)
            recorded.append(expected)
            for slot, got, want in zip(plan.outputs, replayed, expected):
                if not np.array_equal(got, want):
                    label = f"{index}:{plan.name}/{slot}"
                    if verify:
                        raise ValueError(
                            f"replay diverged from capture at plan {label}"
                        )
                    mismatches.append(label)
        stats = resolved.stats()
    finally:
        if owns:
            resolved.close()
    return ReplayResult(
        outputs=outputs,
        recorded=recorded,
        stats=stats,
        backend_name=resolved.name,
        mismatches=mismatches,
    )

