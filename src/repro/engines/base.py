"""The engine contract: interchangeable connectivity algorithms on one IR.

An *engine* is a complete connectivity algorithm — the paper's Theorem 4
pipeline, Liu–Tarjan labeling, graph exponentiation — expressed against
the same three seams every other layer of the stack already uses:

* every communication round is a :class:`~repro.mpc.plan.RoundPlan`
  built with :class:`~repro.mpc.plan.PlanBuilder` and submitted through
  :meth:`~repro.mpc.engine.MPCEngine.run_plan`, so the worker pools
  and ``MPCEngine(trace=...)`` capture/replay apply to a new algorithm
  with zero backend work;
* round *charges* go through the same :class:`~repro.mpc.engine.MPCEngine`
  cost model, so ``result.rounds`` is comparable across engines;
* the result is the same :class:`~repro.core.pipeline.PipelineResult`
  the benches and tests already consume.

Engines register under a short name (:func:`register_engine`) and are
selected by ``mpc_connected_components(..., engine="liu_tarjan")`` or
raced explicitly by the ``e21_engine_race`` benchmark.  The module also
registers the machine-local transforms the non-paper engines need
(``elementwise_min``, ``pack_pair_keys``, ``wedge_keys``) so a captured
trace replays them by name.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import PipelineConfig
from repro.core.pipeline import PipelineResult
from repro.graph.graph import Graph
from repro.mpc.engine import MPCEngine
from repro.mpc.plan import PlanBuilder, RoundPlan, register_transform
from repro.utils.rng import ensure_rng

#: Registry of engine instances by name (engines are stateless values).
ENGINES: "dict[str, ConnectivityEngine]" = {}


class ConnectivityEngine:
    """Base class / protocol for a pluggable connectivity algorithm.

    Subclasses set :attr:`name` and implement :meth:`run`.  Engines must
    be deterministic given ``(graph, rng seed, config)`` and must route
    every backend operation through ``mpc.run_plan`` so all execution
    backends produce bit-identical labels and the plan stream is
    traceable/replayable.  The one op outside plans is the paper
    pipeline's walk sampler,
    :meth:`~repro.mpc.backends.ExecutionBackend.walk`.
    """

    #: Registry key; also the value users pass as ``engine="..."``.
    name: str = "abstract"

    def run(
        self,
        graph: Graph,
        spectral_gap_bound: float,
        *,
        config: "PipelineConfig | None" = None,
        rng=None,
        mpc: "MPCEngine | None" = None,
    ) -> PipelineResult:
        """Compute connected components of ``graph``.

        Parameters
        ----------
        graph:
            Input undirected graph.
        spectral_gap_bound:
            The caller's lower bound on the per-component spectral gap.
            Only the paper engine's round budget depends on it; the
            label-propagation engines accept and ignore it, and the
            portfolio dispatcher reads it as the gap-regime feature.
        config, rng:
            Pipeline tuning constants and randomness (both optional).
        mpc:
            The accounting :class:`~repro.mpc.engine.MPCEngine` to
            charge and execute plans on.  A fresh
            ``MPCEngine.for_delta`` on the local backend is created when
            absent; pass your own to pick the backend or capture a
            trace.

        Returns
        -------
        PipelineResult
            Canonical component labels plus round/phase accounting.
        """
        raise NotImplementedError

    def _ensure(self, graph: Graph, config, rng, mpc):
        """Default ``(config, rng, mpc)`` for a bare :meth:`run` call."""
        config = config or PipelineConfig()
        rng = ensure_rng(rng)
        if mpc is None:
            mpc = MPCEngine.for_delta(max(graph.n + graph.m, 2), config.delta)
        return config, rng, mpc


def register_engine(engine_cls):
    """Class decorator: instantiate and register a connectivity engine.

    The registry maps :attr:`ConnectivityEngine.name` to a singleton
    instance (engines hold no per-run state).  Re-registering a taken
    name raises :class:`ValueError`.
    """
    instance = engine_cls()
    if instance.name in ENGINES:
        raise ValueError(f"engine {instance.name!r} is already registered")
    ENGINES[instance.name] = instance
    return engine_cls


def engine_names() -> "list[str]":
    """Sorted names of every registered engine."""
    return sorted(ENGINES)


def get_engine(name: str) -> ConnectivityEngine:
    """Look up a registered engine by name.

    Raises
    ------
    KeyError
        Unknown engine name (the message lists the registered ones).
    """
    try:
        return ENGINES[name]
    except KeyError:
        raise KeyError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(engine_names())}"
        ) from None


def resolve_engine(spec) -> ConnectivityEngine:
    """Coerce an ``engine=`` argument to a :class:`ConnectivityEngine`.

    Accepts a registered name or an engine instance; anything else is a
    :class:`TypeError` (``MPCEngine`` instances are handled by the
    pipeline front-end before this is called).
    """
    if isinstance(spec, str):
        return get_engine(spec)
    if isinstance(spec, ConnectivityEngine):
        return spec
    raise TypeError(
        f"engine must be a registered name or ConnectivityEngine, "
        f"got {type(spec).__name__}"
    )


# ---------------------------------------------------------------------------
# Shared plan shapes and transforms
# ---------------------------------------------------------------------------


@register_transform("elementwise_min")
def _t_elementwise_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise minimum — merges a label vector with its shortcut."""
    return np.minimum(np.asarray(a), np.asarray(b))


@register_transform("pack_pair_keys")
def _t_pack_pair_keys(edges: np.ndarray, *, k: int) -> np.ndarray:
    """Pack ``(m, 2)`` vertex pairs into sorted ``a * k + b`` keys.

    Self-loops are dropped and endpoints ordered ``a < b``, matching the
    ``contract_keys`` packing so ``unpack_pair_keys`` inverts it.
    """
    pairs = np.asarray(edges).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    idx = np.flatnonzero(u != v)
    a = np.minimum(u[idx], v[idx])
    b = np.maximum(u[idx], v[idx])
    return a * int(k) + b


@register_transform("wedge_keys")
def _t_wedge_keys(sorted_pairs: np.ndarray, *, k: int, cap: int) -> np.ndarray:
    """Capped wedge join: 2-hop pair keys from midpoint-sorted incidences.

    ``sorted_pairs`` is an ``(h, 2)`` array of ``[midpoint, other]``
    incidences globally sorted by midpoint, so each midpoint's
    neighborhood is one contiguous span — the post-sort state in which
    every machine holds whole groups.  Per midpoint the first
    ``cap + 1`` neighbors form each unordered pair once per midpoint
    (span positions ``i < j``; the cap keeps the join quadratic only in
    the cap, the standard sparsification of the exponentiation
    technique).  Pairs of equal neighbors (a multigraph's parallel
    edges) are dropped, and the result is the packed ``a * k + b``
    (``a < b``) key stream feeding a dedup reduce, which sorts it, so
    neither its order nor a pair repeated across midpoints matters.

    One pass, no Python loop: a span of capped size ``g`` gets one row
    per left position ``i < g - 1``, holding its ``g - 1 - i`` right
    partners ``j > i``.
    """
    pairs = np.asarray(sorted_pairs).reshape(-1, 2)
    mid, other = pairs[:, 0], pairs[:, 1]
    starts = np.flatnonzero(np.concatenate(([True], mid[1:] != mid[:-1])))
    sizes = np.diff(np.append(starts, mid.size))
    taken = np.minimum(sizes, int(cap) + 1)
    # Row r of a span sits at position left = start + (r - its first row).
    rows = np.maximum(taken - 1, 0)
    left = np.arange(rows.sum()) + np.repeat(starts - np.cumsum(rows) + rows, rows)
    partners = np.repeat(starts + taken - 1, rows) - left
    # Pair q of a row sits at right = left + 1 + (q - its first pair).
    right = np.arange(partners.sum()) + np.repeat(
        left + 1 - np.cumsum(partners) + partners, partners
    )
    a = np.repeat(other[left], partners)
    b = other[right]
    keys = np.minimum(a, b) * int(k) + np.maximum(a, b)
    return keys[a != b]


def incidence_arrays(edges: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Both orientations of an edge list as read-only ``(send, recv)``:
    incidence ``p`` carries ``send[p]``'s label to ``recv[p]``.

    The arrays are loop-invariant across an engine's label-propagation
    rounds, so a captured trace stores them once (by content digest).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    send = np.concatenate([edges[:, 0], edges[:, 1]])
    recv = np.concatenate([edges[:, 1], edges[:, 0]])
    send.setflags(write=False)
    recv.setflags(write=False)
    return send, recv


def min_label_round_plan(
    name: str, labels: np.ndarray, send: np.ndarray, recv: np.ndarray
) -> RoundPlan:
    """One connect-and-shortcut round as a single plan.

    Three steps: a ``min_label_exchange`` ships every vertex's label
    across its incident edges and folds the minimum (the *connect* step
    of Liu–Tarjan), a ``search`` reads each vertex's parent's label
    (the *parent-pointer shortcut*), and an ``elementwise_min``
    transform merges the two.
    """
    builder = PlanBuilder(name)
    connected, _incoming = builder.min_label_exchange(labels, send, recv)
    shortcut = builder.search(connected, connected)
    merged = builder.transform("elementwise_min", connected, shortcut)
    return builder.build([merged])


def canonicalize_plan(labels: np.ndarray) -> RoundPlan:
    """Machine-local canonicalisation of a final labelling as a plan.

    Pure transform, no backend ops — it costs no rounds but keeps the
    engine's complete output derivation inside the traced plan stream.
    """
    builder = PlanBuilder("engine-canonical")
    canonical = builder.transform("canonical_labels", labels)
    return builder.build([canonical])
