"""Graph exponentiation: O(log D) connectivity (arXiv:1910.05385).

Behnezhad, Dhulipala, Esfandiari, Łącki and Mirrokni reach the optimal
``O(log D)`` round bound by *neighborhood doubling*: alongside a
min-label step, every phase squares the (contracted) graph so each label
can see 2-hop neighbors — reachable distance doubles per phase, with a
per-vertex degree cap keeping the squared graph sparse.

Each phase runs three plans through :meth:`MPCEngine.run_plan`:

1. **connect+shortcut** — the same min-label round the Liu–Tarjan
   engine uses, over the current doubled edge set;
2. **contract** — the reused :func:`repro.core.grow.contract_plan`
   (search → ``contract_keys`` → min-reduce → unpack) drops
   intra-component edges and dedups;
3. **square** — one global ``sort`` by midpoint co-locates every label's
   incidence span, the ``wedge_keys`` transform emits the capped 2-hop
   pair keys machine-locally, each unordered pair once per midpoint, and
   a min-reduce dedups them.

The engine terminates when the contracted graph is empty (no
cross-component edges remain).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.grow import contract_plan
from repro.core.pipeline import PipelineResult
from repro.engines.base import (
    ConnectivityEngine,
    canonicalize_plan,
    incidence_arrays,
    min_label_round_plan,
    register_engine,
)
from repro.graph.graph import Graph
from repro.mpc.plan import PlanBuilder


def _dedup_plan(edges: np.ndarray, k: int):
    """Deduplicate an edge list as one reduce round (packed pair keys)."""
    builder = PlanBuilder("exp-dedup")
    keys = builder.transform("pack_pair_keys", edges, k=k)
    unique, _rep = builder.reduce_by_key(keys, keys, op="min")
    deduped = builder.transform("unpack_pair_keys", unique, k=k)
    return builder.build([deduped])


def _square_plan(edges: np.ndarray, k: int, cap: int):
    """Capped squaring of ``edges`` as one sort + wedge + reduce round."""
    incidences = np.stack(
        [
            np.concatenate([edges[:, 0], edges[:, 1]]),
            np.concatenate([edges[:, 1], edges[:, 0]]),
        ],
        axis=1,
    )
    builder = PlanBuilder("exp-square")
    by_midpoint = builder.sort(
        incidences, order_by=np.ascontiguousarray(incidences[:, 0])
    )
    keys = builder.transform("wedge_keys", by_midpoint, k=k, cap=cap)
    unique, _rep = builder.reduce_by_key(keys, keys, op="min")
    doubled = builder.transform("unpack_pair_keys", unique, k=k)
    return builder.build([doubled])


@register_engine
class ExponentiationEngine(ConnectivityEngine):
    """Neighborhood doubling to ``O(log D)`` min-label rounds."""

    name = "exponentiation"

    def run(
        self,
        graph: Graph,
        spectral_gap_bound: float,
        *,
        config=None,
        rng=None,
        mpc=None,
    ) -> PipelineResult:
        """Square-and-propagate until no cross-component edge remains.

        ``spectral_gap_bound`` and ``rng`` are accepted for
        engine-contract uniformity and ignored: the algorithm is
        deterministic and its round count depends on the component
        diameters, not the spectral gap.
        """
        config, rng, mpc = self._ensure(graph, config, rng, mpc)
        n = graph.n
        labels = np.arange(n, dtype=np.int64)
        if graph.m == 0:
            return PipelineResult(
                labels=labels, rounds=mpc.rounds, engine=mpc,
                walk_length=0, phase_count=0, verify_rounds=0,
            )

        # Input placement (capacity check + trace completeness).
        builder = PlanBuilder("scatter-input")
        mpc.run_plan(builder.build(builder.scatter(graph.edges)))
        mpc.note_data_volume(graph.edges.size)

        cap = max(8, math.ceil(math.sqrt(max(n, 1))))
        max_phases = 2 * max(1, math.ceil(math.log2(max(n, 2)))) + 8
        phases = 0
        with mpc.phase("Exponentiation"):
            (doubled,) = mpc.run_plan(_dedup_plan(graph.edges, n))
            mpc.charge_sort(graph.m, label="input dedup")
            doubled = np.asarray(doubled).reshape(-1, 2)

            for _ in range(max_phases):
                if doubled.shape[0] == 0:
                    break
                send, recv = incidence_arrays(doubled)
                (new_labels,) = mpc.run_plan(
                    min_label_round_plan("exp-connect", labels, send, recv)
                )
                new_labels = np.asarray(new_labels)
                mpc.charge_shuffle(n + int(send.size), label="connect")
                mpc.charge_search(n, label="shortcut")
                phases += 1
                if np.array_equal(new_labels, labels):
                    break
                labels = new_labels

                (contracted, _rep) = mpc.run_plan(contract_plan(labels, doubled))
                mpc.charge_sort(2 * doubled.shape[0], label="contract")
                contracted = np.asarray(contracted).reshape(-1, 2)
                if contracted.shape[0] == 0:
                    break

                (squared,) = mpc.run_plan(_square_plan(contracted, n, cap))
                mpc.charge_sort(2 * contracted.shape[0], label="square sort")
                squared = np.asarray(squared).reshape(-1, 2)
                # The dedup reduce shuffles the *wedge key stream*, not
                # the deduped output: each midpoint span of capped size
                # g emits each unordered pair once per midpoint, at most
                # g*(g-1)/2 keys.  Charging that bound keeps
                # peak_machines honest about the join's materialised
                # volume (the engine tests certify fleet == accounting).
                spans = np.minimum(
                    np.bincount(contracted.reshape(-1), minlength=n), cap + 1
                )
                mpc.charge_shuffle(
                    int((spans * (spans - 1) // 2).sum()), label="square dedup"
                )
                doubled = np.concatenate([contracted, squared], axis=0)
            else:  # pragma: no cover - termination is proven O(log D)
                raise RuntimeError(
                    f"exponentiation did not converge within {max_phases} phases"
                )

            # The loop can stop with label *chains* still unresolved:
            # "no cross-component edge" is a statement about roots, but
            # a vertex may still point at an intermediate label (v → a
            # → root).  Pointer-jump to the roots — O(log chain) search
            # rounds, usually zero because the last connect round
            # already shortcut every chain.
            while not np.array_equal(labels[labels], labels):
                builder = PlanBuilder("exp-resolve")
                jumped = builder.search(labels, labels)
                (labels,) = mpc.run_plan(builder.build(jumped))
                labels = np.asarray(labels)
                mpc.charge_search(n, label="resolve")
            (labels,) = mpc.run_plan(canonicalize_plan(labels))

        return PipelineResult(
            labels=np.asarray(labels),
            rounds=mpc.rounds,
            engine=mpc,
            walk_length=0,
            phase_count=phases,
            verify_rounds=0,
        )
