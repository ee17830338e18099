"""A fixed amount of CPU work, timed beside every answer.

The host's speed drifts by half or more over minutes: other tenants
share its cores and caches, and their load slows this work and the
program alike.  Untraced runs therefore report times in units of this
work's duration ("ref"), measured just before and after each answer,
which stay comparable across runs and hosts.  The work uses no
``repro`` code, so no change to the program can move it.  Its mix
follows the program's:
a stable sort larger than the caches (the backend's sorts and grouped
reductions), a vectorised random-walk step loop (the walk sampler), a
Python dict loop (parent-side bookkeeping), and scipy's connected
components.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph as csgraph


@functools.cache
def _inputs():
    rng = np.random.default_rng(2019)  # fixed: independent of the run's seed
    return (
        rng.integers(0, 1 << 40, size=1_000_000),
        rng.integers(0, 50_000, size=(50_000, 6)),
        rng.integers(0, 32_768, size=(2, 98_304)),
    )


def reference_seconds() -> float:
    """Seconds the reference work takes now."""
    keys, neighbors, (u, v) = _inputs()
    start = time.perf_counter()
    order = np.argsort(keys, kind="stable")
    int(keys[order[::7]].sum())
    rng = np.random.default_rng(7)
    walkers = np.tile(np.arange(50_000), 2)
    for _ in range(12):
        stepped = neighbors[walkers, rng.integers(0, 6, size=walkers.size)]
        walkers = np.where(rng.random(walkers.size) < 0.5, walkers, stepped)
    tally: "dict[int, int]" = {}
    for i in range(200_000):
        tally[i & 1023] = tally.get(i & 1023, 0) + i
    adjacency = scipy.sparse.coo_matrix(
        (np.ones(u.size), (u, v)), shape=(32_768, 32_768)
    ).tocsr()
    csgraph.connected_components(adjacency, directed=False)
    return time.perf_counter() - start
