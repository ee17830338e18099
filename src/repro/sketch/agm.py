"""The AGM graph-connectivity sketch (Ahn–Guha–McGregor; Proposition 8.1).

Every vertex ``u`` summarises its incidence vector — ``+1`` on edge
``(u, v)`` with ``u < v``, ``-1`` with ``u > v`` — into an L0-sampling
sketch of ``O(log³ n)`` bits.  Sketches are *linear*, so the sum of the
sketches of a vertex set ``S`` sketches the incidence vector of ``S``, in
which internal edges cancel and exactly the cut edges ``∂S`` survive.  A
coordinator can therefore run Borůvka purely on sketch sums: each round it
samples one cut edge per current component and merges; ``O(log n)`` rounds
with a *fresh* sketch per round (to keep samples independent of earlier
merges) find the components w.h.p.  One extra fresh sketch is reserved as
the *verification round*: after the merge rounds it re-checks quiescence
without ever having been consumed by a merge, preserving independence.

Linearity also makes the sketch a *streaming* structure: an edge
insert/delete stream is just more signed incidence updates
(:meth:`AGMSketch.update_edges` with weight ``-1`` for a delete), which
is what :mod:`repro.streaming` builds on.

Implementation notes: every counter of a sketch lives in one int64 block
of shape ``(rounds, 3, n, levels * rows * cols)`` — per Borůvka round,
the totals, moments and fingerprint planes of every vertex — so building
from an edge array is one vectorised scatter.  A sketch split by owner
vertex (:class:`~repro.sketch.sharded.ShardedAGMSketch`) is vertex-range
blocks of the same layout, written by the same kernel
(:func:`sketch_update_partial`).  Decoding reads such ``(vlo, block)``
partials in place — an :class:`AGMSketch` is the one-partial case — and
sums a round by component label with one sparse one-hot product per
partial, never laying the blocks end to end.  Fingerprint powers
``r^i mod p`` come from two length-``n`` tables per round
(:func:`_power_tables`).  The shared hash seeds are the "polylog(n)
shared random bits" of Prop. 8.1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graph.components import canonical_labels
from repro.graph.graph import Graph
from repro.sketch.hashing import MERSENNE_P, KWiseHash
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int


def _powers_of(base: int, length: int) -> np.ndarray:
    """``base^j mod p`` for ``j`` in ``[0, length)`` as int64, filled by
    doubling: each pass multiplies the filled prefix by one power."""
    table = np.ones(length, dtype=np.int64)
    filled = 1
    while filled < length:
        step = min(filled, length - filled)
        table[filled : filled + step] = (
            table[:step] * pow(base, filled, MERSENNE_P) % MERSENNE_P
        )
        filled += step
    return table


@functools.lru_cache(maxsize=64)
def _power_tables(base: int, n: int) -> "tuple[np.ndarray, np.ndarray]":
    """The two length-``n`` fingerprint power tables of one round.

    ``high[j] = r^(n·j)`` and ``low[j] = r^j`` (mod p), so an edge id
    ``i < n²`` has ``r^i = high[i // n] · low[i mod n] (mod p)``
    (:func:`_fingerprint_powers`).  Both factors are below p = 2³¹ − 1,
    so their product fits in 64 bits.

    A sketch's bases never change, yet every ingest batch and every
    decode reads each round's tables, so they are cached per
    ``(base, n)`` (64 entries hold a few sketches' rounds) and returned
    read-only: every caller shares them.
    """
    tables = (_powers_of(pow(base, n, MERSENNE_P), n), _powers_of(base, n))
    for table in tables:
        table.setflags(write=False)
    return tables


def _fingerprint_powers(
    base: int, n: int, quotient: np.ndarray, remainder: np.ndarray
) -> np.ndarray:
    """``base^i mod p`` for ids ``i = quotient·n + remainder``, looked up
    in the round's two :func:`_power_tables`."""
    high, low = _power_tables(base, n)
    return high[quotient] * low[remainder] % MERSENNE_P


def _scatter_edge_updates(
    flat_totals: np.ndarray,
    flat_moments: np.ndarray,
    flat_fingers: np.ndarray,
    owners: np.ndarray,
    ids: np.ndarray,
    signed: np.ndarray,
    finger_contrib: np.ndarray,
    depth: np.ndarray,
    row_hashes,
    levels: int,
    rows: int,
    cols: int,
) -> None:
    """One fused ``np.add.at`` pass per counter array.

    Every incidence update lands on levels ``0..depth`` of every hash
    row, so the (update, level, row) triples expand into a single flat
    index array and each counter takes exactly one scatter; the
    fingerprint cells it touched are then reduced mod p (the others
    already are).  int64
    addition wraps with C semantics (commutative + associative), so the
    result is bit-identical to any per-level/per-row scatter order over
    the same contribution multiset — which is also why blocks of
    disjoint update sets sum to the whole stream's block exactly.
    """
    counts = depth.astype(np.int64) + 1
    m = ids.shape[0]
    rep = np.repeat(np.arange(m, dtype=np.int64), counts)
    offsets = np.cumsum(counts) - counts
    lvl = np.arange(rep.shape[0], dtype=np.int64) - offsets[rep]
    col = np.stack(
        [
            (hasher.values(ids) % np.uint64(cols)).astype(np.int64)
            for hasher in row_hashes
        ]
    )
    base = owners[rep] * (levels * rows * cols) + lvl * (rows * cols)
    row_offsets = np.arange(rows, dtype=np.int64) * cols
    flat_index = (base[:, None] + row_offsets[None, :] + col[:, rep].T).reshape(-1)
    np.add.at(flat_totals, flat_index, np.repeat(signed[rep], rows))
    np.add.at(flat_moments, flat_index, np.repeat((signed * ids)[rep], rows))
    np.add.at(flat_fingers, flat_index, np.repeat(finger_contrib[rep], rows))
    flat_fingers[flat_index] %= MERSENNE_P


def _hash_from_coefficients(coefficients: np.ndarray) -> KWiseHash:
    """Reconstitute a :class:`KWiseHash` from its coefficient words (the
    wire/worker-side inverse of shipping ``hash.coefficients``)."""
    hasher = KWiseHash.__new__(KWiseHash)
    hasher.k = int(coefficients.shape[0])
    hasher.coefficients = np.asarray(coefficients, dtype=np.uint64)
    return hasher


def sketch_update_partial(
    data: np.ndarray,
    edges: np.ndarray,
    weights: np.ndarray,
    *,
    vlo: int,
    vhi: int,
    n: int,
    levels: int,
    cols: int,
    level_coeffs: np.ndarray,
    row_coeffs: np.ndarray,
    bases: np.ndarray,
) -> int:
    """Scatter one update batch into one counter block, in place.

    ``data`` has shape ``(rounds, 3, vhi - vlo, levels * rows * cols)``
    — all round sketches' (totals, moments, fingers) planes for the
    owner range ``[vlo, vhi)``: a whole :class:`AGMSketch` block for
    ``[0, n)``, or one shard partial of a
    :class:`~repro.sketch.sharded.ShardedAGMSketch`.  The hash state
    arrives as plain arrays (``level_coeffs``: ``(rounds, 2)`` uint64,
    ``row_coeffs``: ``(rounds, rows, 2)`` uint64, ``bases``:
    ``(rounds,)`` int64) so the same kernel runs in-process, in
    process-pool workers, and in rpc wire workers.  Fingerprints enter
    and leave reduced mod p.  Returns the number of incidence updates applied
    (those whose owner falls in the range); bounds/shape validation is
    the caller's job.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.int64)
    if edges.size == 0:
        return 0
    u = edges[:, 0]
    v = edges[:, 1]
    keep = (u != v) & (weights != 0)
    if not keep.any():
        return 0
    u, v, weights = u[keep], v[keep], weights[keep]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    edge_ids = lo * n + hi
    # Two incidence updates per edge: +w at the smaller endpoint's
    # sketch, -w at the larger's.
    owners = np.concatenate([lo, hi])
    ids = np.concatenate([edge_ids, edge_ids])
    signed = np.concatenate([weights, -weights])
    in_shard = (owners >= vlo) & (owners < vhi)
    if not in_shard.any():
        return 0
    owners = owners[in_shard] - vlo
    ids = ids[in_shard]
    signed = signed[in_shard]
    quotient, remainder = np.divmod(ids, n)
    signed_mod = signed % MERSENNE_P

    rounds = data.shape[0]
    rows = int(row_coeffs.shape[1])
    for r in range(rounds):
        level_hash = _hash_from_coefficients(level_coeffs[r])
        row_hashes = [
            _hash_from_coefficients(row_coeffs[r, i]) for i in range(rows)
        ]
        depth = level_hash.level(ids, levels - 1)
        powers = _fingerprint_powers(int(bases[r]), n, quotient, remainder)
        finger_contrib = signed_mod * powers % MERSENNE_P
        _scatter_edge_updates(
            data[r, 0].reshape(-1),
            data[r, 1].reshape(-1),
            data[r, 2].reshape(-1),
            owners,
            ids,
            signed,
            finger_contrib,
            depth,
            row_hashes,
            levels,
            rows,
            cols,
        )
    return int(owners.size)


def _checked_batch(edges, weights, n: int):
    """One update batch as int64 ``(m, 2)`` edges and ``(m,)`` weights
    (all ``+1`` when ``weights`` is ``None``), or ``None`` when empty.

    Raises :class:`ValueError` on a weights shape that does not match
    the edges, or an endpoint outside ``[0, n)``.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return None
    edges = edges.reshape(-1, 2)
    if weights is None:
        weights = np.ones(edges.shape[0], dtype=np.int64)
    else:
        weights = np.asarray(weights, dtype=np.int64)
        if weights.shape != (edges.shape[0],):
            raise ValueError(
                f"weights shape {weights.shape} does not match "
                f"{edges.shape[0]} edges"
            )
    if edges.min() < 0 or edges.max() >= n:
        raise ValueError(f"edge endpoint out of range [0, {n})")
    return edges, weights


@dataclass
class RoundSketch:
    """All vertices' L0 sketches for one Borůvka round.

    ``totals/moments/fingers`` have shape ``(n, levels, rows, cols)``
    and are views of one round of an :class:`AGMSketch` block;
    fingerprints are kept reduced mod p.
    """

    n: int
    universe: int
    level_hash: KWiseHash
    row_hashes: "list[KWiseHash]"
    fingerprint_base: int
    totals: np.ndarray
    moments: np.ndarray
    fingers: np.ndarray

    @property
    def shape(self) -> "tuple[int, int, int]":
        return self.totals.shape[1:]

    def words_per_vertex(self) -> int:
        levels, rows, cols = self.shape
        return 3 * levels * rows * cols


@dataclass(frozen=True)
class RoundSpec:
    """The shared randomness + geometry of one Borůvka round sketch.

    A spec is everything about a :class:`RoundSketch` *except* its
    counter arrays: the hash seeds (the "polylog(n) shared random bits"
    of Prop. 8.1) plus the derived ``levels × rows × cols`` geometry.
    Separating the draw from the allocation is what lets
    :class:`~repro.sketch.sharded.ShardedAGMSketch` allocate per-shard
    partial blocks against the *same* randomness an :class:`AGMSketch`
    would have drawn — the precondition for bit-identical merges.
    """

    n: int
    universe: int
    levels: int
    rows: int
    cols: int
    level_hash: KWiseHash
    row_hashes: "tuple[KWiseHash, ...]"
    fingerprint_base: int

    @classmethod
    def draw(cls, n: int, rng, *, sparsity: int, rows: int) -> "RoundSpec":
        """Draw one round's shared randomness (RNG consumption order is
        part of the contract: level hash, then ``rows`` row hashes, then
        the fingerprint base)."""
        rng = ensure_rng(rng)
        universe = n * n
        if universe >= MERSENNE_P:
            raise ValueError(
                f"edge universe {universe} exceeds the hash field; "
                f"AGM sketches here support n <= {int(MERSENNE_P**0.5)}"
            )
        levels = max(1, int(np.ceil(np.log2(max(universe, 2)))) + 1)
        cols = 2 * sparsity
        level_hash = KWiseHash(2, rng)
        row_hashes = tuple(KWiseHash(2, rng) for _ in range(rows))
        fingerprint_base = int(rng.integers(2, MERSENNE_P - 1))
        return cls(
            n=n,
            universe=universe,
            levels=levels,
            rows=rows,
            cols=cols,
            level_hash=level_hash,
            row_hashes=row_hashes,
            fingerprint_base=fingerprint_base,
        )

    @property
    def cells(self) -> int:
        """Counter cells per vertex (``levels * rows * cols``)."""
        return self.levels * self.rows * self.cols


def _draw_layout(
    n: int, rng, *, boruvka_rounds: "int | None", sparsity: int, rows: int
) -> "tuple[list[RoundSpec], dict]":
    """Draw the specs of ``boruvka_rounds`` merge rounds plus the
    reserved verification round, in order from ``rng``, and build the
    plain-array parameters :func:`sketch_update_partial` takes for them
    (everything but the owner range)."""
    rng = ensure_rng(rng)
    check_positive_int(sparsity, "sparsity")
    check_positive_int(rows, "rows")
    if boruvka_rounds is None:
        boruvka_rounds = max(2, int(np.ceil(np.log2(max(n, 2)))) + 3)
    check_positive_int(boruvka_rounds, "boruvka_rounds")
    specs = [
        RoundSpec.draw(n, rng, sparsity=sparsity, rows=rows)
        for _ in range(boruvka_rounds + 1)
    ]
    level_coeffs = np.stack(
        [s.level_hash.coefficients for s in specs]
    ).astype(np.uint64)
    row_coeffs = np.stack(
        [np.stack([h.coefficients for h in s.row_hashes]) for s in specs]
    ).astype(np.uint64)
    bases = np.array([s.fingerprint_base for s in specs], dtype=np.int64)
    for array in (level_coeffs, row_coeffs, bases):
        array.setflags(write=False)
    params = {
        "n": n,
        "levels": specs[0].levels,
        "cols": specs[0].cols,
        "level_coeffs": level_coeffs,
        "row_coeffs": row_coeffs,
        "bases": bases,
    }
    return specs, params


class AGMSketch:
    """A stack of fresh per-round sketches for Borůvka decoding.

    :attr:`block` holds every counter: an int64 array of shape
    ``(rounds, 3, n, cells)``, the one-shard partial over ``[0, n)``.
    Each :class:`RoundSketch` of :attr:`rounds` views one round of it.
    ``rounds[:-1]`` are the merge rounds; ``rounds[-1]`` is the reserved
    verification round that re-checks quiescence after the merges
    without ever having been consumed by one.  ``params`` are the
    kernel parameters :func:`sketch_update_partial` takes for the
    block's randomness.
    """

    def __init__(self, specs: "list[RoundSpec]", params: dict, block: np.ndarray):
        self.n = specs[0].n
        self.params = params
        self.block = block
        self.rounds: "list[RoundSketch]" = []
        for spec, planes in zip(specs, block):
            shape = (spec.n, spec.levels, spec.rows, spec.cols)
            totals, moments, fingers = (plane.reshape(shape) for plane in planes)
            self.rounds.append(
                RoundSketch(
                    n=spec.n,
                    universe=spec.universe,
                    level_hash=spec.level_hash,
                    row_hashes=list(spec.row_hashes),
                    fingerprint_base=spec.fingerprint_base,
                    totals=totals,
                    moments=moments,
                    fingers=fingers,
                )
            )

    @classmethod
    def empty(
        cls,
        n: int,
        rng=None,
        *,
        boruvka_rounds: "int | None" = None,
        sparsity: int = 4,
        rows: int = 3,
    ) -> "AGMSketch":
        """A zero sketch of ``n`` vertices, ready for streamed updates.

        Builds ``boruvka_rounds`` merge-round sketches plus the reserved
        verification round (``boruvka_rounds + 1`` fresh sketches total).
        """
        specs, params = _draw_layout(
            n, rng, boruvka_rounds=boruvka_rounds, sparsity=sparsity, rows=rows
        )
        block = np.zeros((len(specs), 3, n, specs[0].cells), dtype=np.int64)
        return cls(specs, params, block)

    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        rng=None,
        *,
        boruvka_rounds: "int | None" = None,
        sparsity: int = 4,
        rows: int = 3,
    ) -> "AGMSketch":
        sketch = cls.empty(
            graph.n,
            rng,
            boruvka_rounds=boruvka_rounds,
            sparsity=sparsity,
            rows=rows,
        )
        sketch.update_edges(graph.edges)
        return sketch

    @property
    def merge_rounds(self) -> "list[RoundSketch]":
        """The sketches Borůvka may consume for merges."""
        return self.rounds[:-1]

    @property
    def verification_round(self) -> RoundSketch:
        """The reserved sketch that only ever re-checks quiescence."""
        return self.rounds[-1]

    def update_edges(self, edges, weights=None) -> None:
        """Apply one batch of signed edge updates to every round sketch.

        ``edges`` is an ``(m, 2)`` array of endpoints; ``weights`` gives
        each row's multiplicity delta (defaults to all ``+1``).
        Linearity (Prop. 8.1) makes this the streaming entry point: an
        edge insert is weight ``+1``, a delete is ``-1``, and the sketch
        after any prefix of the stream equals the sketch built from the
        prefix's net multiset in one shot — an insert-then-delete round
        trip returns every counter to zero bit-for-bit.  Self-loops and
        zero-weight rows carry no connectivity information and are
        skipped.  The batch runs through :func:`sketch_update_partial`
        over the whole owner range ``[0, n)``.
        """
        batch = _checked_batch(edges, weights, self.n)
        if batch is not None:
            sketch_update_partial(
                self.block, *batch, vlo=0, vhi=self.n, **self.params
            )

    def words_per_vertex(self) -> int:
        """Sketch size per vertex in machine words (the O(log³ n)-bit
        message of Prop. 8.1)."""
        return sum(r.words_per_vertex() for r in self.rounds)

    def partials(self) -> "list[tuple[int, np.ndarray]]":
        """The counters as ``(vlo, block)`` partials, the form
        :func:`agm_decode_components` reads: one, over ``[0, n)``."""
        return [(0, self.block)]


def _component_sums(planes, labels: np.ndarray, k: int) -> np.ndarray:
    """One round's ``(3, k, cells)`` totals, moments and fingerprint
    sums per component of ``labels`` (fingerprints not yet reduced).

    ``planes`` lists the round's counters by owner range: ``(vlo,
    rows)`` with ``rows`` of shape ``(3, vhi - vlo, cells)``.  Each
    partial is summed in place by one int64 one-hot product, whose
    column ``plane · (vhi - vlo) + v`` carries a 1 in row ``plane · k +
    labels[vlo + v]``.  The sums are exact, so they do not depend on
    the order of the partials or of their rows.
    """
    total = None
    for vlo, rows in planes:
        width = rows.shape[1]
        owners = labels[vlo : vlo + width]
        onehot = sp.csc_matrix(
            (
                np.ones(3 * width, dtype=np.int64),
                (np.arange(3, dtype=np.int64)[:, None] * k + owners).reshape(-1),
                np.arange(3 * width + 1, dtype=np.int64),
            ),
            shape=(3 * k, 3 * width),
        )
        sums = onehot @ rows.reshape(3 * width, -1)
        if total is None:
            total = sums
        else:
            total += sums
    return total.reshape(3, k, -1)


def _sample_cut_edges(
    round_sketch, planes, labels: np.ndarray
) -> "dict[int, tuple[int, int]]":
    """For every component of ``labels``, decode one (verified) cut edge
    from the component-summed sketch.  Returns ``{component: (u, v)}``.

    ``round_sketch`` carries the round's ``n``, ``universe`` and
    ``fingerprint_base`` (a :class:`RoundSketch` or a
    :class:`RoundSpec`); ``planes`` holds its counters by owner range
    (see :func:`_component_sums`).  Only cells with a nonzero total are
    divided and checked, and each component keeps its last verified
    cell in ``(level, row, col)`` order: the deepest level, so the
    sparsest sub-vector.
    """
    if labels.size == 0:
        return {}
    n = round_sketch.n
    k = int(labels.max()) + 1
    totals, moments, fingers = _component_sums(planes, labels, k)
    cells = totals.shape[1]

    candidates = np.flatnonzero(totals)
    cell_totals = totals.reshape(-1)[candidates]
    cell_moments = moments.reshape(-1)[candidates]
    indices = cell_moments // cell_totals
    one_sparse = (
        (indices * cell_totals == cell_moments)
        & (indices >= 0)
        & (indices < round_sketch.universe)
    )
    candidates = candidates[one_sparse]
    if candidates.size == 0:
        return {}
    indices = indices[one_sparse]
    quotient, remainder = np.divmod(indices, n)
    powers = _fingerprint_powers(
        round_sketch.fingerprint_base, n, quotient, remainder
    )
    expected = cell_totals[one_sparse] % MERSENNE_P * powers % MERSENNE_P
    verified = expected == fingers.reshape(-1)[candidates] % MERSENNE_P

    candidates = candidates[verified]
    quotient = quotient[verified]
    remainder = remainder[verified]
    components = candidates // cells
    # Candidates ascend by (component, cell): keep each component's last.
    last = np.append(components[1:] != components[:-1], True)
    return dict(
        zip(
            components[last].tolist(),
            zip(quotient[last].tolist(), remainder[last].tolist()),
        )
    )


def _merge_samples(labels: np.ndarray, samples: "dict[int, tuple[int, int]]") -> np.ndarray:
    """Merge every sampled cut edge: the components it joins share a label.

    Each pass hooks the larger root of every sampled edge whose ends
    still differ onto the smaller one (pointers only ever decrease, so
    no cycle forms), then jumps every pointer to its root.  The labels
    come out canonical, and the union's partition does not depend on
    the order of the samples.
    """
    k = int(labels.max()) + 1
    ends = labels[np.array(list(samples.values()), dtype=np.int64).reshape(-1, 2)]
    parent = np.arange(k, dtype=np.int64)
    while True:
        roots = parent[ends]
        roots = roots[roots[:, 0] != roots[:, 1]]
        if roots.size == 0:
            return canonical_labels(parent[labels])
        parent[roots.max(axis=1)] = roots.min(axis=1)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def agm_decode_components(sketch) -> np.ndarray:
    """Borůvka over the sketch's merge rounds; returns canonical labels.

    ``sketch`` is an :class:`AGMSketch` or a
    :class:`~repro.sketch.sharded.ShardedAGMSketch`: its ``rounds``
    carry each round's randomness, and its ``partials()`` give the
    counters as ``(vlo, block)`` pairs, read in place (a sharded
    sketch gathers them with one ``sketch_collect`` and never lays them
    end to end).  Only the rounds Borůvka consumes are read.

    Consumes one fresh round per merge, then re-checks quiescence with
    the reserved verification round — a sketch no merge ever touched,
    so the final check keeps the fresh-sketch independence the module
    docstring requires.

    Raises
    ------
    RuntimeError
        The merge rounds were exhausted before the verification round
        could certify quiescence (probability vanishing in the number of
        rounds); rebuild the sketch with more rounds.  Also raised by a
        sharded sketch whose partials cannot be gathered (closed, or
        lost with their pool).
    """
    parts = sketch.partials()
    rounds = sketch.rounds

    def planes(r: int):
        return [(vlo, block[r]) for vlo, block in parts]

    labels = np.arange(sketch.n, dtype=np.int64)
    for r, round_sketch in enumerate(rounds[:-1]):
        samples = _sample_cut_edges(round_sketch, planes(r), labels)
        if not samples:
            return canonical_labels(labels)
        labels = _merge_samples(labels, samples)

    # Merge rounds exhausted: verify quiescence with the reserved
    # (never-merged) verification sketch.
    if _sample_cut_edges(rounds[-1], planes(len(rounds) - 1), labels):
        raise RuntimeError(
            "AGM decoding exhausted its Boruvka rounds before converging; "
            "rebuild the sketch with more rounds"
        )
    return canonical_labels(labels)


def agm_connected_components(
    graph: Graph,
    rng=None,
    *,
    sketch: "AGMSketch | None" = None,
    sparsity: int = 4,
    rows: int = 3,
) -> "tuple[np.ndarray, AGMSketch]":
    """Connected components via Borůvka over linear sketches (Prop. 8.1).

    Builds the sketch from ``graph`` (or uses a prebuilt one) and decodes
    components without ever touching the edges again — the coordinator in
    Theorem 2 sees only the ``O(log³ n)``-bit vertex messages.

    Returns ``(labels, sketch)``.  Raises if the per-round sample fails to
    converge (probability vanishing in the number of rounds).
    """
    rng = ensure_rng(rng)
    if sketch is None:
        sketch = AGMSketch.from_graph(graph, rng, sparsity=sparsity, rows=rows)
    return agm_decode_components(sketch), sketch
