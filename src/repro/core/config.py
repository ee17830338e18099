"""Pipeline configuration: every constant in one place, paper values noted.

The paper's constants guarantee ``1 - 1/poly(n)`` success for asymptotic
``n`` and are astronomically large (Eq. 3 sets the oversampling factor to
``s = 10⁶ log n / ε²`` with ``ε = (100 log n)⁻²``, i.e. ``s ≈ 10¹⁴`` at
``n = 10⁵``).  The library defaults reproduce the *structure* of the
algorithm — the same phases, the same growth schedule, the same failure
handling — at laptop scale, and every scaled constant is recorded here next
to its paper counterpart.  Failures that the paper's constants would make
vanishingly rare are handled by honest counted fallback rounds (see
``repro.core.grow``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.utils.validation import check_in_range, check_positive_int


@dataclass(frozen=True)
class PipelineConfig:
    """Tunable constants for the Theorem 4 pipeline.

    Attributes
    ----------
    delta:
        Memory exponent: machines have ``s = N^delta`` memory.  Paper:
        any constant ``δ > 0``.
    expander_degree:
        Cloud degree ``d`` for the regularization step.  Paper: 100
        (Cor. 4.4); default 8 — the acceptance gap threshold adapts via
        Friedman's bound.
    gamma:
        Total-variation target for the mixing walks.  Paper: ``n^{-10}``
        (Lemma 5.1); default ``10^{-3}`` (float64-scale substitute).
    gap_retention:
        Calibrated fraction of the base spectral gap that survives the
        replacement product — used to size walk lengths from the *input*
        gap bound.  Paper: the Prop. 4.2 constant ``Ω(d⁻¹ λ_H²)``
        (orders of magnitude pessimistic).  Default ``None`` computes
        ``0.8/(expander_degree+1)`` — a walk spends ``≈ d/(d+1)`` of its
        steps inside clouds, which dilutes the base gap by that factor
        (validated by the regularization tests and bench E4).
    max_walk_length:
        Safety cap on the walk length ``T``.
    oversample:
        The concentration factor ``s`` of Eq. 3 (there ``10⁶ log n/ε²``);
        default 8: expected leader-neighbour counts per non-leader.
    growth:
        The base growth factor ``Δ/s`` — components grow by
        ``growth^{2^{i-1}}`` in phase ``i`` (Lemma 6.7); the paper's
        ``Δ = 100 s`` corresponds to growth 100.
    max_phases:
        Cap on ``F`` (paper: ``F = argmin Δ^{2^i} ≥ n^{1/100}``,
        always ``O(log log n)``).
    target_size_exponent:
        Stop growing when components reach ``n^exponent`` (paper: 1/100
        with their constants; default 1/3 so the final contraction graph
        is small at laptop scale).
    broadcast_budget:
        Rounds the min-label broadcast may take on a Corollary 7.1 gap
        guess before the guess counts as too large (paper: ``O(1)``,
        Claim 6.14).
    """

    delta: float = 0.25
    expander_degree: int = 8            # paper: 100
    gamma: float = 1e-3                 # paper: n^{-10}
    gap_retention: "float | None" = None  # paper: Prop 4.2 constant
    max_walk_length: int = 1024
    oversample: int = 8                 # paper: 1e6 log n / eps^2 (Eq. 3)
    growth: int = 4                     # paper: Delta = 100 s
    max_phases: int = 4                 # paper: F = O(log log n)
    target_size_exponent: float = 1 / 3  # paper: 1/100
    broadcast_budget: int = 8           # paper: O(1) rounds (Claim 6.14)

    def __post_init__(self) -> None:
        check_in_range(self.delta, "delta", 1e-6, 1.0)
        check_positive_int(self.expander_degree, "expander_degree")
        if self.expander_degree % 2 != 0:
            raise ValueError("expander_degree must be even")
        check_in_range(self.gamma, "gamma", 1e-300, 0.5)
        if self.gap_retention is not None:
            check_in_range(self.gap_retention, "gap_retention", 1e-6, 1.0)
        check_positive_int(self.broadcast_budget, "broadcast_budget")
        check_positive_int(self.max_walk_length, "max_walk_length")
        check_positive_int(self.oversample, "oversample")
        check_positive_int(self.growth, "growth")
        if self.growth < 2:
            raise ValueError("growth must be >= 2")
        check_positive_int(self.max_phases, "max_phases")
        check_in_range(self.target_size_exponent, "target_size_exponent", 0.01, 1.0)

    # -- derived schedules -----------------------------------------------------

    @property
    def batch_half_degree(self) -> int:
        """Out-edges per vertex per phase batch (= ``Δ·s/2`` in Eq. 3 terms)."""
        return max(2, self.growth * self.oversample // 2)

    def phase_count(self, n: int) -> int:
        """``F``: smallest number of quadratic phases reaching components of
        ``n^target_size_exponent`` vertices, capped at ``max_phases``.

        Component size after phase ``i`` is ``growth^{2^i - 1}``
        (Lemma 6.7 with ``Δ_i = Δ^{2^{i-1}}``).
        """
        n = check_positive_int(n, "n")
        target = max(2.0, n**self.target_size_exponent)
        phases = 1
        while self.growth ** (2**phases - 1) < target and phases < self.max_phases:
            phases += 1
        return phases

    def growth_schedule(self, n: int) -> "list[int]":
        """Per-phase growth factors ``Δ_i = growth^{2^{i-1}}`` (Eq. 3)."""
        return [self.growth ** (2 ** (i - 1)) for i in range(1, self.phase_count(n) + 1)]

    @property
    def effective_gap_retention(self) -> float:
        """``gap_retention`` or the degree-aware default ``0.8/(d+1)``."""
        if self.gap_retention is not None:
            return self.gap_retention
        return 0.8 / (self.expander_degree + 1)

    def walk_length(self, n: int, gap_bound: float) -> int:
        """Walk length ``T`` from a spectral-gap bound on the *input* graph:
        Prop. 2.2 applied to the regularized graph, whose gap is modelled as
        ``effective_gap_retention · gap_bound``."""
        from repro.graph.walks import mixing_time_bound

        effective_gap = max(1e-9, self.effective_gap_retention * gap_bound)
        t = mixing_time_bound(n, min(effective_gap, 2.0), self.gamma)
        return min(self.max_walk_length, max(4, t))

    def with_overrides(self, **kwargs) -> "PipelineConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


#: The constants the paper itself uses (Eq. 3 and Section 4/5) — kept for
#: documentation and for tests that check our schedule formulas degrade to
#: the paper's in the appropriate regime.
def paper_constants(n: int) -> dict:
    """Evaluate the paper's constant choices at a given ``n`` (Eq. 3)."""
    n = check_positive_int(n, "n")
    log_n = math.log(n) if n > 1 else 1.0
    eps = (100.0 * log_n) ** -2
    oversample = 1e6 * log_n / eps**2
    delta_value = 100.0 * oversample
    phases = 1
    while delta_value ** (2**phases) < n ** (1 / 100):
        phases += 1
    return {
        "eps": eps,
        "oversample": oversample,
        "delta": delta_value,
        "phases": phases,
        "expander_degree": 100,
        "gamma": float(n) ** -10 if n > 1 else 0.1,
        "walks_per_vertex": 50.0 * log_n,
    }
