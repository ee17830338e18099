"""One-sparse recovery — the leaf of the AGM sketch tower.

Maintains three linear counters over a stream of signed updates
``(index, weight)`` to a virtual vector ``f``:

* ``total  = Σ f_i``
* ``moment = Σ i · f_i``
* ``finger = Σ f_i · r^i  (mod p)`` for a random fingerprint base ``r``

If ``f`` is exactly one-sparse with support ``{i}`` and weight ``w``, then
``total = w``, ``moment = i·w`` and ``finger = w·r^i``; the fingerprint
check makes false positives occur with probability ``≤ universe/p``.
All counters are linear, so sketches of ``f`` and ``g`` add to a sketch of
``f + g`` — the property Borůvka-over-sketches relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sketch.hashing import MERSENNE_P
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int


def _pow_mod(base: np.ndarray, exponent: np.ndarray, modulus: int) -> np.ndarray:
    """Vectorised modular exponentiation (square-and-multiply on uint64)."""
    base = np.asarray(base, dtype=np.uint64) % np.uint64(modulus)
    exponent = np.asarray(exponent, dtype=np.uint64).copy()
    result = np.ones_like(base)
    mod = np.uint64(modulus)
    while exponent.max(initial=np.uint64(0)) > 0:
        odd = (exponent & np.uint64(1)).astype(bool)
        result[odd] = (result[odd] * base[odd]) % mod
        base = (base * base) % mod
        exponent >>= np.uint64(1)
    return result


@dataclass
class OneSparseRecovery:
    """Linear one-sparse detector over integer vectors indexed by
    ``[0, universe)``."""

    universe: int
    fingerprint_base: int
    total: int = 0
    moment: int = 0
    finger: int = 0

    @classmethod
    def fresh(cls, universe: int, rng=None) -> "OneSparseRecovery":
        universe = check_positive_int(universe, "universe")
        if universe >= MERSENNE_P:
            raise ValueError("universe too large for the fingerprint field")
        rng = ensure_rng(rng)
        base = int(rng.integers(2, MERSENNE_P - 1))
        return cls(universe=universe, fingerprint_base=base)

    # -- updates ----------------------------------------------------------

    def update(self, index: int, weight: int) -> None:
        self.update_many(np.array([index]), np.array([weight]))

    def update_many(self, indices: np.ndarray, weights: np.ndarray) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        if indices.size == 0:
            return
        if indices.min() < 0 or indices.max() >= self.universe:
            raise ValueError("index out of universe")
        self.total += int(weights.sum())
        self.moment += int((indices * weights).sum())
        powers = _pow_mod(
            np.full(indices.shape, self.fingerprint_base), indices, MERSENNE_P
        )
        weights_mod = (weights % MERSENNE_P).astype(np.uint64)
        contrib = (weights_mod * powers) % np.uint64(MERSENNE_P)
        self.finger = int((self.finger + int(contrib.sum())) % MERSENNE_P)

    # -- linearity ----------------------------------------------------------

    def merge(self, other: "OneSparseRecovery") -> "OneSparseRecovery":
        """Sketch of the sum of the two underlying vectors."""
        self._check_compatible(other)
        return OneSparseRecovery(
            universe=self.universe,
            fingerprint_base=self.fingerprint_base,
            total=self.total + other.total,
            moment=self.moment + other.moment,
            finger=(self.finger + other.finger) % MERSENNE_P,
        )

    def _check_compatible(self, other: "OneSparseRecovery") -> None:
        if (
            self.universe != other.universe
            or self.fingerprint_base != other.fingerprint_base
        ):
            raise ValueError("cannot merge sketches with different seeds")

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.total == 0 and self.moment == 0 and self.finger == 0

    def decode(self) -> "tuple[int, int] | None":
        """``(index, weight)`` if the vector is (verifiably) one-sparse,
        else None."""
        if self.total == 0:
            return None
        if self.moment % self.total != 0:
            return None
        index = self.moment // self.total
        if not 0 <= index < self.universe:
            return None
        expected = (
            (self.total % MERSENNE_P)
            * int(_pow_mod(np.array([self.fingerprint_base]), np.array([index]), MERSENNE_P)[0])
        ) % MERSENNE_P
        if expected != self.finger:
            return None
        return int(index), int(self.total)
