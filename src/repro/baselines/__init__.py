"""Baseline connectivity algorithms: the paper's round-complexity comparators."""

from repro.baselines.random_mate import RandomMateResult, random_mate_components
from repro.baselines.shiloach_vishkin import (
    ShiloachVishkinResult,
    shiloach_vishkin_components,
)

__all__ = [
    "RandomMateResult",
    "random_mate_components",
    "ShiloachVishkinResult",
    "shiloach_vishkin_components",
]
