"""Exact-arithmetic verification of weight filtrations and the long exact
sequences of one-parameter degenerations (Clemens-Schmid type), together
with generators and curve fixtures for testing the weight hypotheses.

The package namespace holds only the names the benchmark reads off it;
every other name is imported from the module that defines it."""

__version__ = "0.1.0"

from .monodromy import (
    ker_coker_weight_bounds,
    monodromy_filtration,
    monodromy_filtration_recursive,
    verify_centered_axioms,
)
from .generators import gen_centered_mhs, split_seed

__all__ = [
    "split_seed", "gen_centered_mhs", "monodromy_filtration", "monodromy_filtration_recursive",
    "verify_centered_axioms", "ker_coker_weight_bounds",
]
