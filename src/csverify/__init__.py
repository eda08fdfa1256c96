"""Exact-arithmetic verification of weight filtrations and the long exact
sequences of one-parameter degenerations (Clemens-Schmid type), together
with generators and curve fixtures for testing the weight hypotheses."""

__version__ = "0.1.0"

from .linalg import (
    Matrix,
    Subspace,
    canonicalize,
    image,
    kernel,
)
from .filtration import (
    ExactnessVerdict,
    FilteredMap,
    FilteredSpace,
    direct_sum,
    tate_twist,
    weights_geq,
    weights_leq,
)
from .monodromy import (
    CenteredFiltration,
    NilpotentOp,
    ker_coker_weight_bounds,
    monodromy_filtration,
    monodromy_filtration_recursive,
    verify_centered_axioms,
)
from .verifier import (
    CSInstance,
    HypothesisReport,
    VerdictReport,
    assemble_and_verify_les,
    check_instance_hypotheses,
    verify_invariant_cycles,
    verify_proposition,
    verify_unipotent_cs,
)
from .generators import (
    GenProfile,
    gen_adversarial,
    gen_centered_mhs,
    gen_cs_instance,
    search_load_bearing,
    split_seed,
)
from .degenerations import (
    DualGraph,
    betti,
    curve_cs_instance,
    cycle_graph,
    intersection_matrix,
    theta_graph,
)

__all__ = [
    "Matrix", "Subspace", "canonicalize", "image", "kernel",
    "ExactnessVerdict", "FilteredMap", "FilteredSpace",
    "direct_sum", "tate_twist", "weights_geq", "weights_leq",
    "CenteredFiltration", "NilpotentOp", "ker_coker_weight_bounds",
    "monodromy_filtration", "monodromy_filtration_recursive", "verify_centered_axioms",
    "CSInstance", "HypothesisReport", "VerdictReport", "assemble_and_verify_les",
    "check_instance_hypotheses", "verify_invariant_cycles", "verify_proposition",
    "verify_unipotent_cs",
    "GenProfile", "gen_adversarial", "gen_centered_mhs", "gen_cs_instance",
    "search_load_bearing", "split_seed",
    "DualGraph", "betti", "curve_cs_instance", "cycle_graph",
    "intersection_matrix", "theta_graph",
]
