"""4-cycle-free p-fold covers of Cartesian products of p-cycles, built as
Cayley graphs of extraspecial p-groups and certified by direct computation."""

from .convolution import (
    GroupFunction,
    central_lift,
    check_central_lift_identity,
    convolution_operator_matrix,
    convolve,
    standard_basis_indicator,
    twisted_convolve,
    twisted_operator_matrix,
)
from .covers import (
    CoveringMap,
    CoverVerificationError,
    SignedMatrix,
    build_cover,
    cohen_tits_signing,
    connection_set,
    heisenberg_cover,
    lifted_connection,
    modular_rank,
    pairwise_noncommuting_check,
    signed_double_cover,
    verify_cover,
)
from .gains import GainGraph, all_cycle_sums_nonzero, cover_from_gain, gain_from_cocycle
from .graphs import (
    Graph,
    cartesian_power,
    cayley,
    cycle_graph,
    cycle_power,
    girth,
    has_4cycle,
    has_cycle_of_length,
    hypercube,
)
from .groups import (
    MINUS,
    PLUS,
    ExtraspecialElement,
    ExtraspecialGroup,
    HeisenbergElement,
    HeisenbergGroup,
    cocycle_check,
)
from .modular import Prime, carry_int
from .spectra import (
    SpectrumReport,
    adjacency_matrix,
    hermitian_eigenvalues,
    huang_degree_bound,
    snap_ceil,
    twisted_adjacency,
)

__version__ = "0.1.0"
