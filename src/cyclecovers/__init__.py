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
    BasisChange,
    ConnectionSet,
    CoveringMap,
    CoverVerificationError,
    SignedMatrix,
    build_cover,
    cohen_tits_signing,
    connection_set,
    heisenberg_cover,
    induced_odd_cover,
    lifted_connection,
    modular_rank,
    pairwise_noncommuting_check,
    signed_double_cover,
    verify_cover,
)
from .gains import GainGraph, all_cycle_sums_nonzero, cover_from_gain, gain_from_cocycle
from .graphs import (
    Graph,
    VertexCodec,
    cartesian_power,
    cartesian_product,
    cayley,
    cycle_graph,
    girth,
    has_4cycle,
    has_cycle_of_length,
    hypercube,
    induced_subgraph,
)
from .groups import (
    MINUS,
    PLUS,
    CocycleCheckResult,
    ExtraspecialElement,
    ExtraspecialGroup,
    HeisenbergElement,
    HeisenbergGroup,
    cocycle_check,
)
from .modular import Prime, Vector, carry_int
from .spectra import (
    DegreeBoundTable,
    SpectrumReport,
    adjacency_matrix,
    hermitian_eigenvalues,
    huang_degree_bound,
    snap_ceil,
    symmetric_jacobi_eigenvalues,
    twisted_adjacency,
)

__version__ = "0.1.0"
