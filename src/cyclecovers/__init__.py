"""4-cycle-free p-fold covers of Cartesian products of p-cycles, built as
Cayley graphs of extraspecial p-groups and certified by direct computation.

The package exports the names of the README's library example; everything
else is imported from its module."""

from .covers import build_cover, cover_from_gain, verify_cover
from .gains import gain_from_cocycle
from .graphs import girth, has_4cycle
from .spectra import hermitian_eigenvalues, huang_degree_bound, twisted_adjacency

__version__ = "0.1.0"
