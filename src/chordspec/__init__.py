"""chordspec: signless Laplacian index thresholds and chorded-cycle
certificates for small graphs, with a desk-scale exhaustive verifier."""

from .chords import (
    Certificate,
    find_chorded_cycle,
    find_k_chords_at_apex,
    longest_cycle,
    max_path_order,
    verify_certificate,
)
from .families import BuiltFamily, FamilyError, build_family, extremal_graph
from .graphs import (
    ApexPartition,
    Graph,
    Graph6Error,
    GraphError,
    apex_partition,
    disjoint_union,
    edge_counts,
    graph6_decode,
    graph6_encode,
    is_isomorphic,
    join,
    make_graph,
)
from .polynomials import EQUAL, GREATER, LESS, IntPolynomial
from .spectral import (
    QuotientMatrix,
    SpectralResult,
    charpoly_graph,
    eta,
    q_exact_compare,
    q_index,
    quotient_matrix,
    signless_laplacian,
)
from .verifier import (
    Report,
    property_suite,
    verify_appendix,
    verify_corollary,
    verify_theorem_main,
)

__version__ = "0.1.0"

__all__ = [
    "ApexPartition",
    "BuiltFamily",
    "Certificate",
    "EQUAL",
    "GREATER",
    "Graph",
    "Graph6Error",
    "GraphError",
    "FamilyError",
    "IntPolynomial",
    "LESS",
    "QuotientMatrix",
    "Report",
    "SpectralResult",
    "apex_partition",
    "build_family",
    "charpoly_graph",
    "disjoint_union",
    "edge_counts",
    "eta",
    "extremal_graph",
    "find_chorded_cycle",
    "find_k_chords_at_apex",
    "graph6_decode",
    "graph6_encode",
    "is_isomorphic",
    "join",
    "longest_cycle",
    "make_graph",
    "max_path_order",
    "property_suite",
    "q_exact_compare",
    "q_index",
    "quotient_matrix",
    "signless_laplacian",
    "verify_appendix",
    "verify_certificate",
    "verify_corollary",
    "verify_theorem_main",
]
