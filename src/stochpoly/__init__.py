"""stochpoly: exact-arithmetic toolkit for the polytope of n x n x n
line-stochastic tensors.

Everything runs in arbitrary-precision integer and rational arithmetic:
building the polytope's equality system, certifying vertices by exact rank,
deciding membership in the hull of the permutation tensors with verifiable
LP certificates, enumerating all vertices for small n by two independent
methods, evaluating the known vertex-count bounds, and decomposing doubly
stochastic matrices.
"""
from .birkhoff import Decomposition, DoublyStochasticMatrix, decompose, find_positive_matching
from .bounds import (
    BoundReport,
    LemmaCheck,
    bound_cpz,
    bound_lower,
    bound_lzz,
    bound_zz_half,
    bound_zz_opt,
    check_hockey_stick,
    check_lemma_2ab,
    verify_chain,
)
from .enumeration import (
    ResourceCapExceeded,
    VertexSet,
    count_latin_squares,
    enumerate_latin_squares,
    enumerate_vertices_bruteforce,
    enumerate_vertices_dd,
)
from .lp import FeasibilityResult, LPProblem, in_permutation_hull, solve_feasibility
from .numerics import Rational, binomial, factorial, rational_pow
from .polytope import (
    HPolytope,
    VertexCertificate,
    build_lp_polytope,
    is_vertex,
    polytope_dimension,
    rank_exact,
)
from .tensor import (
    LatinSquare,
    Line,
    Tensor3,
    convex_combine,
    fractional_vertex_example,
    is_line_stochastic,
    latin_to_tensor,
    support,
    tensor_to_latin,
    uniform_tensor,
)

__version__ = "0.1.0"

#: name of the elimination kernel, the batched numpy one; benchmark runs
#: record it so that only runs of the same kernel are compared
kernel_backend = "pure"

__all__ = [
    "kernel_backend",
    "Decomposition",
    "DoublyStochasticMatrix",
    "decompose",
    "find_positive_matching",
    "BoundReport",
    "LemmaCheck",
    "bound_cpz",
    "bound_lower",
    "bound_lzz",
    "bound_zz_half",
    "bound_zz_opt",
    "check_hockey_stick",
    "check_lemma_2ab",
    "verify_chain",
    "ResourceCapExceeded",
    "VertexSet",
    "count_latin_squares",
    "enumerate_latin_squares",
    "enumerate_vertices_bruteforce",
    "enumerate_vertices_dd",
    "FeasibilityResult",
    "LPProblem",
    "in_permutation_hull",
    "solve_feasibility",
    "Rational",
    "binomial",
    "factorial",
    "rational_pow",
    "HPolytope",
    "VertexCertificate",
    "build_lp_polytope",
    "is_vertex",
    "polytope_dimension",
    "rank_exact",
    "LatinSquare",
    "Line",
    "Tensor3",
    "convex_combine",
    "fractional_vertex_example",
    "is_line_stochastic",
    "latin_to_tensor",
    "support",
    "tensor_to_latin",
    "uniform_tensor",
]
