"""Analysis and optimization of submodular set-functions.

Core pieces: the set-function oracle with exhaustive property checks
(``core``), the Lovász extension and greedy linear optimization
(``lovasz``), polyhedron memberships and optimality certificates
(``polyhedra``), minimization with duality certificates (``sfm``),
separable proximal solvers (``prox``), submodularity-preserving
transforms (``transforms``), and a zoo of concrete functions (``zoo``).

Exhaustive brute-force oracles back everything at small ground-set sizes,
so results are verifiable end to end.  They run numpy kernels over 2**p
tables (``_kernels``), one code path with lexicographically smallest
violation witnesses.
"""

__version__ = "0.1.0"

from .core import (EXHAUSTIVE_CAP, ExplicitFunction, PropertyReport,
                   SetFunction, complement, elements_of, explicit_function,
                   is_monotone, is_posimodular, is_submodular, is_symmetric,
                   modular_function, shift_to_zero, subset_of, to_explicit)
from .errors import (CapExceeded, EmptySetNotZero, MonotonicityRequired,
                     NegativeScale, NoConvergence, NotConcave,
                     NotPositiveDefinite, NotZeroAtZero,
                     NumericalInconsistency, RecursionOverflow, SubmodoptError,
                     Unbounded)
from .lovasz import (conjugate, greedy_base, lovasz_extension, support_P,
                     truncated_greedy)
from .polyhedra import (dep, exchangeable_pairs, face_check, in_B, in_P,
                        in_P_plus, is_base_maximizer, is_P_plus_maximizer,
                        separable_witness, tight_sets)
from .prox import (ProxResult, Quadratic, SeparableConvex,
                   check_separable_optimality, lex_compare, line_search_P,
                   prox_decomposition, prox_homotopy, prox_minnorm,
                   prox_over_P, prox_over_P_plus, prox_threshold_sets)
from .sfm import (Corral, SfmResult, brute_minimize, certificate_gap,
                  min_norm_point, minimize, recover_level_values)
from .transforms import (add, add_modular, contract, convolve_modular,
                         embed_mask, mobius, mobius_reconstruct, monotonize,
                         partial_min, project_mask, restrict, scale)
from .zoo import (CoverSystem, Digraph, FlowNetwork, concave_cardinality,
                  cover_function, cut_function, cut_minimize, flow_function,
                  graphic_matroid_rank, linear_matroid_rank, logdet_function,
                  random_submodular, weighted_concave)
