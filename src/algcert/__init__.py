"""Exact structural invariants and rationality certificates for
finite-dimensional associative algebras over Q and GF(p)."""

from .algebra import (LieSubalgebra, RadicalData, StructureAlgebra,
                      WMDecomposition, center, der_into, derivation_algebra,
                      is_nilpotent, is_solvable, jacobson_radical,
                      wm_complement)
from .certify import (Certificate, CertifyConfig, reductive_shape,
                      verify_invariant_pair, semisimple_block_sizes,
                      torus_shape_check)
from .fields import GF, QQ, Field, PrimeField, RationalField
from .forms import (IsotropyEvidence, NonsingularityEvidence, QuadraticForm,
                    diagonalize, flag_search, im_phi_lie, isotropy,
                    nonsingularity, quadratic_from_poly, restricted_action,
                    sim_lie, stab_lie)
from .linalg import Subspace, quotient_basis, solve
from .oracle import EnumeratedGroup, enumerate_automorphisms, induced_jj2_matrices
from .poly import (LinearChange, Poly, TruncatedRing, apply_linear_change,
                   homogeneous_components, monomial_gcd_factor, parse_poly,
                   partial_derivative, s_index)
from .presentation import (NormalForm, Presentation, is_graded_presentation,
                           is_monomial_ideal,
                           minimal_degree_subspace, normal_form,
                           presentation_from_algebra, presentation_from_ideal,
                           quotient_algebra)

__version__ = "0.1.0"
