"""invforge: exact invariant rings of finite matrix groups.

Exact arithmetic over Q, finite fields and number fields; finite matrix
group structure; graded invariant rings with minimal generators and
relations; normalizer/graded-automorphism reports; finite-geometry
multiplicity checks; nonabelian H^1 by cocycle enumeration; and a registry
of verified worked examples.
"""

from .fields import (FieldSpec, FieldElement, parse_element, parse_field_spec,
                     cyclotomic_polynomial, is_irreducible_mod_p)
from .poly import Polynomial, parse_polynomial
from .linalg import (Matrix, Subspace, kernel, char_poly, eigenspace,
                     commutant_basis, spin_submodule, simultaneous_eigenvectors)
from .groups import (FiniteMatrixGroup, close_group, load_group_file,
                     pseudo_reflections, reflection_subgroup,
                     is_absolutely_irreducible, is_diagonalizable_over_k,
                     elementary_abelian_rank, automorphism_group,
                     natural_character, character_inner_product)
from .invariants import (GradedDims, GeneratorSet, Relation, invariant_space,
                         hilbert_dims, molien_series, reynolds,
                         minimal_generators, scaled_torus_exponents,
                         find_relation, is_invariant,
                         check_presented_automorphism, cst_quotient_action,
                         apply_matrix)
from .normalizer import (NormalizerReport, intertwiner, normalizer_report,
                         graded_aut_of_An)
from .geometry import (ProjPoint, MultReport, projective_fixed_points,
                       multiplicity_at_point, check_claim_51,
                       check_parabolic_claim, perm_module_irreducible,
                       rank_obstruction)
from .cohomology import (FiniteAction, CocycleClassSet, h1_classes,
                         square_class_forms)

__version__ = "0.1.0"
