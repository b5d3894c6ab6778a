"""Construct linear systems of smooth hypersurfaces over finite fields,
certify K-smoothness by exact Groebner computation, lift such systems to
characteristic zero, and constructively produce singular members in the
regimes where none can be avoided."""

from .fields import (
    QQ,
    FieldDescriptor,
    FieldElement,
    FieldEmbedding,
    enumerate_projective_points,
    field_from_json,
    field_to_json,
    find_irreducible,
    frobenius,
    get_descriptor,
    get_embedding,
    is_irreducible,
    normalize_projective,
    sqrt_char2,
)
from .multipoly import (
    HomogeneousForm,
    LinearSystemOfForms,
    coefficients_fixed_by_frobenius,
    euler_combination,
    form_from_json,
    form_to_json,
    frobenius_twist,
    monomial_key,
    monomials_of_degree,
    random_form,
    random_system,
    system_from_json,
    system_to_json,
)
from .groebner import (
    GroebnerBasis,
    basis_to_json,
    buchberger,
    is_projectively_empty,
    normal_form,
    s_polynomial,
)
from .smoothness import (
    Singular,
    SingularWitness,
    Smooth,
    VerifyReport,
    is_smooth,
    jacobian_generators,
    search_singular_point,
    singular_member_at_base_point,
    verify_system_K_smooth,
    witness_to_json,
    witness_verifies,
    x0_truncation,
)
from .constructions import (
    ConstructionResult,
    MooreData,
    SingularMemberResult,
    builtin_example_f3,
    char2_find_singular_member,
    char2_quadric_singular_point,
    construct_smooth_system,
    construct_system_with_details,
    construction_to_json,
    fermat_form,
    galois_descent,
    klein_form,
    lift_to_char_zero,
    moore_matrix,
    moore_symmetries,
    normal_basis_search,
)
from . import errors

__version__ = "0.1.0"
