"""Skew morphisms of finite abelian groups.

Validation of candidate permutations, kernel/core/smoothness invariants,
skew product groups, the closed-form cyclic and Z_p x Z_p families,
exhaustive enumeration with a brute-force oracle, and verification suites
for the smoothness classification of cyclic groups.
"""

from .groups import (
    AbelianGroup,
    Automorphism,
    InvalidFactorError,
    SizeGuardError,
    Subgroup,
    abelian_group_presentations,
    enumerate_automorphisms,
    enumerate_subgroups,
    make_group,
    parse_group_literal,
    perm_order,
    perm_power,
    quotient_group,
    subgroup_from_members,
    subgroup_generated_by,
)
from .morphisms import (
    SkewMorphism,
    SkewMorphismRejection,
    SkewProductGroup,
    conjugate,
    core,
    core_of_translations,
    equivalence_classes,
    identity_morphism,
    is_corefree_cyclic_part,
    is_reciprocal_pair,
    is_smooth,
    kernel,
    quotient_skew,
    skew_product_group,
    skew_type,
    try_validate,
    validate,
)
from .constructions import (
    CsmParams,
    DirectProductRejection,
    FamilyConsistencyError,
    ParameterRejection,
    RootParams,
    csm_construct,
    csm_params,
    direct_product,
    enumerate_csm_params,
    nonsmooth_witness,
    nse_construct,
    pns_witness_odd,
    pns_witness_two,
    root_construct,
    root_params,
)
from .enumeration import (
    EnumerationReport,
    brute_force_oracle,
    cached_enumeration,
    enumerate_skew_morphisms,
    smooth_only_predicate,
    theorem2_necessary,
    verify_theorem1,
)

__version__ = "0.1.0"
