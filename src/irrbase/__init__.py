"""Irredundant-base toolkit for symmetric and alternating group actions.

Builds explicit strictly descending chains of subgroups realized as
intersections of conjugates of a point stabilizer (chain certificates),
computes exact maximum irredundant base sizes on desk-scale coset actions,
verifies certificates independently, and evaluates the closed-form bounds
and maximality criteria the constructions are checked against.
"""

from .perm import (
    CycleParseError,
    DegreeMismatchError,
    Permutation,
    compose,
    conjugate,
    cycle_type,
    inverse,
    parity,
    parse_cycles,
    print_cycles,
)
from .group import (
    ENUM_LIMIT_DEFAULT,
    LimitExceeded,
    PermutationGroup,
    alternating_group,
    equals,
    from_generators,
    intersect,
    read_generator_file,
    subgroup_of,
    symmetric_group,
    trivial_group,
)
from .certificate import CertificateFormatError, CertLevel, ChainCertificate
from .affine import (
    AffineContext,
    affine_chain,
    affine_to_permutation,
    build_agl,
    coordinate_power_conjugator,
    cycle_power_conjugator,
    diagonal_chain,
    gl_subspace_stabilizer,
    point_to_vector,
    scalar_conjugator,
    subspace_chain,
    subspace_scaling_conjugator,
    vector_to_point,
)
from .wreath import (
    WreathContext,
    build_wreath,
    embed_wreath_element,
    hamming,
    point_to_tuple,
    predicted_stabilizer,
    tuple_to_point,
    verify_intersection,
    wreath_chain,
    wreath_conjugator,
)
from .oracle import (
    CosetAction,
    OracleLimits,
    VerificationReport,
    build_coset_action,
    chain_to_base,
    mibs,
    verify_certificate,
)
from . import bounds

__version__ = "0.1.0"
