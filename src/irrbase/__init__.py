"""Irredundant-base toolkit for symmetric and alternating group actions.

Builds explicit strictly descending chains of subgroups realized as
intersections of conjugates of a point stabilizer (chain certificates),
computes exact maximum irredundant base sizes on desk-scale coset actions,
verifies certificates independently, and evaluates the closed-form bounds
and maximality criteria the constructions are checked against.

The exported names load on first use: ``import irrbase`` runs no module, and
``irrbase.build_agl`` imports only the modules that ``build_agl`` needs.
"""

import importlib

__version__ = "0.1.0"

#: module -> the names the package exports from it
_EXPORTS = {
    "perm": ("CycleParseError", "DegreeMismatchError", "Permutation", "compose",
             "conjugate", "cycle_type", "inverse", "parity", "parse_cycles",
             "print_cycles"),
    "group": ("ENUM_LIMIT_DEFAULT", "LimitExceeded", "PermutationGroup",
              "alternating_group", "equals", "from_generators", "intersect",
              "read_generator_file", "subgroup_of", "symmetric_group", "trivial_group"),
    "certificate": ("CertificateFormatError", "CertLevel", "ChainCertificate",
                    "VerificationReport", "verify_certificate"),
    "affine": ("AffineContext", "affine_chain", "affine_to_permutation", "build_agl",
               "coordinate_power_conjugator", "cycle_power_conjugator", "diagonal_chain",
               "gl_subspace_stabilizer", "point_to_vector", "scalar_conjugator",
               "subspace_chain", "subspace_scaling_conjugator", "vector_to_point"),
    "wreath": ("WreathContext", "build_wreath", "embed_wreath_element", "hamming",
               "point_to_tuple", "predicted_stabilizer", "tuple_to_point",
               "verify_intersection", "wreath_chain", "wreath_conjugator"),
    "oracle": ("CosetAction", "OracleLimits", "build_coset_action", "chain_to_base", "mibs"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_HOME, "bounds"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS or name == "bounds":  # a submodule
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
