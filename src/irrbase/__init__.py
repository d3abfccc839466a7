"""Irredundant-base toolkit for symmetric and alternating group actions.

Builds explicit strictly descending chains of subgroups realized as
intersections of conjugates of a point stabilizer (chain certificates),
computes exact maximum irredundant base sizes on desk-scale coset actions,
verifies certificates independently, and evaluates the closed-form bounds
and maximality criteria the constructions are checked against.

The exported names load on first use: ``import irrbase`` runs no module, and
``irrbase.build_agl`` imports only the modules that ``build_agl`` needs.  The
modules are cut so that each subcommand's process imports, and so compiles
where no bytecode is cached, only code its subcommand runs: the group
builders (``affine``, ``wreath``) apart from the chain constructions
(``agl_chain``, ``chain``), the verifier (``verify``) apart from every module
that writes a certificate, and code no subcommand calls (``elements``,
``coset_points``, ``wreath_predict``, ``rho``) in modules only its callers import.
"""

import importlib

__version__ = "0.1.0"

#: module -> the names the package exports from it
_EXPORTS = {
    "perm": ("CycleParseError", "DegreeMismatchError", "Permutation", "compose",
             "conjugate", "cycle_type", "inverse", "parity", "parse_cycles",
             "print_cycles"),
    "group": ("PermutationGroup", "alternating_group", "from_generators",
              "read_generator_file", "symmetric_group", "trivial_group"),
    "elements": ("equals", "intersect", "subgroup_of"),
    "certificate": ("CertificateFormatError", "CertLevel", "ChainCertificate",
                    "ENUM_LIMIT_DEFAULT", "LimitExceeded"),
    "verify": ("VerificationReport", "verify_certificate"),
    "affine": ("AffineContext", "affine_to_permutation", "build_agl", "point_to_vector",
               "vector_to_point"),
    "agl_chain": ("affine_chain", "coordinate_power_conjugator", "cycle_power_conjugator",
                  "diagonal_chain", "gl_subspace_stabilizer", "scalar_conjugator",
                  "subspace_chain", "subspace_scaling_conjugator"),
    "wreath": ("WreathContext", "build_wreath", "embed_wreath_element", "point_to_tuple",
               "tuple_to_point", "wreath_chain", "wreath_conjugator"),
    "wreath_predict": ("hamming", "predicted_stabilizer", "verify_intersection"),
    "oracle": ("CosetAction", "OracleLimits", "build_coset_action", "mibs"),
    "coset_points": ("chain_to_base",),
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
