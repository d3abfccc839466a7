"""The package's exported names: the same objects as before, loaded on first use."""

import importlib
import json
import subprocess
import sys

import pytest

import irrbase

# every name the package exported when its __init__ imported all modules eagerly,
# by the module that defines it now
EXPORTS = {
    "perm": ["CycleParseError", "DegreeMismatchError", "Permutation", "compose", "conjugate",
             "cycle_type", "inverse", "parity", "parse_cycles", "print_cycles"],
    "group": ["PermutationGroup", "alternating_group", "from_generators", "read_generator_file",
              "symmetric_group", "trivial_group"],
    "elements": ["equals", "intersect", "subgroup_of"],
    "certificate": ["CertificateFormatError", "CertLevel", "ChainCertificate",
                    "ENUM_LIMIT_DEFAULT", "LimitExceeded"],
    "verify": ["VerificationReport", "verify_certificate"],
    "affine": ["AffineContext", "affine_to_permutation", "build_agl", "point_to_vector",
               "vector_to_point"],
    "agl_chain": ["affine_chain", "coordinate_power_conjugator", "cycle_power_conjugator",
                  "diagonal_chain", "gl_subspace_stabilizer", "scalar_conjugator",
                  "subspace_chain", "subspace_scaling_conjugator"],
    "wreath": ["WreathContext", "build_wreath", "embed_wreath_element", "point_to_tuple",
               "tuple_to_point", "wreath_chain", "wreath_conjugator"],
    "wreath_predict": ["hamming", "predicted_stabilizer", "verify_intersection"],
    "oracle": ["CosetAction", "OracleLimits", "build_coset_action", "mibs"],
    "coset_points": ["chain_to_base"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_export_is_the_defining_modules_object(module, name):
    defining = importlib.import_module(f"irrbase.{module}")
    assert getattr(irrbase, name) is getattr(defining, name)


def test_all_is_the_exports_and_bounds():
    assert sorted(irrbase.__all__) == sorted([name for _, name in NAMES] + ["bounds"])


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from irrbase import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(irrbase.__all__)


def test_submodules():
    assert irrbase.bounds is importlib.import_module("irrbase.bounds")
    from irrbase import oracle

    assert oracle is importlib.import_module("irrbase.oracle")


def test_dir_covers_all():
    assert set(irrbase.__all__) <= set(dir(irrbase))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        irrbase.no_such_name
    assert not hasattr(irrbase, "no_such_name")


def test_import_runs_no_module():
    code = ("import json, sys; import irrbase; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('irrbase.'))))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == []


def test_group_raises_the_certificate_limit_class():
    """One LimitExceeded: the class PermutationGroup raises while it is built is the one
    certificate.py defines and cli.main catches."""
    from irrbase import certificate, group

    assert group.LimitExceeded is certificate.LimitExceeded
    with pytest.raises(certificate.LimitExceeded, match="^subgroup order at least 2 "):
        group.PermutationGroup(group.symmetric_group(5).generators, 5, limit=1)


@pytest.mark.parametrize("statement", ["import irrbase.bounds",
                                       "from irrbase import LimitExceeded"])
def test_limits_load_no_group_code(statement):
    """The bounds and the limit vocabulary load certificate.py, and neither group.py nor
    perm.py."""
    code = (f"import json, sys; {statement}; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('irrbase.'))))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    loaded = set(json.loads(r.stdout))
    assert "irrbase.certificate" in loaded
    assert loaded.isdisjoint({"irrbase.group", "irrbase.perm"})
