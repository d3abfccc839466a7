"""Checks on the package source itself.

A check that guards a result must survive ``python -O``, which strips
``assert`` statements; so the package raises a real exception instead, and
no ``AssertionError`` either, whose meaning is "an assert failed".
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "irrbase"
MODULES = sorted(SRC.glob("*.py"))


def _assert_guards(tree: ast.AST) -> list:
    """Line numbers of assert statements and of raises of AssertionError."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return lines


def test_source_modules_found():
    assert SRC / "oracle.py" in MODULES  # the glob found the package


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_guards(path):
    assert _assert_guards(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "code, lines",
    [
        ("assert x", [1]),
        ("if x:\n    raise AssertionError('no')", [2]),
        ("raise AssertionError", [1]),
        ("raise RuntimeError('no')\nassert_equal = 1", []),
    ],
)
def test_guard_detection(code, lines):
    assert _assert_guards(ast.parse(code)) == lines


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "perm.py"],
                         ids=lambda p: p.name)
def test_table_representation_stays_in_the_kernel(path):
    """Only perm.py knows that tables are bytes up to degree 256: no other module names
    ``bytes`` or ``BYTES_DEGREE`` or tests a degree against 256."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in ("bytes", "BYTES_DEGREE")
             or isinstance(node, ast.alias) and node.name == "BYTES_DEGREE"
             or isinstance(node, ast.Constant) and node.value == 256]
    assert found == []


def _group_field_writes(tree: ast.AST) -> list:
    """Line numbers of assignments to a ``_levels``, ``_order`` or ``generators`` attribute
    of anything but ``self``: a class may set its own fields of those names."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if (isinstance(sub, ast.Attribute)
                            and sub.attr in ("_levels", "_order", "generators")
                            and not (isinstance(sub.value, ast.Name) and sub.value.id == "self")):
                        lines.append(sub.lineno)
    return lines


@pytest.mark.parametrize(
    "code, lines",
    [
        ("g._levels = []", [1]),
        ("x = 1\ng._order += 2", [2]),
        ("a, g.generators = 1, ()", [1]),
        ("g._levels[0] = lvl", [1]),
        ("self._levels = []\nself.generators: tuple = ()", []),
        ("n = g._order\nlevels = g._levels", []),
    ],
)
def test_group_field_write_detection(code, lines):
    assert _group_field_writes(ast.parse(code)) == lines


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "group.py"],
                         ids=lambda p: p.name)
def test_groups_are_built_in_group_py(path):
    """Only group.py writes a group's chain, order or generators: every other module
    gets its groups from group.py's constructors and stabilizers."""
    assert _group_field_writes(ast.parse(path.read_text(), filename=str(path))) == []


_AFFINE_CODECS = ("vector_to_point", "point_to_vector")
_WREATH_CODECS = ("tuple_to_point", "point_to_tuple")
# each family module, the builder and the modules split from it, with its public codecs
FAMILY_CODECS = {"affine.py": _AFFINE_CODECS, "agl_chain.py": _AFFINE_CODECS,
                 "wreath.py": _WREATH_CODECS, "wreath_predict.py": _WREATH_CODECS}


def _codec_calls(tree: ast.AST, names: tuple) -> list:
    """Line numbers of calls to any of the named functions, by name or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (node.func.id if isinstance(node.func, ast.Name)
                 else getattr(node.func, "attr", None)) in names]


@pytest.mark.parametrize(
    "code, lines",
    [
        ("vector_to_point(ctx, v)", [1]),
        ("x = 1\naffine.point_to_vector(ctx, 3)", [2]),
        ("ctx.points[v]\nf = vector_to_point", []),
    ],
)
def test_codec_call_detection(code, lines):
    assert _codec_calls(ast.parse(code), FAMILY_CODECS["affine.py"]) == lines


@pytest.mark.parametrize("name", sorted(FAMILY_CODECS))
def test_families_read_their_point_tables(name):
    """The family modules never call their own public codecs, which check input from
    outside: their own code reads the context's labels and its ``points`` dict."""
    path = SRC / name
    assert _codec_calls(ast.parse(path.read_text(), filename=str(path)),
                        FAMILY_CODECS[name]) == []


#: the modules that write a certificate or build the groups one is written from
PRODUCERS = {"affine", "agl_chain", "wreath", "wreath_predict", "chain", "oracle",
             "coset_points"}


def _package_imports(tree: ast.AST) -> set:
    """The package modules that ``from . import`` names, at a module's top or in a function."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


@pytest.mark.parametrize(
    "code, found",
    [
        ("from .group import x\nfrom . import bounds as b", {"group", "bounds"}),
        ("def f():\n    from .oracle import mibs", {"oracle"}),
        ("import json\nfrom irrbase.oracle import mibs", set()),
    ],
)
def test_package_import_detection(code, found):
    assert _package_imports(ast.parse(code)) == found


def test_verifier_imports_no_producer():
    """The checker trusts nothing of the code that writes what it checks: ``verify.py`` and
    every package module it imports, and they import in turn, import no producer."""
    seen, todo = set(), ["verify"]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            path = SRC / f"{name}.py"
            todo += _package_imports(ast.parse(path.read_text(), filename=str(path)))
    assert "certificate" in seen and seen.isdisjoint(PRODUCERS)


def _load_imports(tree: ast.Module) -> set:
    """The package modules a module imports when it loads: :func:`_package_imports` of its
    top-level statements, leaving out the bodies of its functions and classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return set().union(*(_package_imports(node) for node in tree.body
                         if not isinstance(node, defs)))


@pytest.mark.parametrize(
    "code, found",
    [
        ("from .perm import x\ndef f():\n    from .verify import y", {"perm"}),
        ("class C:\n    def f(self):\n        from .perm import x", set()),
        ("try:\n    from .group import x\nexcept ImportError:\n    pass", {"group"}),
    ],
)
def test_load_import_detection(code, found):
    assert _load_imports(ast.parse(code)) == found


def test_limits_load_no_group_code():
    """certificate.py, which holds every limit and refusal text, imports no package module
    when it loads, and bounds.py imports certificate.py alone: a ``bounds`` run and an
    ``import irrbase.bounds`` compile neither group.py nor perm.py."""
    def tree(name):
        return ast.parse((SRC / f"{name}.py").read_text(), filename=f"{name}.py")

    assert _load_imports(tree("certificate")) == set()
    assert _package_imports(tree("bounds")) == {"certificate"}
