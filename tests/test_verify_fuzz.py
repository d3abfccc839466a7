"""Fuzzing ``irrbase verify``: a mutated certificate gives exit 0, 1 or 2, never a traceback.

Each example takes the affine (7, 1) or the wreath (5, 2) certificate, or the
oracle's explicit witness for AGL(1, 7) in S_7, makes one to three mutations
and runs ``main(["verify", path])`` in process.  A mutation drops,
duplicates or swaps the entries of a list (the levels, a level's
conjugators, the generators), perturbs a level's order, puts another int in
an int field, or puts a value of another type (None, a bool, int, float,
str, list or dict) in any field; the ints include some too large for a
table of that length, such as 10^20.
"""

import contextlib
import copy
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from irrbase.agl_chain import affine_chain
from irrbase.cli import main
from irrbase.group import symmetric_group
from irrbase.oracle import build_coset_action, mibs
from irrbase.wreath import wreath_chain

# small ints, and ints too large for a table of that length
INTS = st.one_of(st.integers(-3, 30), st.sampled_from([10**20, 3**60]))
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
)


@pytest.fixture(scope="module")
def certificates(agl71, wreath52):
    return {"agl-7-1": affine_chain(agl71).to_dict(),
            "wreath-5-2": wreath_chain(wreath52).to_dict(),
            "explicit-agl-7-1": mibs(build_coset_action(symmetric_group(7), agl71.H))[1].to_dict()}


def _fields(node, path=()):
    """The path of every field below ``node``, in document order."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(data, doc) -> None:
    """One mutation of ``doc`` in place, drawn from ``data``."""
    fields = list(_fields(doc))
    kind = data.draw(st.sampled_from(["list", "order", "int", "retype"]))
    lists = [p for p in fields if isinstance(_at(doc, p), list) and _at(doc, p)]
    orders = [p for p in fields if p[-1] == "order" and str(_at(doc, p)).isdigit()]
    ints = [p for p in fields if type(_at(doc, p)) is int]
    if kind == "list" and lists:
        items = _at(doc, data.draw(st.sampled_from(lists)))
        i = data.draw(st.integers(0, len(items) - 1))
        op = data.draw(st.sampled_from(["drop", "duplicate", "swap"]))
        if op == "drop":
            del items[i]
        elif op == "duplicate":
            items.insert(i, copy.deepcopy(items[i]))
        else:
            j = data.draw(st.integers(0, len(items) - 1))
            items[i], items[j] = items[j], items[i]
    elif kind == "order" and orders:
        path = data.draw(st.sampled_from(orders))
        value = int(_at(doc, path)) + data.draw(st.integers(-3, 3))
        _at(doc, path[:-1])["order"] = str(value)
    elif kind == "int" and ints:  # the degree, a param or claimed_length
        path = data.draw(st.sampled_from(ints))
        _at(doc, path[:-1])[path[-1]] = data.draw(INTS)
    else:  # a walk from the root that stops at each field with even odds: top fields are common
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else range(len(node))
            key = data.draw(st.sampled_from(keys))
            if not isinstance(node[key], (dict, list)) or not node[key] or data.draw(st.booleans()):
                break
            node = node[key]
        node[key] = data.draw(JUNK)


@settings(max_examples=60)
@given(data=st.data())
def test_mutated_certificate_exits_cleanly(certificates, tmp_path_factory, data):
    name = data.draw(st.sampled_from(sorted(certificates)))
    doc = copy.deepcopy(certificates[name])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(path)])
    assert code in (0, 1, 2)
    assert (code == 0) == out.getvalue().endswith("certificate VERIFIED\n")
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
