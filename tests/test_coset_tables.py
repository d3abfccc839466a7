"""The coset tables of H's chain transversals against the coset action itself.

An element of H is numbered by its transversal path, u_{L-1} ⋯ u_0 with one
u_k per level of H's chain; its coset table T, composed from the levels'
tables, must be the table ``_coset_permutation`` computes from the element
through the coset representatives, and T must be a homomorphism.  The fixers
of a point must be exactly the elements whose table fixes it.
"""

from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from irrbase.affine import build_agl
from irrbase.group import alternating_group, from_generators, intersect, symmetric_group
from irrbase.oracle import _coset_permutation, build_coset_action
from irrbase.perm import _compose_tbl, _identity_tbl, parse_cycles


def _subgroup(n, *cycles):
    return from_generators([parse_cycles(c, n) for c in cycles], n)


ACTIONS = {
    "S6-natural": lambda: (symmetric_group(6), symmetric_group(6).point_stabilizer(6)),
    "S3xS2-in-S5": lambda: (symmetric_group(5), _subgroup(5, "(1 2 3)", "(1 2)", "(4 5)")),
    "S7-agl-7-1": lambda: (symmetric_group(7), build_agl(7, 1).H),
    "S9-agl-3-2": lambda: (symmetric_group(9), build_agl(3, 2).H),
    "A9-agl-3-2": lambda: (alternating_group(9), intersect(build_agl(3, 2).H, alternating_group(9))),
    "S11-m11": lambda: (
        symmetric_group(11),
        _subgroup(11, "(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"),
    ),
}


@lru_cache(maxsize=None)
def action_of(name):
    return build_coset_action(*ACTIONS[name]())


def element(h, number):
    """The degree-n table of the element numbered like ``_CosetTables.table``."""
    parts = []
    for lvl in h._levels:
        number, i = divmod(number, len(lvl.orbit_order))
        parts.append(lvl.orbit[lvl.orbit_order[i]])
    e = _identity_tbl(h.degree)
    for u in reversed(parts):  # u_{L-1} first, u_0 last
        e = _compose_tbl(e, u)
    return e


@st.composite
def elements(draw, count):
    name = draw(st.sampled_from(sorted(ACTIONS)))
    action = action_of(name)
    order = action.subgroup.order()
    return action, [draw(st.integers(0, order - 1)) for _ in range(count)]


@settings(max_examples=40)
@given(elements(1))
def test_table_is_the_coset_permutation(drawn):
    action, (a,) = drawn
    assert action._tables.table(a) == _coset_permutation(action, element(action.subgroup, a))


@settings(max_examples=40)
@given(elements(2))
def test_table_is_a_homomorphism(drawn):
    action, (a, b) = drawn
    h, tables = action.subgroup, action._tables
    ab = _compose_tbl(element(h, a), element(h, b))
    assert _coset_permutation(action, ab) == _compose_tbl(tables.table(a), tables.table(b))


def test_numbers_cover_h_once():
    action = action_of("S7-agl-7-1")
    h = action.subgroup
    numbered = {element(h, a) for a in range(h.order())}
    assert numbered == set(h._iter_element_tbls())


@pytest.mark.parametrize("name", ["S3xS2-in-S5", "S7-agl-7-1"])
def test_fixers_are_the_point_stabilizer(name):
    action = action_of(name)
    tables = action._tables
    all_tables = [tables.table(a) for a in range(action.subgroup.order())]
    for j in range(action.degree):
        fixers = tables.fixers(j)
        assert len(fixers) == len(set(fixers))
        assert set(fixers) == {a for a, tbl in enumerate(all_tables) if tbl[j] == j}
