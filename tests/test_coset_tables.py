"""The coset tables of H's chain transversals against the coset action itself.

An element of H is numbered by its transversal path, u_{L-1} ⋯ u_0 with one
u_k per level of H's chain.  ``table`` below composes its coset table T level
by level, one pass of length t per level: the slow reference.  It must be the
table ``_coset_permutation`` computes from the element through the coset
representatives, and T must be a homomorphism.  ``fixers`` must give
exactly the elements whose reference table fixes the point, in ascending
order.  An image read through the level tables, without a table of the
element, must be the reference table's entry.  A group node's point
stabilizer, and each stabilizer below it, must hold exactly the reference
tables of those elements, and its key must be the points they all fix.

For G = S_n or A_n given by its standard pair, ``build_coset_action`` makes
the strong generators' tables along words in G's generators
(``_word_tables``) instead of through the coset representatives: each must
be ``_coset_permutation``'s table.  The action canonicalizes the coset H
and each coset times each generator of G that its breadth-first search
meets, 1 + t·|G's generators| in all, less one for each 2-cycle of an
involution generator's coset permutation: an edge Hx·s = Hy of an
involution s also gives Hy·s = Hx.
"""

from functools import lru_cache
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from irrbase.affine import build_agl
from irrbase.elements import _iter_element_tbls, intersect
from irrbase.group import (
    _orbit_tree,
    _standard_generators,
    alternating_group,
    from_generators,
    symmetric_group,
    trivial_group,
)
from irrbase import coset_points, oracle
from irrbase.coset_points import _coset_permutation
from irrbase.oracle import (
    _column,
    _fixing,
    _word_tables,
    build_coset_action,
    mibs,
)
from irrbase.perm import Permutation, _compose_tbl, _identity_tbl, parse_cycles

from test_oracle_reference import INSTANCES, action_of as instance_of


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
    "S7-natural": lambda: (symmetric_group(7), symmetric_group(7).point_stabilizer(7)),
    "A7-natural": lambda: (alternating_group(7), alternating_group(7).point_stabilizer(7)),
    # level sizes [2, 6], [6, 2], [7] and [2, 2, 3]: the split leaves one or no level below
    "S2xC6-in-S8": lambda: (symmetric_group(8), _subgroup(8, "(1 2)", "(3 4 5 6 7 8)")),
    "C6xS2-in-S8": lambda: (symmetric_group(8), _subgroup(8, "(1 2 3 4 5 6)", "(7 8)")),
    "C7-in-S7": lambda: (symmetric_group(7), _subgroup(7, "(1 2 3 4 5 6 7)")),
    "S2xS2xC3-in-S7": lambda: (symmetric_group(7), _subgroup(7, "(1 2)", "(3 4)", "(5 6 7)")),
}
SMALL = ["S3xS2-in-S5", "S7-agl-7-1", "S6-natural"]
NATURAL = ["S7-natural", "A7-natural"]
LOPSIDED = ["S2xC6-in-S8", "C6xS2-in-S8", "C7-in-S7", "S2xS2xC3-in-S7"]


@lru_cache(maxsize=None)
def action_of(name):
    return build_coset_action(*ACTIONS[name]())


def element(h, number):
    """The degree-n table of the element of H with this number."""
    parts = []
    for lvl in h._levels:
        number, i = divmod(number, len(lvl.orbit))
        parts.append(list(lvl.orbit.values())[i])
    e = _identity_tbl(h.degree)
    for u in reversed(parts):  # u_{L-1} first, u_0 last
        e = _compose_tbl(e, u)
    return e


def table(tables, number):
    """The coset table of the element of H with this number, one pass per level."""
    q = tables.identity
    for level in tables.levels:
        number, i = divmod(number, len(level))
        q = _compose_tbl(level[i], q)  # u_k first, then the product of the levels below
    return q


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
    assert table(action._tables, a) == _coset_permutation(action, element(action.subgroup, a))


@settings(max_examples=40)
@given(elements(2))
def test_table_is_a_homomorphism(drawn):
    action, (a, b) = drawn
    h, tables = action.subgroup, action._tables
    ab = _compose_tbl(element(h, a), element(h, b))
    assert _coset_permutation(action, ab) == _compose_tbl(table(tables, a), table(tables, b))


def test_numbers_cover_h_once():
    action = action_of("S7-agl-7-1")
    h = action.subgroup
    numbered = {element(h, a) for a in range(h.order())}
    assert numbered == set(_iter_element_tbls(h))


@pytest.mark.parametrize("name", ["S3xS2-in-S5", "S7-agl-7-1"])
def test_fixers_are_the_point_stabilizer(name):
    action = action_of(name)
    tables = action._tables
    all_tables = [table(tables, a) for a in range(action.subgroup.order())]
    for j in range(action.degree):
        assert tables.fixers(j) == [a for a, tbl in enumerate(all_tables) if tbl[j] == j]


@pytest.mark.parametrize("name", SMALL)
def test_fixer_tables_on_every_point(name):
    """The tables of the elements fixing each point: each is the element's coset permutation."""
    action = action_of(name)
    h, tables = action.subgroup, action._tables
    for j in range(action.degree):
        numbers = tables.fixers(j)
        assert len(numbers) * len(_orbit_tree(j, tables.gens)) == h.order()
        for a in numbers:
            tbl = table(tables, a)
            assert tbl[j] == j and tbl == _coset_permutation(action, element(h, a))


def test_fixer_tables_trivial_subgroup():
    action = build_coset_action(symmetric_group(3), trivial_group(3))
    tables = action._tables
    for j in range(action.degree):
        assert tables.fixers(j) == [0]
        assert table(tables, 0) == _identity_tbl(6)


def node_elements(node):
    """The element tables of a group node's group."""
    return set(_iter_element_tbls(node[2]))


@pytest.mark.parametrize("name", NATURAL + LOPSIDED)
def test_group_stabilizers_are_the_fixers(name):
    """A group node's stabilizer of a point, and each stabilizer below it, against the fixers.

    At every point of S7 and A7, and at every 41st of S8's 3360 cosets (every
    287th below it): the stabilizer holds exactly the reference tables of the
    elements that ``fixers`` lists, and its key is the points all of them fix.
    """
    action = action_of(name)
    tables = action._tables
    all_tables = [table(tables, a) for a in range(action.subgroup.order())]
    kind = oracle._GroupNodes(tables, action.subgroup.order())
    step = 1 if name in NATURAL else 41  # t = 3360 on S8
    for j in range(0, action.degree, step):
        node = kind.child(kind.h, j, kind.orbit(kind.h, j))
        fixing = [all_tables[a] for a in tables.fixers(j)]
        assert node_elements(node) == set(fixing)
        assert node[0] == {p for p in range(action.degree)
                                  if all(tbl[p] == p for tbl in fixing)}
        for p in range(0, action.degree, step if name in NATURAL else 7 * step):
            if p not in node[0]:
                child = kind.child(node, p, kind.orbit(node, p))
                assert node_elements(child) == {tbl for tbl in fixing if tbl[p] == p}


@pytest.mark.parametrize("name", SMALL)
def test_level_reads_are_the_reference_tables(name):
    """Every element's image of every point, read through the levels, for H and each stabilizer."""
    action = action_of(name)
    tables = action._tables
    reference = [table(tables, a) for a in range(action.subgroup.order())]
    sets = [list(range(len(reference)))] + [tables.fixers(j) for j in range(action.degree)]
    for numbers in sets:
        lists = tables.level_lists(numbers)
        if len(numbers) == 1:  # the identity alone: every level is dropped
            assert numbers == [0] and lists == []
            continue
        for p in range(action.degree):
            col = _column(lists, p)
            assert col == [reference[a][p] for a in numbers]
            child, child_lists = _fixing(numbers, lists, p, col)
            assert child == [a for a in numbers if reference[a][p] == p]
            if numbers is sets[0]:  # a child of H keeps the reads of its elements
                for q in range(action.degree):
                    assert _column(child_lists, q) == [reference[a][q] for a in child]


def word_tables(action, elements):
    """``_word_tables`` of elements of G, from T(a) and T(b) made by ``_coset_permutation``."""
    g = action.group
    gens = [x._tbl for x in g.generators]
    alternating = gens == _standard_generators(g.degree, True)
    assert gens == _standard_generators(g.degree, alternating)
    images = [_coset_permutation(action, x) for x in gens]
    return _word_tables(gens, images, alternating, elements)


def check_strong_tables(action):
    """Every strong generator's word table is its coset table, and the action's levels agree."""
    h = action.subgroup
    strong = [s for lvl in h._levels for s in lvl.gens]
    reference = {s: _coset_permutation(action, s) for s in strong}
    if len(action.group.generators) == 2:
        assert word_tables(action, strong) == reference
    rebuilt = oracle._CosetTables(action, reference)
    assert action._tables.levels == rebuilt.levels
    assert action._tables.gens == rebuilt.gens


@pytest.mark.parametrize("name", sorted(set(ACTIONS) | set(INSTANCES)))
def test_word_tables_of_strong_generators(name):
    check_strong_tables(action_of(name) if name in ACTIONS else instance_of(name))


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("ambient", "SA")
def test_word_tables_natural(ambient, n):
    """Natural S_n and A_n: the letters (k+1 k+2), (k+1 k+2 k+3) and (1 k+2 k+3)."""
    g = symmetric_group(n) if ambient == "S" else alternating_group(n)
    check_strong_tables(build_coset_action(g, g.point_stabilizer(n)))


@st.composite
def group_elements(draw):
    """An element of natural S_n or A_n, 3 <= n <= 9, with G's action on n points."""
    ambient = draw(st.sampled_from("SA"))
    n = draw(st.integers(3 if ambient == "S" else 4, 9))
    g = symmetric_group(n) if ambient == "S" else alternating_group(n)
    x = Permutation(draw(st.permutations(range(1, n + 1))))
    if ambient == "A" and not x.is_even():
        x = x * parse_cycles("(1 2)", n)
    return build_coset_action(g, g.point_stabilizer(n)), x._tbl


@settings(max_examples=60)
@given(group_elements())
def test_word_tables_of_any_element(drawn):
    action, x = drawn
    assert word_tables(action, [x]) == {x: _coset_permutation(action, x)}


@pytest.mark.parametrize("name, calls", [("S11-m11", 7_561), ("S9-agl-3-2", 1_261),
                                         ("A9-agl-3-2", 1_681)])
def test_coset_action_canonicalizations(monkeypatch, name, calls):
    """One canonicalization for the coset H and one per coset and G-generator, less one
    per 2-cycle of an involution generator: no more."""
    count = [0]
    canonical = oracle._coset_key

    def counted(*args):
        count[0] += 1
        return canonical(*args)

    monkeypatch.setattr(oracle, "_coset_key", counted)
    action = build_coset_action(*ACTIONS[name]())
    monkeypatch.undo()
    two_cycles = 0
    for s in action.group.generators:
        if (s * s).is_identity():
            perm = _coset_permutation(action, s._tbl)
            two_cycles += sum(perm[x] > x for x in range(action.degree))
    assert count[0] == calls == 1 + action.degree * len(action.group.generators) - two_cycles


@pytest.mark.parametrize("name", ["S7-agl-7-1", "S9-agl-3-2"])
def test_other_generators_map_through_the_cosets(monkeypatch, name):
    """S_n given as [(1 ... n), (1 2)], the pair swapped, takes _coset_permutation: same mibs."""
    g, h = ACTIONS[name]()
    swapped = from_generators(list(reversed(g.generators)), g.degree)
    mapped = []
    permutation = coset_points._coset_permutation
    monkeypatch.setattr(coset_points, "_coset_permutation",
                        lambda action, x: mapped.append(x) or permutation(action, x))
    value = mibs(build_coset_action(g, h))[0]
    assert mapped == []
    assert mibs(build_coset_action(swapped, h))[0] == value
    assert mapped == [s for lvl in h._levels for s in lvl.gens]
