"""The oracle's search against its references on random core-free subgroups.

For random subgroups H of S_n or A_n with 4 <= n <= 6, ``mibs``, pruned and
unpruned, must give the value, the witness bytes and the memo, entry by
entry in insertion order, of ``reference_mibs`` (the full scan of every
coset point at every node, over all of H).  For at most 8 cosets the value
must also be the longest strictly descending chain of pointwise stabilizers
of G itself, found over every point sequence.  The strong generators' coset
tables, made along words in G's generators, must be ``_coset_permutation``'s.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st

from irrbase import oracle
from irrbase.group import alternating_group, from_generators, symmetric_group
from irrbase.oracle import _coset_permutation, build_coset_action, mibs
from irrbase.perm import Permutation, compose, parse_cycles

from test_coset_tables import check_strong_tables
from test_oracle_reference import reference_mibs


@st.composite
def core_free_actions(draw):
    """G = S_n or A_n on the cosets of a core-free H with 1 to 3 random generators.

    The generators keep the points 1..k and k+1..n apart, for a drawn k (none
    when k = n).  A draw that gives A_n or all of G falls back to a point
    stabilizer; the rare non-core-free draws of degree 4 are rejected.
    """
    n = draw(st.integers(4, 6))
    k = draw(st.integers(1, n))
    ambient = draw(st.sampled_from("SA"))
    g = symmetric_group(n) if ambient == "S" else alternating_group(n)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        left = draw(st.permutations(range(1, k + 1)))
        x = Permutation(left + draw(st.permutations(range(k + 1, n + 1))))
        if ambient == "A" and not x.is_even():
            x = compose(x, parse_cycles("(1 2)", n))
        gens.append(x)
    h = from_generators(gens, n)
    if 2 * h.order() >= symmetric_group(n).order():
        h = g.point_stabilizer(draw(st.integers(1, n)))
    try:
        return ambient, build_coset_action(g, h)
    except ValueError:  # not core-free
        reject()


@settings(max_examples=60)
@given(core_free_actions())
def test_word_tables_match_the_coset_permutation(drawn):
    """The action's strong-generator tables, made along words, are the cosets' own."""
    _, action = drawn
    check_strong_tables(action)


def brute_mibs(action):
    """The longest chain G > G_{b1} > G_{b1,b2} > ... > 1 over every point sequence.

    G's elements act on the cosets through ``_coset_permutation``; no first
    point is fixed and no orbit is pruned.
    """
    t = action.degree
    tbls = frozenset(_coset_permutation(action, x._tbl) for x in action.group.iter_elements())
    memo = {}

    def longest(cur):
        if cur not in memo:
            best = 0
            for j in range(t):
                child = frozenset(p for p in cur if p[j] == j)
                if len(child) < len(cur):
                    best = max(best, 1 + longest(child))
            memo[cur] = best
        return memo[cur]

    return longest(tbls)


@settings(max_examples=150)
@given(core_free_actions())
def test_search_matches_references(drawn):
    ambient, action = drawn
    order_h = action.subgroup.order()
    values = set()
    for prune in (True, False):
        ref_value, ref_cert, ref_memo = reference_mibs(action, prune=prune, ambient=ambient)
        searches = []
        search = oracle._longest_chain

        def recorded(*args):
            searches.append(search(*args))
            return searches[-1]

        oracle._longest_chain = recorded
        try:
            value, cert = mibs(action, prune=prune, ambient=ambient)
        finally:
            oracle._longest_chain = search
        memo = searches[0][2]
        assert value == ref_value
        assert cert.to_json() == ref_cert.to_json()
        assert [(order_h if k is None else len(k), v) for k, v in memo.items()] == ref_memo
        values.add(value)
    if action.degree <= 8:
        assert values == {brute_mibs(action)}
