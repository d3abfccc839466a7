"""The oracle's search against its references on random subgroups.

For random subgroups H of G = S_n, A_n or S_k x S_(n-k) with 3 <= n <= 6,
``mibs``, pruned and unpruned, with every search node a permutation group
of degree t and with every one read through the level tables, must give the
value and the witness bytes of ``reference_mibs`` (the full scan of every
coset point at every node, over all of H), and the memo, entry by entry in
insertion order, of the reference under the oracle's order bound, where H is
core-free, and refuse H with the order ``reference_core_order`` gives where
it is not.  For at most 8
cosets the value must also be the longest strictly descending chain of
pointwise stabilizers of G itself, found over every point sequence.  The
strong generators' coset tables, made along words in G's generators, must
be ``_coset_permutation``'s.
"""

import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from irrbase.group import alternating_group, from_generators, symmetric_group
from irrbase.coset_points import _coset_permutation
from irrbase.oracle import build_coset_action
from irrbase.perm import Permutation, compose, parse_cycles

from test_coset_tables import check_strong_tables
from test_oracle_reference import KINDS, as_searched, reference_core_order, reference_mibs, searched


def _symmetric_cycles(lo: int, hi: int) -> list:
    """Generators of the symmetric group on the points lo..hi, as cycle strings."""
    if hi - lo < 1:
        return []
    return [f"({lo} {lo + 1})", "(" + " ".join(map(str, range(lo, hi + 1))) + ")"]


@st.composite
def coset_actions(draw, kinds=("S", "A", "split")):
    """G = S_n, A_n or S_k x S_(n-k) on the cosets of H with 1 to 3 random generators.

    The generators keep the points 1..k and k+1..n apart, for a drawn k (none
    when k = n).  A draw that gives all of G falls back to the stabilizer of
    a point that G moves.  H need not be core-free: in S_k x S_(n-k), and in
    S_n and A_n for n <= 4, many a draw holds a normal subgroup of G.
    """
    n = draw(st.integers(3, 6))
    k = draw(st.integers(1, n))
    kind = draw(st.sampled_from(kinds))
    ambient = "A" if kind == "A" else "S"
    if kind == "split":
        cycles = _symmetric_cycles(1, k) + _symmetric_cycles(k + 1, n)
        g = from_generators([parse_cycles(c, n) for c in cycles], n)
    else:
        g = symmetric_group(n) if ambient == "S" else alternating_group(n)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        left = draw(st.permutations(range(1, k + 1)))
        x = Permutation(left + draw(st.permutations(range(k + 1, n + 1))))
        if ambient == "A" and not x.is_even():
            x = compose(x, parse_cycles("(1 2)", n))
        gens.append(x)
    h = from_generators(gens, n)
    if h.order() == g.order():
        moved = [p for p in range(1, n + 1) if any(x.image(p) != p for x in g.generators)]
        h = g.point_stabilizer(draw(st.sampled_from(moved)))
    return ambient, build_coset_action(g, h)


@settings(max_examples=60)
@given(coset_actions(kinds=("S", "A")))
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
@given(coset_actions())
def test_search_matches_references(drawn):
    ambient, action = drawn
    core = reference_core_order(action.group, action.subgroup)
    if core > 1:
        message = f"action not faithful: subgroup has a core of order {core}"
        for groups in KINDS.values():
            for prune in (True, False):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    searched(action, groups, prune, ambient)
        return
    values = set()
    for prune in (True, False):
        full_value, full_cert, _ = reference_mibs(action, prune=prune, ambient=ambient)
        ref_value, ref_cert, ref_memo = reference_mibs(action, prune=prune, ambient=ambient,
                                                       bound=True)
        assert (ref_value, ref_cert.to_json()) == (full_value, full_cert.to_json())
        for groups in KINDS.values():
            value, cert, _, _, memo = searched(action, groups, prune, ambient)
            assert value == ref_value
            assert cert.to_json() == ref_cert.to_json()
            assert memo == as_searched(ref_memo, groups)
        values.add(value)
    if action.degree <= 8:
        assert values == {brute_mibs(action)}
