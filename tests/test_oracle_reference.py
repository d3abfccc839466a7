"""The oracle against the reference it replaced: a degree-t chain of all of H.

The reference builds H's coset tables as a Schreier-Sims chain on the t coset
points, lists all |H| of them and runs the memoized frozenset search from H
itself; the core of H is a filter of all of H through every coset
representative.  The oracle reads H's point stabilizers off the coset tables
of H's chain transversals instead, as permutation groups of degree t or as
element numbers read through the level tables, and its search meets the
core as the first node it would finish, or, with group nodes, refuses it
from |T(H)| before searching.  Under either node kind it must give the
same value and the same witness bytes as the reference's full scan, and
the same memo, entry by entry in insertion order, as the reference under
the oracle's order bound: a child whose order has Ω prime factors (with
multiplicity) has depth at most Ω, so one with 1 + Ω no more than the
node's best depth so far is not entered.  Entries match in subgroup
order, depth and best point, and a group node's key, its fixed-point set,
must be the reference subgroup's.  ``mibs``, pruned and unpruned, must
refuse every non-core-free subgroup with the reference's core order.
"""

import re
from functools import lru_cache

import pytest

from irrbase import coset_points, oracle
from irrbase.affine import build_agl
from irrbase.certificate import CertLevel, ChainCertificate
from irrbase.coset_points import _coset_permutation
from irrbase.elements import _conjugate_members, _iter_element_tbls, intersect
from irrbase.group import (
    PermutationGroup,
    alternating_group,
    from_generators,
    symmetric_group,
)
from irrbase.oracle import (
    OracleLimits,
    build_coset_action,
    mibs,
)
from irrbase.perm import Permutation, _compose_tbl, _identity_tbl, parse_cycles, print_cycles

from conftest import min_coset_rep

M11_GENERATORS = ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"]


# -- the reference --------------------------------------------------------------


def omega(m):
    """The number of prime factors of m, with multiplicity, by trial division."""
    k, f = 0, 2
    while m > 1:
        while m % f == 0:
            m, k = m // f, k + 1
        f += 1
    return k


def reference_mibs(action, max_memo=1_000_000, prune=True, ambient="S", bound=False):
    """The search from H over all |H| coset tables; returns (value, witness, memo shape).

    The memo shape lists (subgroup order, fixed points, (depth, best point))
    per entry, in insertion order.  With ``bound``, a child is skipped when
    1 + Ω(|child|) is at most the best depth found at its node so far.
    """
    h = action.subgroup
    t = action.degree
    point_gens = [
        Permutation._wrap(_coset_permutation(action, g._tbl)) for g in h.generators
    ]
    h_hat = PermutationGroup(point_gens, t)
    assert h_hat.order() == h.order(), "coset representation is not faithful"
    tbls = list(_iter_element_tbls(h_hat))
    root = frozenset(range(len(tbls)))
    memo = {}

    def depth_of(c):
        hit = memo.get(c)
        if hit is not None:
            return hit[0]
        best_d, best_pt = 0, None
        if prune:
            seen = bytearray(t)
            for j in range(t):
                if seen[j]:
                    continue
                orb = {tbls[e][j] for e in c}
                for o in orb:
                    seen[o] = 1
                if len(orb) == 1:
                    continue
                child = frozenset(e for e in c if tbls[e][j] == j)
                if bound and 1 + omega(len(child)) <= best_d:
                    continue
                d = 1 + depth_of(child)
                if d > best_d:
                    best_d, best_pt = d, j
        else:
            for j in range(t):
                child = frozenset(e for e in c if tbls[e][j] == j)
                if len(child) == len(c) or (bound and 1 + omega(len(child)) <= best_d):
                    continue
                d = 1 + depth_of(child)
                if d > best_d:
                    best_d, best_pt = d, j
        if len(memo) >= max_memo:
            raise oracle.LimitExceeded(f"memo table exceeds limit {max_memo} entries")
        memo[c] = (best_d, best_pt)
        return best_d

    value = 1 + depth_of(root)
    points, orders, c = [0], [len(root)], root
    while memo[c][1] is not None:
        pt = memo[c][1]
        points.append(pt)
        c = frozenset(e for e in c if tbls[e][pt] == pt)
        orders.append(len(c))
    conjugators = [action.transversal[p] for p in points]
    cert = ChainCertificate(
        degree=action.group.degree,
        ambient=ambient,
        family="explicit",
        params={},
        generators=list(h.generators),
        levels=[CertLevel(list(conjugators[: j + 1]), orders[j]) for j in range(len(points))],
        claimed_length=value,
    )
    shape = [(len(k), frozenset(j for j in range(t) if all(tbls[e][j] == j for e in k)), v)
             for k, v in memo.items()]
    return value, cert, shape


def reference_core_order(g, h):
    """Order of the kernel of G on the cosets of H, by filtering all of H."""
    reps = [min_coset_rep(h, _identity_tbl(g.degree))]
    seen = set(reps)
    for rep in reps:
        for s in g.generators:
            key = min_coset_rep(h, _compose_tbl(rep, s._tbl))
            if key not in seen:
                seen.add(key)
                reps.append(key)
    core = list(_iter_element_tbls(h))
    for rep in reps[1:]:
        core = _conjugate_members(h, [rep], core)
        if len(core) == 1:
            break
    return len(core)


# -- instances ------------------------------------------------------------------


def _natural(ambient, n):
    g = symmetric_group(n) if ambient == "S" else alternating_group(n)
    return g, g.point_stabilizer(n)


def _affine(ambient, p, d):
    h = build_agl(p, d).H
    if ambient == "S":
        return symmetric_group(p**d), h
    g = alternating_group(p**d)
    return g, intersect(h, g)


def _m11():
    return symmetric_group(11), from_generators([parse_cycles(c, 11) for c in M11_GENERATORS], 11)


INSTANCES = {
    **{f"{a}{n}-natural": (lambda a=a, n=n: _natural(a, n)) for a in "SA" for n in range(5, 10)},
    **{f"{a}7-agl-7-1": (lambda a=a: _affine(a, 7, 1)) for a in "SA"},
    **{f"{a}9-agl-3-2": (lambda a=a: _affine(a, 3, 2)) for a in "SA"},
    "S11-m11": _m11,
}


@lru_cache(maxsize=None)
def action_of(name):
    return build_coset_action(*INSTANCES[name]())


CASES = [(name, True) for name in INSTANCES] + [
    (name, False) for name in INSTANCES if name != "S11-m11"
]


def searched(action, groups, prune=True, ambient="S"):
    """``mibs`` with every node a group (``groups``) or none, and the search behind it.

    Returns the value, the witness, the search's points and orders, and its
    memo as the reference lists it: (subgroup order, fixed points, (depth,
    best point)) per entry.  A group node is keyed by its fixed-point set,
    and its order is read off the node when it is made; a level-read node
    is keyed by its element numbers, whose count is its order, and gives
    None for its fixed points, as H's entry, under the key None, does in
    both kinds.
    """
    orders, searches = {}, []
    group_node, search = oracle._group_node, oracle._longest_chain

    def keyed(grp):
        node = group_node(grp)
        orders[node[0]] = node[1]
        return node

    def recorded(*args):
        searches.append(search(*args))
        return searches[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_group_nodes", lambda t, order: groups)
        mp.setattr(oracle, "_group_node", keyed)
        mp.setattr(oracle, "_longest_chain", recorded)
        value, cert = mibs(action, prune=prune, ambient=ambient)
    (points, chain_orders, memo), = searches
    entries = []
    for k, v in memo.items():
        if k is None:
            entries.append((action.subgroup.order(), None, v))
        else:
            entries.append((orders[k], k, v) if groups else (len(k), None, v))
    return value, cert, points, chain_orders, entries


def as_searched(ref_memo, groups):
    """The reference memo with the fixed points a node kind keeps: a group's, not H's."""
    last = len(ref_memo) - 1
    return [(order, fixed if groups and i < last else None, v)
            for i, (order, fixed, v) in enumerate(ref_memo)]


KINDS = {"groups": True, "levels": False}


@pytest.mark.parametrize(
    "name, prune", CASES, ids=[f"{n}-{'pruned' if p else 'unpruned'}" for n, p in CASES]
)
def test_search_matches_reference(name, prune):
    """Under both node kinds: the reference's value, witness and memo, entry by entry."""
    action = action_of(name)
    ambient = name[0]
    full_value, full_cert, _ = reference_mibs(action, prune=prune, ambient=ambient)
    ref_value, ref_cert, ref_memo = reference_mibs(action, prune=prune, ambient=ambient,
                                                   bound=True)
    assert (ref_value, ref_cert.to_json()) == (full_value, full_cert.to_json())
    for groups in KINDS.values():
        value, cert, _, _, memo = searched(action, groups, prune, ambient)
        assert value == ref_value
        assert cert.to_json() == ref_cert.to_json()
        assert memo == as_searched(ref_memo, groups)


@pytest.mark.parametrize(
    "name, prune", CASES, ids=[f"{n}-{'pruned' if p else 'unpruned'}" for n, p in CASES]
)
def test_tables_and_level_reads_search_alike(name, prune):
    """Group nodes, made of coset tables, and level reads: the same points, orders and memo.

    The memo is compared entry by entry, in insertion order: subgroup order,
    depth and best point.
    """
    groups, levels = (searched(action_of(name), kind, prune)[2:] for kind in KINDS.values())
    assert groups[:2] == levels[:2]
    assert [(order, v) for order, _, v in groups[2]] == [(order, v) for order, _, v in levels[2]]


def test_rule_takes_both_kinds():
    """The rule, from t and |H| alone: group nodes for natural S_n and A_n, level reads for
    the affine actions and M11, whose t is not small beside |H|."""
    kinds = {name: oracle._group_nodes(action_of(name).degree, action_of(name).subgroup.order())
             for name in INSTANCES}
    assert {name for name, groups in kinds.items() if groups} == {
        name for name in INSTANCES if name.endswith("natural")}


def test_m11_search_makes_no_coset_table(monkeypatch):
    """M11's 5040 cosets are read through the level tables: no pass of length t."""
    action = build_coset_action(*INSTANCES["S11-m11"]())
    lengths = []
    compose = oracle._compose_tbl
    monkeypatch.setattr(oracle, "_compose_tbl", lambda a, b: lengths.append(len(a)) or compose(a, b))
    assert mibs(action)[0] == 6
    assert action.degree not in lengths


@pytest.mark.parametrize("prune", [True, False])
def test_memo_refusal_point_matches_reference(prune):
    """The refusal comes at the same memo entry: the last cap that fails is count - 1."""
    action = action_of("S7-agl-7-1")
    count = len(reference_mibs(action, prune=prune, bound=True)[2])
    assert mibs(action, limits=OracleLimits(max_memo=count), prune=prune)[0] == 4
    with pytest.raises(oracle.LimitExceeded, match=rf"^memo table exceeds limit {count - 1} entries$"):
        mibs(action, limits=OracleLimits(max_memo=count - 1), prune=prune)


@pytest.mark.parametrize("prune", [True, False], ids=["pruned", "unpruned"])
def test_group_memo_refusal_point_matches_reference(prune):
    """Natural S7 searches group nodes; its memo is refused at the reference's entry count."""
    action = action_of("S7-natural")
    assert oracle._group_nodes(action.degree, action.subgroup.order())
    count = len(reference_mibs(action, prune=prune, bound=True)[2])
    assert mibs(action, limits=OracleLimits(max_memo=count), prune=prune)[0] == 6
    with pytest.raises(oracle.LimitExceeded, match=rf"^memo table exceeds limit {count - 1} entries$"):
        mibs(action, limits=OracleLimits(max_memo=count - 1), prune=prune)


def _s4_subgroup(*cycles):
    return symmetric_group(4), from_generators([parse_cycles(c, 4) for c in cycles], 4)


NOT_CORE_FREE = {
    "klein-in-S4": lambda: _s4_subgroup("(1 2)(3 4)", "(1 3)(2 4)"),
    "A4-in-S4": lambda: _s4_subgroup("(1 2 3)", "(2 3 4)"),
    # not normal: D8 acts on its 3 cosets as C2, with the Klein group as kernel
    "D8-in-S4": lambda: _s4_subgroup("(1 2 3 4)", "(1 3)"),
    # the translations, normal in AGL(1, 7)
    "C7-in-AGL(1,7)": lambda: (
        build_agl(7, 1).H,
        from_generators([parse_cycles("(1 2 3 4 5 6 7)", 7)], 7),
    ),
    # t = 120 and the fixers of a point in a largest orbit are the kernel, the S2 factor;
    # t is not small beside |H| = 84, so the rule reads through the level tables
    "AGL(1,7)xS2-in-S7xS2": lambda: (
        from_generators([parse_cycles(c, 9) for c in ("(1 2 3 4 5 6 7)", "(1 2)", "(8 9)")], 9),
        from_generators(
            [parse_cycles(print_cycles(x), 9) for x in build_agl(7, 1).H.generators]
            + [parse_cycles("(8 9)", 9)],
            9,
        ),
    ),
}


def assert_core_refused(g, h):
    """``mibs``, pruned and unpruned, refuses H with the order of its core by the reference."""
    core = reference_core_order(g, h)
    assert core > 1
    message = f"action not faithful: subgroup has a core of order {core}"
    for prune in (True, False):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mibs(build_coset_action(g, h), prune=prune)


@pytest.mark.parametrize("name", sorted(NOT_CORE_FREE))
def test_core_matches_reference(name):
    assert_core_refused(*NOT_CORE_FREE[name]())


@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "levels"])
@pytest.mark.parametrize("name", sorted(NOT_CORE_FREE))
def test_core_alike_in_both_reads(monkeypatch, name, tabled):
    """Every node a group of coset tables, refused from |T(H)|, or every one read through
    the level tables, refused at the core."""
    monkeypatch.setattr(oracle, "_group_nodes", lambda t, n: tabled)
    assert_core_refused(*NOT_CORE_FREE[name]())


@pytest.mark.parametrize("name", ["D8-in-S4", "A4-in-S4", "klein-in-S4"])
def test_core_refused_through_words(monkeypatch, name):
    """S4 is given by its standard pair: its strong-generator tables come from words alone."""
    def mapped(*args):
        raise AssertionError("a strong generator was mapped through the cosets")

    monkeypatch.setattr(coset_points, "_coset_permutation", mapped)
    assert_core_refused(*NOT_CORE_FREE[name]())


def test_core_read_through_the_levels(monkeypatch):
    """t = 120 is not small beside |H| = 84: the kernel of order 2 is met by the level reads."""
    def tabled(*args):
        raise AssertionError("the search made group nodes")

    monkeypatch.setattr(oracle, "_GroupNodes", tabled)
    for prune in (True, False):
        with pytest.raises(ValueError,
                           match="^action not faithful: subgroup has a core of order 2$"):
            mibs(build_coset_action(*NOT_CORE_FREE["AGL(1,7)xS2-in-S7xS2"]()), prune=prune)


@pytest.mark.parametrize("name", ["S6-natural", "A6-natural", "S7-agl-7-1", "A9-agl-3-2"])
def test_core_free_matches_reference(name):
    g, h = INSTANCES[name]()
    assert reference_core_order(g, h) == 1
    for prune in (True, False):
        mibs(build_coset_action(g, h), prune=prune)
