import copy
import gc
import tracemalloc

import pytest

from irrbase import oracle
from irrbase.certificate import ChainCertificate
from irrbase.coset_points import chain_to_base
from irrbase.elements import intersect
from irrbase.group import (
    LimitExceeded,
    PermutationGroup,
    alternating_group,
    from_generators,
    symmetric_group,
    trivial_group,
)
from irrbase.oracle import (
    OracleLimits,
    build_coset_action,
    mibs,
)
from irrbase.verify import verify_certificate
from irrbase.affine import build_agl
from irrbase.agl_chain import affine_chain
from irrbase.perm import Permutation, _inverse_tbl, compose, parse_cycles
from irrbase.wreath import build_wreath, wreath_chain

from conftest import min_coset_rep


def test_coset_action_point_stabilizer_cosets():
    s4 = symmetric_group(4)
    act = build_coset_action(s4, s4.point_stabilizer(4))
    assert act.degree == 4
    # the action on cosets of a point stabilizer is the natural action in disguise:
    # each coset representative sends 4 to a distinct point
    seen = {x.image(4) for x in act.transversal}
    assert seen == {1, 2, 3, 4}


def test_coset_action_agl(agl71):
    act = build_coset_action(symmetric_group(7), agl71.H)
    assert act.degree == 120
    assert act.transversal[0].is_identity()


def test_transversal_made_as_it_is_read(monkeypatch, agl71):
    """The coset representatives stay tables: one Permutation per index read, none per coset."""
    wrapped = []
    wrap = Permutation._wrap.__func__
    monkeypatch.setattr(Permutation, "_wrap",
                        classmethod(lambda cls, tbl: wrapped.append(tbl) or wrap(cls, tbl)))
    act = build_coset_action(symmetric_group(7), agl71.H)
    assert len(wrapped) < act.degree
    wrapped.clear()
    x = act.transversal[5]
    assert wrapped == [x._tbl] == [_inverse_tbl(act._keys[5])]
    assert len(act.transversal) == act.degree
    assert [_inverse_tbl(y._tbl) for y in act.transversal] == act._keys


def test_transversal_slices(agl71):
    """A slice of the transversal is a list of permutations, each wrapped from its table."""
    act = build_coset_action(symmetric_group(7), agl71.H)
    assert act.transversal[1:3] == [act.transversal[1], act.transversal[2]]
    assert act.transversal[::-40] == [act.transversal[i] for i in (119, 79, 39)]
    assert [_inverse_tbl(x._tbl) for x in act.transversal[:]] == act._keys
    assert act.transversal[-1] == act.transversal[119]


@pytest.mark.parametrize("ambient", "SA")
def test_natural_search_memory_bounded(ambient):
    """Natural S10 and A10 search group nodes of degree 10: no table per element of a stabilizer.

    Tabling each of natural S10's 40,320 point-stabilizer elements on the 10
    cosets peaked at about 8 MiB under tracemalloc; group nodes take tens of KiB.
    """
    g = symmetric_group(10) if ambient == "S" else alternating_group(10)
    act = build_coset_action(g, g.point_stabilizer(10))
    tracemalloc.start()
    try:
        value = mibs(act)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == (9 if ambient == "S" else 8)
    assert peak < 1 << 20
    assert oracle._group_nodes(act.degree, act.subgroup.order())


def test_action_keeps_no_per_point_inverse_tables():
    """S11 on the 5040 cosets of M11 retains its level tables and no inverse of them.

    An inverse of each of level 0's eleven tables of length 5040 took the
    retained size from about 2.1 to 4.0 MiB under tracemalloc.
    """
    g = symmetric_group(11)
    h = from_generators([parse_cycles(c, 11)
                         for c in ("(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)")], 11)
    gc.collect()
    tracemalloc.start()
    try:
        act = build_coset_action(g, h)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert act.degree == 5040
    assert retained < 3 << 20


def _reachable_dicts(*roots):
    """Every dict reachable from the roots through containers and irrbase objects' attributes."""
    seen, stack, out = set(), list(roots), []
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, dict):
            out.append(o)
            stack += [*o, *o.values()]
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack += o
        elif type(o).__module__.startswith("irrbase.") and hasattr(o, "__dict__"):
            stack += vars(o).values()
    return out


def test_action_keeps_no_representative_map(agl32):
    """No dict keyed by coset representatives outlives the build of S9 on AGL(2,3)'s cosets."""
    act = build_coset_action(symmetric_group(9), agl32.H)
    keys = set(act._keys)
    dicts = _reachable_dicts(*vars(act).values(), *vars(act._tables).values())
    assert len(keys) == act.degree == 840 and dicts
    assert not any(key in keys for d in dicts for key in d)


def _root_children(lvl, tables):
    """(table, generator) for each key one step from the level's base point, in tree order."""
    return [(u, edge[1]) for edge, u in zip(lvl.tree.values(), tables)
            if edge is not None and edge[0] == lvl.point]


@pytest.mark.parametrize("ambient", "SA")
def test_root_children_share_the_generator_tables(agl32, ambient):
    """A root child's transversal table is its generator's table object, not a copy of it,
    in each group chain and in the coset action's level tables."""
    g = symmetric_group(9) if ambient == "S" else alternating_group(9)
    h = agl32.H if ambient == "S" else intersect(agl32.H, g)
    act = build_coset_action(g, h)
    strong = list(dict.fromkeys(s for lvl in h._levels for s in lvl.gens))
    coset_table = dict(zip(strong, act._tables.gens))  # _CosetTables keeps them in this order
    in_chains = [pair for grp in (g, h) for lvl in grp._levels
                 for pair in _root_children(lvl, lvl.orbit.values())]
    in_levels = [(u, coset_table[s]) for lvl, level in zip(h._levels, act._tables.levels)
                 for u, s in _root_children(lvl, level)]
    assert in_chains and in_levels
    assert all(u is s for u, s in in_chains + in_levels)


GROUP_NODE_ACTIONS = {
    "S8-natural": lambda: (symmetric_group(8), symmetric_group(8).point_stabilizer(8)),
    "S5xS5-in-S10": lambda: (symmetric_group(10), from_generators(
        [parse_cycles(c, 10) for c in ("(1 2)", "(1 2 3 4 5)", "(6 7)", "(6 7 8 9 10)")], 10)),
}


@pytest.mark.parametrize("name", sorted(GROUP_NODE_ACTIONS))
def test_group_nodes_walk_each_orbit_once(monkeypatch, name):
    """Below H, a child is made from the orbit that the scan walked, never walked again.

    Only H's stabilizers of a point, whose orbits the scan reads off the
    transversal tables, walk an orbit inside ``_stabilizer``.  Natural S8's
    pruned search takes every child at its node's first base point, with no
    orbit-stabilizer; the search without pruning also scans the other points.
    """
    act = build_coset_action(*GROUP_NODE_ACTIONS[name]())
    assert oracle._group_nodes(act.degree, act.subgroup.order())
    stabilizer, root_stabilizer = oracle._stabilizer, oracle._GroupNodes.stabilizer
    roots, walked, given = [], [], []

    def counted(k, root, image, tree=None):
        (walked if tree is None else given).append(bool(roots))
        if tree is None:
            return stabilizer(k, root, image)
        return stabilizer(k, root, image, tree)

    def at_root(self, j):
        roots.append(j)
        try:
            return root_stabilizer(self, j)
        finally:
            roots.pop()

    monkeypatch.setattr(oracle, "_stabilizer", counted)
    monkeypatch.setattr(oracle._GroupNodes, "stabilizer", at_root)
    for prune in (True, False):
        mibs(act, prune=prune)
    assert all(walked), "a child below H walked its orbit again"
    assert given and not any(given)


def test_coset_action_rejects_normal_subgroup():
    s4 = symmetric_group(4)
    klein = from_generators(
        [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)], 4
    )
    for prune in (True, False):
        with pytest.raises(ValueError,
                           match="^action not faithful: subgroup has a core of order 4$"):
            mibs(build_coset_action(s4, klein), prune=prune)


def test_coset_action_rejects_non_subgroup():
    with pytest.raises(ValueError, match="not a subgroup"):
        build_coset_action(alternating_group(4), from_generators([parse_cycles("(1 2)", 4)], 4))


def test_coset_action_index_limit(agl71):
    with pytest.raises(LimitExceeded, match="limit"):
        build_coset_action(symmetric_group(7), agl71.H, limit_t=100)


def test_min_coset_rep_is_minimal():
    s4 = symmetric_group(4)
    h = s4.point_stabilizer(4)
    h_els = h.elements()
    for g in s4.elements():
        rep = min_coset_rep(h, g._tbl)
        coset = sorted(compose(e, Permutation._wrap(g._tbl))._tbl for e in h_els)
        assert rep == coset[0]


def test_mibs_two_points():
    g = from_generators([parse_cycles("(1 2)", 2)], 2)
    act = build_coset_action(g, trivial_group(2))
    value, cert = mibs(act)
    assert value == 1
    assert cert.claimed_length == 1
    assert [lvl.order for lvl in cert.levels] == [1]


def test_mibs_natural_s5():
    g = symmetric_group(5)
    act = build_coset_action(g, g.point_stabilizer(5))
    value, cert = mibs(act)
    assert value == 4
    orders = [lvl.order for lvl in cert.levels]
    assert orders[0] == 24 and orders[-1] == 1
    assert all(a > b for a, b in zip(orders, orders[1:]))


def test_mibs_agl17(agl71):
    act = build_coset_action(symmetric_group(7), agl71.H)
    value, cert = mibs(act)
    assert value == 4
    # never exceeds 1 + number of prime factors of |H| (42 = 2 * 3 * 7)
    assert value <= 1 + 3
    report = verify_certificate(cert, agl71.H)
    assert report.ok


def test_mibs_first_level_is_h():
    g = symmetric_group(5)
    act = build_coset_action(g, g.point_stabilizer(5))
    _, cert = mibs(act)
    assert len(cert.levels[0].conjugators) == 1
    assert cert.levels[0].conjugators[0].is_identity()
    assert cert.levels[0].order == 24


def test_mibs_deterministic(agl71):
    act = build_coset_action(symmetric_group(7), agl71.H)
    _, c1 = mibs(act)
    _, c2 = mibs(act)
    assert c1.to_json() == c2.to_json()


def test_mibs_no_prune_equal(agl71):
    for n in (5, 6):
        g = symmetric_group(n)
        act = build_coset_action(g, g.point_stabilizer(n))
        assert mibs(act)[0] == mibs(act, prune=False)[0]
    act = build_coset_action(symmetric_group(7), agl71.H)
    assert mibs(act)[0] == mibs(act, prune=False)[0]


def test_mibs_memo_limit(agl71):
    act = build_coset_action(symmetric_group(7), agl71.H)
    with pytest.raises(LimitExceeded, match="memo"):
        mibs(act, limits=OracleLimits(max_memo=2))


def test_verify_affine_chain(agl32):
    cert = affine_chain(agl32)
    report = verify_certificate(cert, agl32.H)
    assert report.ok
    assert all(r.ok for r in report.levels)
    assert len(report.levels) == 5


def test_verify_tampered_order(agl32):
    cert = ChainCertificate.from_json(affine_chain(agl32).to_json())
    cert.levels[2].order = 999
    report = verify_certificate(cert, agl32.H)
    assert not report.ok
    bad = [r for r in report.levels if not r.ok]
    assert bad and bad[0].index == 2


def test_verify_duplicated_level(agl32):
    cert = ChainCertificate.from_json(affine_chain(agl32).to_json())
    cert.levels.insert(2, copy.deepcopy(cert.levels[2]))
    cert.claimed_length += 1
    report = verify_certificate(cert, agl32.H)
    assert not report.ok
    assert any("descend" in r.message for r in report.levels if not r.ok)


def test_verify_missing_conjugator(agl32):
    cert = ChainCertificate.from_json(affine_chain(agl32).to_json())
    cert.levels[-1].conjugators = list(cert.levels[-2].conjugators)
    report = verify_certificate(cert, agl32.H)
    assert not report.ok


def test_verify_wrong_claimed_length(agl32):
    cert = ChainCertificate.from_json(affine_chain(agl32).to_json())
    cert.claimed_length += 1
    assert not verify_certificate(cert, agl32.H).ok


def test_verify_non_nested_fallback(agl52):
    # pad an early level with a redundant extra conjugator (the square of the
    # subspace scaling also realizes the same stabilizer); later levels no
    # longer contain the padded set, forcing the from-scratch recomputation
    cert = affine_chain(agl52)
    x1 = cert.levels[1].conjugators[-1]
    extra = compose(x1, x1)
    assert extra != x1 and not extra.is_identity()
    padded = ChainCertificate.from_json(cert.to_json())
    padded.levels[1].conjugators.append(extra)
    report = verify_certificate(padded, agl52.H)
    assert report.ok


def test_chain_to_base_s3():
    s3 = symmetric_group(3)
    act = build_coset_action(s3, s3.point_stabilizer(3))
    value, cert = mibs(act)
    assert value == 2
    assert chain_to_base(cert, act) == [1, 2]


def test_chain_to_base_agl17(agl71):
    act = build_coset_action(symmetric_group(7), agl71.H)
    value, cert = mibs(act)
    base = chain_to_base(cert, act)
    assert len(base) == value == 4
    # re-run the stabilizer chain over the returned points: every step strict
    h = agl71.H
    current = None
    for p in base:
        x = act.transversal[p - 1]
        if current is None:
            current = [e.conjugate(x) for e in h.iter_elements()]
            continue
        nxt = [e for e in current if h.contains(e.conjugate(x**-1))]
        assert len(nxt) < len(current)
        current = nxt
    assert len(current) == 1


def test_chain_to_base_rejects_invalid(agl32):
    cert = ChainCertificate.from_json(affine_chain(agl32).to_json())
    cert.levels.insert(2, copy.deepcopy(cert.levels[2]))
    cert.claimed_length += 1
    act = build_coset_action(symmetric_group(9), agl32.H)
    with pytest.raises(ValueError, match="invalid"):
        chain_to_base(cert, act)


def test_chain_to_base_refuses_a_conjugator_outside_the_action(agl71):
    """A verified ambient-S witness holding an odd conjugator names no coset of A7 on H ≤ A7."""
    a7 = alternating_group(7)
    h = intersect(agl71.H, a7)
    _, cert = mibs(build_coset_action(symmetric_group(7), h))
    assert verify_certificate(cert, h).ok
    assert not all(x.is_even() for lvl in cert.levels for x in lvl.conjugators)
    with pytest.raises(ValueError, match="element does not represent a coset of this action"):
        chain_to_base(cert, build_coset_action(a7, h))


def test_sandwich_alternating(agl71):
    s_val, _ = mibs(build_coset_action(symmetric_group(7), agl71.H))
    a7 = alternating_group(7)
    h_a = intersect(agl71.H, a7)
    a_val, _ = mibs(build_coset_action(a7, h_a), ambient="A")
    assert s_val - 1 <= a_val <= s_val


def _brute_mibs(action):
    """Independent cross-check: exhaustive recursion over all points, no memo,
    no pruning, element sets recomputed from scratch at every node."""
    from irrbase.coset_points import _coset_permutation

    h = action.subgroup
    tbls = [_coset_permutation(action, e._tbl) for e in h.iter_elements()]

    def longest(cur):
        best = 0
        for j in range(action.degree):
            child = [t for t in cur if t[j] == j]
            if len(child) < len(cur):
                best = max(best, 1 + longest(child))
        return best

    return 1 + longest(tbls)


def test_mibs_vs_independent_brute():
    s4 = symmetric_group(4)
    cases = [
        (s4, s4.point_stabilizer(4)),
        (alternating_group(4), alternating_group(4).point_stabilizer(4)),
        (s4, from_generators([parse_cycles("(1 2 3 4)", 4)], 4)),
        (symmetric_group(5), from_generators([parse_cycles("(1 2 3 4 5)", 5)], 5)),
        (
            symmetric_group(5),
            from_generators(
                [parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(2 3 5 4)", 5)], 5
            ),  # the degree-5 affine line, order 20
        ),
    ]
    for g, h in cases:
        act = build_coset_action(g, h)
        assert mibs(act)[0] == _brute_mibs(act)


def test_mibs_respects_upper_bounds(agl71):
    from irrbase.bounds import length_sym, omega

    cases = []
    for n in (5, 6, 7):
        g = symmetric_group(n)
        act = build_coset_action(g, g.point_stabilizer(n))
        cases.append((mibs(act)[0], g.point_stabilizer(n).order(), length_sym(n, "S")))
    act = build_coset_action(symmetric_group(7), agl71.H)
    cases.append((mibs(act)[0], agl71.H.order(), length_sym(7, "S")))
    for value, order_h, lg in cases:
        assert value <= 1 + omega(order_h)
        assert value <= lg


def test_no_reference_cycles():
    """The oracle and the chain pass leave nothing for the cyclic collector.

    A reference cycle through a closure or a generator would keep every coset
    table alive until a collection, so each run must free its objects by
    reference counting alone.  Natural S6 searches group nodes, the others
    read through the level tables.
    """
    assert oracle._group_nodes(6, 120) and not oracle._group_nodes(120, 42)
    gc.collect()
    gc.disable()
    try:
        for g, h in [
            (symmetric_group(7), build_agl(7, 1).H),
            (symmetric_group(9), build_agl(3, 2).H),
            (symmetric_group(6), symmetric_group(6).point_stabilizer(6)),
        ]:
            act = build_coset_action(g, h)
            mibs(act)
            mibs(act, prune=False)
        agl, wreath = build_agl(3, 2), build_wreath(5, 2)
        assert verify_certificate(affine_chain(agl), agl.H).ok
        assert verify_certificate(wreath_chain(wreath), wreath.M).ok
        assert gc.collect() == 0
    finally:
        gc.enable()
