import hashlib
import math
import random
from operator import getitem

import pytest

from irrbase import group
from irrbase.affine import build_agl
from irrbase.agl_chain import affine_chain
from irrbase.elements import _conjugate_members, _iter_element_tbls, equals, intersect, subgroup_of
from irrbase.group import (
    LimitExceeded,
    PermutationGroup,
    _orbit_tree,
    _schreier_generators,
    _stabilizer,
    _tree_tables,
    alternating_group,
    from_generators,
    read_generator_file,
    symmetric_group,
)
from irrbase.perm import (DegreeMismatchError, Permutation, _inverse_tbl, _table, compose,
                          parse_cycles, print_cycles)

from conftest import brute_closure, min_coset_rep


def s4():
    return from_generators([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3 4)", 4)], 4)


def test_from_generators_s4():
    assert s4().order() == 24


def test_from_generators_empty():
    g = from_generators([], 3)
    assert g.order() == 1
    assert g.elements() == [Permutation.identity(3)]


def test_from_generators_closure_oracle():
    gens = [parse_cycles("(1 2 3)", 5), parse_cycles("(1 2)(4 5)", 5)]
    g = from_generators(gens, 5)
    # independent answer: brute-force closure (the parity of the 3-point part
    # forces the (4 5) part, so this is a diagonal copy of S_3)
    assert g.order() == len(brute_closure(gens, 5)) == 6


def test_degree_mismatch():
    with pytest.raises(DegreeMismatchError):
        from_generators([parse_cycles("(1 2)", 3)], 4)


def test_order_cyclic():
    assert from_generators([parse_cycles("(1 2 3 4 5)", 5)], 5).order() == 5


def test_contains():
    c4 = from_generators([parse_cycles("(1 2 3 4)", 4)], 4)
    assert c4.contains(parse_cycles("(1 3)(2 4)", 4))
    c3 = from_generators([parse_cycles("(1 2 3)", 3)], 3)
    assert not c3.contains(parse_cycles("(1 2)", 3))


def test_contains_random_products():
    g = s4()
    rng = random.Random(2)
    word = Permutation.identity(4)
    for _ in range(10):
        word = compose(word, g.generators[rng.randrange(len(g.generators))])
    assert g.contains(word)


def test_elements():
    c3 = from_generators([parse_cycles("(1 2 3)", 3)], 3)
    els = c3.elements()
    assert len(els) == 3
    full = s4().elements()
    assert len(full) == 24 and len(set(full)) == 24


def test_elements_limit():
    with pytest.raises(LimitExceeded, match="group too large"):
        s4().elements(limit=10)


def test_point_stabilizer():
    assert s4().point_stabilizer(4).order() == 6
    c5 = from_generators([parse_cycles("(1 2 3 4 5)", 5)], 5)
    assert c5.point_stabilizer(1).order() == 1
    assert alternating_group(5).point_stabilizer(1).order() == 12


def point_stabilizer_corpus(agl32, agl71, wreath52):
    """(name, group) pairs: S_n and A_n for n <= 10, two AGL, S5 wr S2 and seeded random groups."""
    groups = [(f"S{n}", symmetric_group(n)) for n in range(1, 11)]
    groups += [(f"A{n}", alternating_group(n)) for n in range(1, 11)]
    groups += [("AGL(2,3)", agl32.H), ("AGL(1,7)", agl71.H), ("S5wrS2", wreath52.M)]
    rng = random.Random(41)
    for r in range(30):
        n = rng.randint(1, 14)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            gens.append(Permutation(images))
        groups.append((f"random{r}", from_generators(gens, n)))
    return groups


#: sha256 of every point stabilizer's generator cycle strings over the corpus above;
#: the natural-family oracle witnesses are built from these generators
POINT_STABILIZER_DIGEST = (
    "6d97fb446cfac89dd9b3cf5fd7d10f43aea83c4365dd451a16d8028828e0a25e"
)


def test_point_stabilizer_generators_pinned(agl32, agl71, wreath52):
    """point_stabilizer keeps its generators byte for byte; each is the orbit-stabilizer one."""
    lines = []
    for name, g in point_stabilizer_corpus(agl32, agl71, wreath52):
        for i in range(1, g.degree + 1):
            stab = g.point_stabilizer(i)
            assert equals(stab, _stabilizer(g, i - 1, getitem)), (name, i)
            lines.append(f"{name} {i}: " + " ".join(print_cycles(x) for x in stab.generators))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == POINT_STABILIZER_DIGEST


#: sha256 over the corpus above of every chain level's base point, orbit order,
#: transversal and inverse transversal tables, and every point's orbit
ORBIT_WALK_DIGEST = "c20a03ed1ba5e037a479be878f496b3a93a7c855b5db3f9cad69692f9f9bee5e"


def test_orbit_walk_pinned(agl32, agl71, wreath52):
    """The chain's orbits and transversals and PermutationGroup.orbit keep their order and bytes."""
    lines = []
    for name, g in point_stabilizer_corpus(agl32, agl71, wreath52):
        for lvl in g._levels:
            lines.append(f"{name} {lvl.point}: {list(lvl.orbit)} "
                         f"{[tuple(u) for u in lvl.orbit.values()]} "
                         f"{[tuple(lvl.inv[b]) for b in lvl.orbit]}")
        lines.append(f"{name} orbits: {[g.orbit(i) for i in range(1, g.degree + 1)]}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ORBIT_WALK_DIGEST


#: sha256 of AGL(1,257)'s chain, on tuple tables above degree 256: each level's base
#: point, orbit order, transversal and inverse transversal tables, then the generators
#: of its point stabilizers of 1 and 257
AGL_1_257_CHAIN_DIGEST = "06e09e175b0eb836545c3f89822240309c0c939056b3982010160238d36e83df"


def test_tuple_table_chain_pinned():
    """A chain past degree 256, where the tables are tuples, keeps its bytes."""
    h = build_agl(257, 1).H
    assert type(h._ident) is tuple
    lines = [f"{lvl.point}: {list(lvl.orbit)} "
             f"{[tuple(u) for u in lvl.orbit.values()]} "
             f"{[tuple(lvl.inv[b]) for b in lvl.orbit]}" for lvl in h._levels]
    for i in (1, 257):
        lines.append(f"{i}: " + " ".join(print_cycles(x) for x in h.point_stabilizer(i).generators))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == AGL_1_257_CHAIN_DIGEST


def test_level_tree_is_the_breadth_first_schreier_vector(agl32, agl71, wreath52):
    """Each level's tree: its orbit's keys in order, each reached first by its parent edge.

    The parent of a key b is the first pair (a, s), a in orbit order and s in
    the level's generator order, with s[a] = b; the product of the generators
    along b's path from the base point is b's transversal table.
    """
    for name, g in point_stabilizer_corpus(agl32, agl71, wreath52):
        for i, lvl in enumerate(g._levels):
            gens = g._gens_at(i)
            order = list(lvl.tree)
            assert order == list(lvl.orbit) and order[0] == lvl.point, (name, i)
            assert lvl.tree[lvl.point] is None
            first = {}
            for a in order:
                for s in gens:
                    first.setdefault(s[a], (a, s))
            assert set(first) == set(order)  # the orbit is closed under the generators
            for b in order[1:]:
                a, s = lvl.tree[b]
                assert (a, s) == first[b] and s[a] == b, (name, i, b)
                u = s
                while lvl.tree[a] is not None:
                    a, s = lvl.tree[a]
                    u = _table([u[v] for v in s])  # s first, then the path below it
                assert u == lvl.orbit[b] and _table([u[v] for v in lvl.inv[b]]) == g._ident


def _lemma(tree, gens, image, ident):
    """Schreier's lemma written out: u_a s u_b⁻¹ for every key a and generator s, b = a^s,
    with the transversals from ``_tree_tables`` and no composer of the package's."""
    def then(x, y):  # x first, then y
        return _table([y[v] for v in x])

    u = _tree_tables(tree, ident)
    out = []
    for a in tree:
        for s in gens:
            b = image(s, a)
            h = then(then(u[a], s), _table(sorted(range(len(ident)), key=u[b].__getitem__)))
            out.append((tree[b] == (a, s), h))
    return out


def _check_schreier_generators(tree, gens, image, ident, root, order):
    """The routine yields the lemma's products off the tree edges, in order; on a tree edge
    the product is the identity; each fixes the root; together they give the order."""
    u = _tree_tables(tree, ident)
    u_inv = {b: _inverse_tbl(x) for b, x in u.items()}
    got = list(_schreier_generators(tree, gens, image, u, u_inv))
    want = _lemma(tree, gens, image, ident)
    assert got == [h for edge, h in want if not edge]
    assert all(h == ident for edge, h in want if edge)
    assert len(want) - len(got) == len(tree) - 1  # one tree edge per key but the root
    assert all(image(h, root) == root for h in got)
    assert from_generators([Permutation._wrap(h) for h in got], len(ident)).order() == order


def test_schreier_generators_on_level_trees(agl32, wreath52):
    for g in (symmetric_group(6), alternating_group(7), agl32.H, wreath52.M):
        for i, lvl in enumerate(g._levels):
            order = math.prod(len(below.orbit) for below in g._levels[i + 1:])
            _check_schreier_generators(lvl.tree, g._gens_at(i), getitem, g._ident, lvl.point,
                                       order)


def test_schreier_generators_on_a_coset_key_tree(agl32):
    """K = H acting on H's right cosets, keys their minimal representatives: the key Hx."""
    h = agl32.H
    x = affine_chain(agl32).levels[1].conjugators[1]._tbl
    gens = [g._tbl for g in h.generators]

    def image(s, a):
        return min_coset_rep(h, _table([s[v] for v in a]))

    root = min_coset_rep(h, x)
    tree = _orbit_tree(root, gens, image)
    assert len(tree) > 1
    _check_schreier_generators(tree, gens, image, h._ident, root, h.order() // len(tree))


def test_stabilizer_at_the_first_base_point_is_the_chain_tail(agl32, agl71, wreath52):
    """At K's first base point the stabilizer is K's chain from its second level, shared;
    at every point it equals the orbit-stabilizer result, which any image but getitem gives."""
    def image(s, a):
        return s[a]

    for name, g in point_stabilizer_corpus(agl32, agl71, wreath52):
        for j in range(g.degree):
            assert equals(_stabilizer(g, j, getitem), _stabilizer(g, j, image)), (name, j)
        if not g._levels:
            continue
        first = g._levels[0]
        tail = _stabilizer(g, first.point, getitem)
        assert len(tail._levels) == len(g._levels) - 1
        assert all(a is b for a, b in zip(tail._levels, g._levels[1:])), name
        assert tail.order() == g.order() // len(first.orbit)
        assert [x._tbl for x in tail.generators] == g._gens_at(1)


@pytest.mark.parametrize("n", [8, 12])
def test_stabilizer_inverts_transversals_as_it_needs_them(monkeypatch, n):
    """A stabilizer that reaches its order before the last Schreier generator inverts
    fewer of its key tree's transversals than the tree has keys."""
    k = symmetric_group(n)
    trees, inverted = [], []
    tree_tables, inverse = group._tree_tables, group._inverse_tbl
    monkeypatch.setattr(group, "_tree_tables",
                        lambda *args: trees.append(tree_tables(*args)) or trees[-1])
    monkeypatch.setattr(group, "_inverse_tbl", lambda t: inverted.append(t) or inverse(t))
    stab = _stabilizer(k, 0, lambda s, a: s[a])  # not getitem: the key's tree is walked
    u = trees[0]  # the key tree's transversals; later calls build the stabilizer's levels
    made = [t for t in inverted if any(t is x for x in u.values() if x is not k._ident)]
    assert stab.order() == math.factorial(n - 1) and len(u) == n
    assert 0 < len(made) < len(u) - 1


def test_stabilizer_at_the_regular_cap():
    """An orbit of exactly |K|/2 keys is walked in full; a longer one is regular."""
    s3 = symmetric_group(3)  # |S3| = 6 and the orbit of 1 has 3 = 6/2 points
    stab = _stabilizer(s3, 0, getitem)
    assert stab.order() == 2 and equals(stab, s3.point_stabilizer(1))
    for cycle in ("(1 2 3 4)", "(1 2 3 4 5)"):  # a regular orbit, |K| even and odd
        assert _stabilizer(from_generators([parse_cycles(cycle, 5)], 5), 0, getitem).order() == 1
    c3 = from_generators([parse_cycles("(1 2 3)(4 5 6)", 6)], 6)
    assert _stabilizer(c3, frozenset((0, 3)), lambda s, a: frozenset(s[p] for p in a)).order() == 1


def test_orbit_stabilizer_random():
    rng = random.Random(13)
    els7 = symmetric_group(7).elements()
    for _ in range(10):
        gens = [els7[rng.randrange(5040)] for _ in range(2)]
        g = from_generators(gens, 7)
        pt = rng.randint(1, 7)
        assert g.order() == len(g.orbit(pt)) * g.point_stabilizer(pt).order()


def test_conjugate_group():
    c3 = from_generators([parse_cycles("(1 2 3)", 4)], 4)
    moved = c3.conjugate(parse_cycles("(3 4)", 4))
    assert equals(moved, from_generators([parse_cycles("(1 2 4)", 4)], 4))
    assert equals(c3.conjugate(Permutation.identity(4)), c3)


def test_conjugate_preserves_order_random():
    rng = random.Random(17)
    els = symmetric_group(6).elements()
    for _ in range(10):
        g = from_generators([els[rng.randrange(720)], els[rng.randrange(720)]], 6)
        x = els[rng.randrange(720)]
        assert g.conjugate(x).order() == g.order()


def test_intersect_trivial():
    a = from_generators([parse_cycles("(1 2)", 3)], 3)
    b = from_generators([parse_cycles("(1 3)", 3)], 3)
    assert intersect(a, b).order() == 1


def test_intersect_example():
    c4 = from_generators([parse_cycles("(1 2 3 4)", 4)], 4)
    klein = from_generators(
        [parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)], 4
    )
    inter = intersect(c4, klein)
    # oracle: intersect the two element sets directly
    expected = set(c4.elements()) & set(klein.elements())
    assert set(inter.elements()) == expected
    assert inter.order() == 2
    assert parse_cycles("(1 3)(2 4)", 4) in inter


def test_intersect_self():
    g = s4()
    assert equals(intersect(g, g), g)


def test_intersect_limit():
    with pytest.raises(LimitExceeded, match="too large"):
        intersect(symmetric_group(8), symmetric_group(8), limit=100)


def test_intersect_conjugation_compatible():
    rng = random.Random(19)
    els = symmetric_group(6).elements()
    for _ in range(5):
        g1 = from_generators([els[rng.randrange(720)], els[rng.randrange(720)]], 6)
        g2 = from_generators([els[rng.randrange(720)], els[rng.randrange(720)]], 6)
        x = els[rng.randrange(720)]
        lhs = intersect(g1, g2).conjugate(x)
        rhs = intersect(g1.conjugate(x), g2.conjugate(x))
        assert equals(lhs, rhs)


def test_equals_and_subgroup():
    a = from_generators([parse_cycles("(1 2 3)", 4)], 4)
    b = from_generators([parse_cycles("(1 3 2)", 4)], 4)
    assert equals(a, b)
    assert subgroup_of(from_generators([parse_cycles("(1 2)", 4)], 4), s4())
    assert not subgroup_of(s4(), from_generators([parse_cycles("(1 2)", 4)], 4))


def test_symmetric_alternating_orders():
    assert symmetric_group(7).order() == 5040
    assert alternating_group(7).order() == 2520
    assert alternating_group(6).order() == 360


def test_base_points_ascend():
    for g in (s4(), symmetric_group(6), alternating_group(6)):
        b = g.base()
        assert b == sorted(b)


def test_bsgs_vs_closure_random_subgroups():
    rng = random.Random(29)
    els7 = symmetric_group(7).elements()
    for _ in range(10):
        gens = [els7[rng.randrange(5040)] for _ in range(rng.randint(1, 3))]
        g = from_generators(gens, 7)
        assert g.order() == len(brute_closure(gens, 7))


def test_read_generator_file():
    degree, gens = read_generator_file("5\n(1 2 3)\n(4 5)\n")
    assert degree == 5
    assert gens == [parse_cycles("(1 2 3)", 5), parse_cycles("(4 5)", 5)]
    with pytest.raises(ValueError):
        read_generator_file("")
    with pytest.raises(ValueError):
        read_generator_file("abc\n(1 2)")


def test_conjugate_levels_match_from_scratch(agl52):
    """Each level has the element set of its whole conjugator set filtered over all of H."""
    h = agl52.H
    sets = [[x._tbl for x in lvl.conjugators] for lvl in affine_chain(agl52).levels[1:]]
    # as built the sets are nested; reversed, each set lacks the one before
    for seq, orders in ((sets, [80, 16, 4, 1]), (sets[::-1], [1, 4, 16, 80])):
        got = list(h._conjugate_levels(seq))
        assert [set(_iter_element_tbls(g)) for g in got] == [
            set(_conjugate_members(h, c, _iter_element_tbls(h))) for c in seq
        ]
        assert [g.order() for g in got] == orders


def test_conjugate_levels_lazy(agl32, monkeypatch):
    h = agl32.H
    sets = [[x._tbl for x in lvl.conjugators] for lvl in affine_chain(agl32).levels[1:]]
    calls = []
    stabilizer = PermutationGroup._coset_stabilizer
    monkeypatch.setattr(
        PermutationGroup, "_coset_stabilizer",
        lambda self, k, x: calls.append(1) or stabilizer(self, k, x),
    )
    levels = h._conjugate_levels(sets)
    assert calls == []
    assert next(levels).order() == 12 and len(calls) == 1
