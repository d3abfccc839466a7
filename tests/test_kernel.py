"""The raw-table kernel and the conjugate-membership filter against slow references.

The references are the per-element Python forms the kernel replaced: generator
composition, scatter inversion and conjugation, the bottom-up recursive
element enumeration, and the filter written on the ``Permutation`` API.  Every
fast path must give the same tables, and the filter the same elements in the
same order.  Tables are bytes up to degree 256 and tuples above, so both
representations are checked, on either side of that boundary; every table a
group or a coset action keeps must have its degree's type.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from irrbase.affine import build_agl
from irrbase.elements import _conjugate_members, _iter_element_tbls
from irrbase.group import PermutationGroup, symmetric_group
from irrbase.oracle import build_coset_action
from irrbase.perm import (
    BYTES_DEGREE,
    Permutation,
    _compose_tbl,
    _composer,
    _cycles_tbl,
    _identity_tbl,
    _inverse_tbl,
    _is_identity_tbl,
    _pad,
    _table,
    _then,
    compose,
    conjugate,
    inverse,
    parse_cycles,
    print_cycles,
)

from test_group import point_stabilizer_corpus


def ref_compose(a, b):
    return _table([b[v] for v in a])


def ref_inverse(a):
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return _table(inv)


def ref_conjugate(g, x):
    """x^-1 g x by relabelling: point x[i] goes to x[g[i]]."""
    out = [0] * len(g)
    for i, v in enumerate(g):
        out[x[i]] = x[v]
    return _table(out)


def ref_iter_element_tbls(group):
    """The enumeration order every output depends on: level 0 slowest, orbits ascending."""
    levels = group._levels

    def rec(i):
        if i == len(levels):
            yield _table(range(group.degree))
            return
        lvl = levels[i]
        for b in sorted(lvl.orbit):
            for sub in rec(i + 1):
                yield ref_compose(sub, lvl.orbit[b])

    return rec(0)


def ref_conjugate_members(h, conjugators, pool):
    """The Permutation-API filter: e is kept iff e^(x^-1) = x e x^-1 lies in H for every x."""
    inverses = [inverse(x) for x in conjugators]
    return [e for e in pool if all(h.contains(e.conjugate(xi)) for xi in inverses)]


def perms(n, count):
    return st.tuples(*[st.permutations(range(n)).map(_table)] * count)


def same_degree(count, max_degree=12):
    return st.integers(0, max_degree).flatmap(lambda n: perms(n, count))


@given(same_degree(2))
@example((b"", b""))
@example((b"\0", b"\0"))
@example((b"\1\0", b"\0\1"))
@example((b"\1\0", b"\1\0"))
def test_compose_tbl(pair):
    a, b = pair
    c = _compose_tbl(a, b)
    assert type(c) is bytes and c == ref_compose(a, b)
    assert _then(a)(b + _pad(len(b))) == _composer(len(a))(a, b + _pad(len(b))) == c
    assert compose(Permutation._wrap(a), Permutation._wrap(b))._tbl == c
    # right action: i^(ab) = (i^a)^b, checked on the public 1-based API
    pa, pb = Permutation._wrap(a), Permutation._wrap(b)
    for i in range(1, len(a) + 1):
        assert (pa * pb).image(i) == pb.image(pa.image(i))


@given(same_degree(1))
@example((b"",))
@example((b"\0",))
@example((b"\1\0",))
def test_inverse_and_identity_tbl(one):
    (a,) = one
    n = len(a)
    inv = _inverse_tbl(a)
    assert inv == ref_inverse(a) == inverse(Permutation._wrap(a))._tbl
    assert _compose_tbl(a, inv) == _compose_tbl(inv, a) == _identity_tbl(n) == bytes(range(n))
    assert _is_identity_tbl(a) == all(i == v for i, v in enumerate(a))
    assert Permutation._wrap(a).is_identity() == _is_identity_tbl(a)
    assert _is_identity_tbl(_compose_tbl(a, inv))


@given(same_degree(2))
@example((b"", b""))
@example((b"\0", b"\0"))
@example((b"\1\0", b"\1\0"))
def test_conjugate_tbl(pair):
    g, x = pair
    pg, px = Permutation._wrap(g), Permutation._wrap(x)
    c = conjugate(pg, px)
    assert c._tbl == ref_conjugate(g, x) == pg.conjugate(px)._tbl
    assert c == compose(compose(inverse(px), pg), px)


@given(same_degree(1), st.integers(-5, 7))
@example((b"",), 3)
@example((b"\0",), -2)
def test_pow_matches_repeated_compose(one, e):
    (a,) = one
    base = a if e >= 0 else ref_inverse(a)
    want = _table(range(len(a)))
    for _ in range(abs(e)):
        want = ref_compose(want, base)
    assert (Permutation._wrap(a) ** e)._tbl == want


def small_groups(max_degree=7):
    """A group from 0-2 random generators, plus a pool group and conjugators, all of one degree."""
    return st.integers(0, max_degree).flatmap(
        lambda n: st.tuples(
            st.lists(st.permutations(range(n)).map(_table), max_size=2),
            st.lists(st.permutations(range(n)).map(_table), max_size=2),
            st.lists(st.permutations(range(n)).map(_table), max_size=3),
            st.just(n),
        )
    )


@given(small_groups())
@example(([], [], [b""], 0))
@example(([], [], [b"\0"], 1))
@example(([b"\1\0"], [], [b"\1\0"], 2))
@example(([b"\1\0\2"], [b"\0\2\1"], [], 3))
def test_conjugate_members_property(case):
    h_gens, k_gens, conjs, n = case
    h = PermutationGroup([Permutation._wrap(t) for t in h_gens], n)
    k = PermutationGroup([Permutation._wrap(t) for t in k_gens], n)
    assert list(_iter_element_tbls(h)) == list(ref_iter_element_tbls(h))
    pool = list(_iter_element_tbls(k))
    got = _conjugate_members(h, conjs, pool)
    want = ref_conjugate_members(
        h, [Permutation._wrap(x) for x in conjs], [Permutation._wrap(e) for e in pool]
    )
    assert got == [e._tbl for e in want]
    # the kept elements are exactly those of K lying in every H^x
    conjugates = [h.conjugate(Permutation._wrap(x)) for x in conjs]
    for e in pool:
        assert (e in got) == all(c.contains(Permutation._wrap(e)) for c in conjugates)


# -- differential test on the package's own groups ------------------------------


def _conjugator_cases(h, n, seed):
    rng = random.Random(seed)
    cases = []
    for _ in range(3):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        cases.append([Permutation(images)])
    elements = h.elements()
    cases.append([elements[rng.randrange(len(elements))]])  # from H: H^x = H
    cases.append([Permutation.identity(n)])
    cases.append([c[0] for c in cases])  # all at once
    return cases


@pytest.mark.parametrize(
    "ctx, group", [("agl32", "H"), ("agl71", "H"), ("wreath52", "M")],
    ids=["AGL(2,3)", "AGL(1,7)", "S5wrS2"],
)
def test_conjugate_members_matches_permutation_api(request, ctx, group):
    h = getattr(request.getfixturevalue(ctx), group)
    pool = h.elements()
    assert [e._tbl for e in pool] == list(ref_iter_element_tbls(h))
    for conjs in _conjugator_cases(h, h.degree, seed=h.order()):
        got = _conjugate_members(h, [x._tbl for x in conjs], _iter_element_tbls(h))
        want = ref_conjugate_members(h, conjs, pool)
        assert got == [e._tbl for e in want]
    # H^x = H for x in H, and for the identity: nothing is filtered out
    assert len(_conjugate_members(h, [pool[-1]._tbl], _iter_element_tbls(h))) == h.order()



# -- both representations, on either side of degree 256 ---------------------------

BOUNDARY = [0, 1, 2, 255, 256, 257]


def draw_table(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return _table(images)


@pytest.mark.parametrize("n", BOUNDARY + [3, 254, 300])
def test_table_type_rule(n):
    """A table is bytes if and only if its degree is at most 256, however it is made."""
    kind = bytes if n <= BYTES_DEGREE else tuple
    a = draw_table(random.Random(n), n)
    made = [_identity_tbl(n), _table(range(n)), a, _inverse_tbl(a), _compose_tbl(a, a),
            Permutation(list(range(1, n + 1)))._tbl, Permutation.identity(n)._tbl,
            _cycles_tbl([[0, 1]] if n > 1 else [], n), parse_cycles("()", n)._tbl]
    assert all(type(t) is kind for t in made)
    assert type(_pad(n)) is kind and len(a + _pad(n)) == max(n, BYTES_DEGREE)


@pytest.mark.parametrize("n", BOUNDARY)
@pytest.mark.parametrize("seed", range(3))
def test_kernel_at_the_boundary(n, seed):
    """Compose, inverse, identity and the Permutation API against the references."""
    rng = random.Random(f"{n}/{seed}")
    a, b = draw_table(rng, n), draw_table(rng, n)
    c = _compose_tbl(a, b)
    assert c == ref_compose(a, b)
    assert _then(a)(b + _pad(n)) == _composer(n)(a, b + _pad(n)) == c
    assert _inverse_tbl(a) == ref_inverse(a)
    assert _compose_tbl(a, _inverse_tbl(a)) == _identity_tbl(n) == _table(range(n))
    assert _is_identity_tbl(_identity_tbl(n)) and _is_identity_tbl(a) == (a == _table(range(n)))
    pa, pb = Permutation([v + 1 for v in a]), Permutation([v + 1 for v in b])
    assert pa._tbl == a and pa.images == tuple(v + 1 for v in a)
    assert (pa * pb)._tbl == c and (pa * pb).images == tuple(pb.image(pa.image(i))
                                                            for i in range(1, n + 1))
    assert (pa * pa.inverse()).is_identity() and pa.inverse()._tbl == ref_inverse(a)
    assert pa.conjugate(pb)._tbl == ref_conjugate(a, b) == conjugate(pa, pb)._tbl
    assert (pa ** 3)._tbl == ref_compose(ref_compose(a, a), a)
    assert parse_cycles(print_cycles(pa), n) == pa and hash(pa) == hash(Permutation._wrap(a))
    assert Permutation.identity(n)._tbl == _identity_tbl(n)


def kept_tables(g):
    """Every table a group's chain keeps: level orbits, inverses and tree generators."""
    for lvl in g._levels:
        yield from lvl.orbit.values()
        yield from lvl.inv.values()
        yield from (edge[1] for edge in lvl.tree.values() if edge is not None)
        yield from lvl.gens


def test_kept_tables_have_their_degrees_type(agl32, agl71, wreath52):
    """Every kept table, of a group or of a coset action on t <= 256 or t > 256 cosets,
    has the type of the identity table of its length."""
    groups = [g for _, g in point_stabilizer_corpus(agl32, agl71, wreath52)]
    groups += [build_agl(257, 1).H]  # degree 257: tuple tables
    actions = [build_coset_action(symmetric_group(7), agl71.H),  # t = 120
               build_coset_action(symmetric_group(9), agl32.H)]  # t = 840
    assert [a.degree for a in actions] == [120, 840]
    groups += [g for a in actions for g in (a.group, a.subgroup)]
    tables = [t for g in groups for t in kept_tables(g)]
    tables += [t for a in actions for level in a._tables.levels for t in level]
    tables += [t for a in actions for t in (*a._keys, *(x._tbl for x in a.transversal))]
    assert {len(t) for t in tables} >= {7, 9, 25, 120, 257, 840}
    assert all(type(t) is type(_identity_tbl(len(t))) for t in tables)
