"""The raw-table kernel and the conjugate-membership filter against slow references.

The references are the per-element Python forms the kernel replaced: generator
composition, scatter inversion and conjugation, the bottom-up recursive
element enumeration, and the filter written on the ``Permutation`` API.  Every
fast path must give the same tables, and the filter the same elements in the
same order.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st

from irrbase.group import PermutationGroup
from irrbase.perm import (
    Permutation,
    _compose_tbl,
    _identity_tbl,
    _inverse_tbl,
    _is_identity_tbl,
    compose,
    conjugate,
    inverse,
)


def ref_compose(a, b):
    return tuple(b[v] for v in a)


def ref_inverse(a):
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return tuple(inv)


def ref_conjugate(g, x):
    """x^-1 g x by relabelling: point x[i] goes to x[g[i]]."""
    out = [0] * len(g)
    for i, v in enumerate(g):
        out[x[i]] = x[v]
    return tuple(out)


def ref_iter_element_tbls(group):
    """The enumeration order every output depends on: level 0 slowest, orbits ascending."""
    levels = group._levels

    def rec(i):
        if i == len(levels):
            yield tuple(range(group.degree))
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
    return st.tuples(*[st.permutations(range(n)).map(tuple)] * count)


def same_degree(count, max_degree=12):
    return st.integers(0, max_degree).flatmap(lambda n: perms(n, count))


@given(same_degree(2))
@example(((), ()))
@example(((0,), (0,)))
@example(((1, 0), (0, 1)))
@example(((1, 0), (1, 0)))
def test_compose_tbl(pair):
    a, b = pair
    c = _compose_tbl(a, b)
    assert type(c) is tuple and c == ref_compose(a, b)
    assert compose(Permutation._wrap(a), Permutation._wrap(b))._tbl == c
    # right action: i^(ab) = (i^a)^b, checked on the public 1-based API
    pa, pb = Permutation._wrap(a), Permutation._wrap(b)
    for i in range(1, len(a) + 1):
        assert (pa * pb).image(i) == pb.image(pa.image(i))


@given(same_degree(1))
@example(((),))
@example(((0,),))
@example(((1, 0),))
def test_inverse_and_identity_tbl(one):
    (a,) = one
    n = len(a)
    inv = _inverse_tbl(a)
    assert inv == ref_inverse(a) == inverse(Permutation._wrap(a))._tbl
    assert _compose_tbl(a, inv) == _compose_tbl(inv, a) == _identity_tbl(n) == tuple(range(n))
    assert _is_identity_tbl(a) == all(i == v for i, v in enumerate(a))
    assert Permutation._wrap(a).is_identity() == _is_identity_tbl(a)
    assert _is_identity_tbl(_compose_tbl(a, inv))


@given(same_degree(2))
@example(((), ()))
@example(((0,), (0,)))
@example(((1, 0), (1, 0)))
def test_conjugate_tbl(pair):
    g, x = pair
    pg, px = Permutation._wrap(g), Permutation._wrap(x)
    c = conjugate(pg, px)
    assert c._tbl == ref_conjugate(g, x) == pg.conjugate(px)._tbl
    assert c == compose(compose(inverse(px), pg), px)


@given(same_degree(1), st.integers(-5, 7))
@example(((),), 3)
@example(((0,),), -2)
def test_pow_matches_repeated_compose(one, e):
    (a,) = one
    base = a if e >= 0 else ref_inverse(a)
    want = tuple(range(len(a)))
    for _ in range(abs(e)):
        want = ref_compose(want, base)
    assert (Permutation._wrap(a) ** e)._tbl == want


def small_groups(max_degree=7):
    """A group from 0-2 random generators, plus a pool group and conjugators, all of one degree."""
    return st.integers(0, max_degree).flatmap(
        lambda n: st.tuples(
            st.lists(st.permutations(range(n)).map(tuple), max_size=2),
            st.lists(st.permutations(range(n)).map(tuple), max_size=2),
            st.lists(st.permutations(range(n)).map(tuple), max_size=3),
            st.just(n),
        )
    )


@given(small_groups())
@example(([], [], [()], 0))
@example(([], [], [(0,)], 1))
@example(([(1, 0)], [], [(1, 0)], 2))
@example(([(1, 0, 2)], [(0, 2, 1)], [], 3))
def test_conjugate_members_property(case):
    h_gens, k_gens, conjs, n = case
    h = PermutationGroup([Permutation._wrap(t) for t in h_gens], n)
    k = PermutationGroup([Permutation._wrap(t) for t in k_gens], n)
    assert list(h._iter_element_tbls()) == list(ref_iter_element_tbls(h))
    pool = list(k._iter_element_tbls())
    got = h._conjugate_members(conjs, pool)
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
        got = h._conjugate_members([x._tbl for x in conjs], h._iter_element_tbls())
        want = ref_conjugate_members(h, conjs, pool)
        assert got == [e._tbl for e in want]
    # H^x = H for x in H, and for the identity: nothing is filtered out
    assert len(h._conjugate_members([pool[-1]._tbl], h._iter_element_tbls())) == h.order()

