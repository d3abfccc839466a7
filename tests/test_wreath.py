import random

import pytest

from irrbase.elements import intersect
from irrbase.perm import Permutation, compose, parse_cycles, parity
from irrbase.wreath import (
    WreathContext,
    _slice_map,
    build_wreath,
    embed_wreath_element,
    point_to_tuple,
    tuple_to_point,
    wreath_chain,
    wreath_conjugator,
)
from irrbase.wreath_predict import hamming, predicted_stabilizer, verify_intersection


def test_point_encoding():
    """Every point against the documented encoding point = 1 + sum((e_j - 1) m^j)."""
    for m, k in [(5, 2), (6, 2), (5, 3)]:
        _check_point_encoding(build_wreath(m, k), m, k)


def _check_point_encoding(ctx, m, k):
    assert tuple_to_point(ctx, (1,) * k) == 1
    assert tuple_to_point(ctx, (2,) + (1,) * (k - 1)) == 2
    assert tuple_to_point(ctx, (1, 2) + (1,) * (k - 2)) == m + 1
    for pt in range(1, m**k + 1):
        t = point_to_tuple(ctx, pt)
        assert len(t) == k and all(1 <= e <= m for e in t)
        assert 1 + sum((e - 1) * m**j for j, e in enumerate(t)) == pt
        assert tuple_to_point(ctx, t) == pt
    for bad in [(0,) + (1,) * (k - 1), (m + 1,) + (1,) * (k - 1), (1,) * (k + 1)]:
        with pytest.raises(ValueError):
            tuple_to_point(ctx, bad)
    for bad in (0, m**k + 1):
        with pytest.raises(ValueError, match="out of range"):
            point_to_tuple(ctx, bad)


def test_codecs_refuse_non_integers(wreath52):
    """An entry or point that is in range but not an integer is refused, not decoded."""
    for bad in [(1.5, 1), (1, "2")]:
        with pytest.raises(ValueError, match="out of range"):
            tuple_to_point(wreath52, bad)
    with pytest.raises(ValueError, match="out of range"):
        point_to_tuple(wreath52, 2.5)


def test_build_orders(wreath52):
    assert wreath52.M.order() == 28800
    assert wreath52.u == parse_cycles("(1 2 3 4 5)", 5)
    assert wreath52.U.order() == 5
    w62 = build_wreath(6, 2)
    assert w62.u == parse_cycles("(1 2 3 4 5)", 6)
    assert w62.U.order() == 5
    assert w62.M.order() == 1036800


def test_build_rejects():
    with pytest.raises(ValueError):
        build_wreath(4, 2)
    with pytest.raises(ValueError):
        build_wreath(5, 1)


def test_embed_identity(wreath52):
    idm = Permutation.identity(5)
    idk = Permutation.identity(2)
    assert embed_wreath_element(wreath52, [idm, idm], idk).is_identity()


def test_embed_first_coordinate(wreath52):
    # (u, id) with trivial top: applies u to the first coordinate everywhere
    x = embed_wreath_element(
        wreath52, [wreath52.u, Permutation.identity(5)], Permutation.identity(2)
    )
    for pt in range(1, 26):
        a, b = point_to_tuple(wreath52, pt)
        assert point_to_tuple(wreath52, x.image(pt)) == (wreath52.u.image(a), b)


def test_embed_coordinate_swap(wreath52):
    idm = Permutation.identity(5)
    w = embed_wreath_element(wreath52, [idm, idm], parse_cycles("(1 2)", 2))
    assert w.order() == 2
    fixed = [pt for pt in range(1, 26) if w.image(pt) == pt]
    assert fixed == [tuple_to_point(wreath52, (a, a)) for a in range(1, 6)]


def test_embed_homomorphism(wreath52):
    rng = random.Random(37)
    s5 = wreath52.sm.elements()
    s2 = wreath52.sk.elements()

    def rand_el():
        return [rng.choice(s5), rng.choice(s5)], rng.choice(s2)

    for _ in range(20):
        (v1, w1), (v2, w2) = rand_el(), rand_el()
        e1 = embed_wreath_element(wreath52, v1, w1)
        e2 = embed_wreath_element(wreath52, v2, w2)
        # product rule: blocks compose position-wise after the first top acts
        w1t = w1._tbl
        blocks = [compose(v1[i], v2[w1t[i]]) for i in range(2)]
        prod = embed_wreath_element(wreath52, blocks, compose(w1, w2))
        assert compose(e1, e2) == prod


def test_hamming():
    assert hamming((1, 1), (1, 2)) == 1
    assert hamming((1, 2, 3), (1, 2, 3)) == 0
    assert hamming((1, 2, 3), (3, 2, 1)) == 2
    with pytest.raises(ValueError):
        hamming((1, 2), (1, 2, 3))


def test_conjugator_shape(wreath52):
    x = wreath_conjugator(wreath52, 2, 1)
    cycles = x.cycles()
    assert len(cycles) == 1 and len(cycles[0]) == 5
    assert parity(x) == "even"
    for pt in range(1, 26):
        t = point_to_tuple(wreath52, pt)
        if t[1] != 1:
            assert x.image(pt) == pt
        else:
            assert point_to_tuple(wreath52, x.image(pt)) == (wreath52.u.image(t[0]), t[1])


def test_conjugator_even_m():
    w62 = build_wreath(6, 2)
    x = wreath_conjugator(w62, 2, 3)
    cycles = x.cycles()
    assert len(cycles) == 1 and len(cycles[0]) == 5  # |u| = m - 1 for even m


def test_conjugator_higher_coordinate_matches_direct():
    """The slice map for coordinate i is the i = 2 map conjugated by the coordinate swap (2 i)."""
    for m, k in [(5, 3), (6, 3), (5, 4), (7, 3)]:
        u = parse_cycles("(" + " ".join(map(str, range(1, m + 1 - (m + 1) % 2))) + ")", m)
        ctx = WreathContext(m, k, u)  # M is not needed
        for i in range(3, k + 1):
            swap = embed_wreath_element(ctx, [Permutation.identity(m)] * k,
                                        parse_cycles(f"(2 {i})", k))
            for r in range(1, m + 1):
                assert wreath_conjugator(ctx, i, r) == _slice_map(ctx, 2, r, u).conjugate(swap)


def test_predicted_stabilizer_orders(wreath52):
    grp = predicted_stabilizer(wreath52, 2, 1)
    assert grp.order() == 120  # 5 * 4! * 0!
    ctx53 = build_wreath(5, 3)
    assert predicted_stabilizer(ctx53, 3, 2).order() == 14400  # 5 * 120 * 24 * 1


def test_predicted_stabilizer_fixes_positions_1_and_i():
    # the top part of every generator fixes coordinate positions 1 and i:
    # the image value at those positions is a function of the input value there
    ctx = build_wreath(5, 3)
    i = 3
    grp = predicted_stabilizer(ctx, i, 2)
    for g in grp.generators:
        for pos in (1, i):
            value_map = {}
            for pt in range(1, ctx.n + 1):
                t = point_to_tuple(ctx, pt)
                ti = point_to_tuple(ctx, g.image(pt))
                prev = value_map.setdefault(t[pos - 1], ti[pos - 1])
                assert prev == ti[pos - 1]


def test_conjugator_commutes_with_predicted(wreath52):
    for (i, r) in [(2, 1), (2, 3), (2, 5)]:
        x = wreath_conjugator(wreath52, i, r)
        for g in predicted_stabilizer(wreath52, i, r).generators:
            assert compose(x, g) == compose(g, x)


def test_verify_intersection_examples(wreath52):
    assert verify_intersection(wreath52, 2, 1)
    assert verify_intersection(wreath52, 2, 5)


def test_hamming_invariance_negative_control(wreath52):
    # swapping two tuples at Hamming distance 2 is not distance preserving
    a = tuple_to_point(wreath52, (1, 1))
    b = tuple_to_point(wreath52, (2, 2))
    images = list(range(1, 26))
    images[a - 1], images[b - 1] = b, a
    swap = Permutation(images)
    violated = False
    for pt in range(1, 26):
        for qt in range(pt + 1, 26):
            t1, t2 = point_to_tuple(wreath52, pt), point_to_tuple(wreath52, qt)
            i1 = point_to_tuple(wreath52, swap.image(pt))
            i2 = point_to_tuple(wreath52, swap.image(qt))
            if hamming(i1, i2) != hamming(t1, t2):
                violated = True
    assert violated


def test_wreath_chain_52(wreath52):
    cert = wreath_chain(wreath52)
    assert cert.claimed_length == 6  # 1 + (m-1)(k-1) + 1
    assert [lvl.order for lvl in cert.levels] == [28800, 120, 30, 10, 5, 1]
    prev = set()
    for lvl in cert.levels:
        cur = {x._tbl for x in lvl.conjugators}
        assert prev <= cur
        prev = cur


def test_wreath_chain_level_groups_match_predictions(wreath52):
    # level (2, r) is the predicted stabilizer intersected over markers 1..r
    cert = wreath_chain(wreath52)
    running = None
    for r, lvl in zip(range(1, 5), cert.levels[1:5]):
        pred = predicted_stabilizer(wreath52, 2, r)
        running = pred if running is None else intersect(running, pred)
        assert running.order() == lvl.order
