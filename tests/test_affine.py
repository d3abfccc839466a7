import math
import random

import pytest

from irrbase.affine import (
    affine_to_permutation,
    build_agl,
    point_to_vector,
    prime_factors,
    smallest_primitive_root,
    vector_to_point,
)
from irrbase.agl_chain import (
    affine_chain,
    coordinate_power_conjugator,
    cycle_power_conjugator,
    diagonal_chain,
    gl_subspace_stabilizer,
    scalar_conjugator,
    subspace_chain,
    subspace_index_pairs,
    subspace_scaling_conjugator,
)
from irrbase.certificate import PRIME_TEST_BOUND, check_family_params, is_prime
from irrbase.chain import build_chain
from irrbase.elements import equals, intersect
from irrbase.group import from_generators
from irrbase.perm import Permutation, compose, parse_cycles, print_cycles


def test_point_encoding(agl32, agl71, agl52):
    """Every point against the documented encoding point = 1 + sum(c_j p^j)."""
    for ctx in (agl32, agl71, agl52):
        _check_point_encoding(ctx)


def _check_point_encoding(ctx):
    p, d = ctx.p, ctx.d
    assert vector_to_point(ctx, (0,) * d) == 1
    assert vector_to_point(ctx, (1,) + (0,) * (d - 1)) == 2
    assert vector_to_point(ctx, (0,) * (d - 1) + (1,)) == p ** (d - 1) + 1
    for pt in range(1, p**d + 1):
        v = point_to_vector(ctx, pt)
        assert len(v) == d and all(0 <= c < p for c in v)
        assert 1 + sum(c * p**j for j, c in enumerate(v)) == pt
        assert vector_to_point(ctx, v) == pt
    for bad in [(p,) + (0,) * (d - 1), (-1,) + (0,) * (d - 1), (0,) * (d + 1)]:
        with pytest.raises(ValueError):
            vector_to_point(ctx, bad)
    for bad in (0, p**d + 1):
        with pytest.raises(ValueError, match="out of range"):
            point_to_vector(ctx, bad)


def test_codecs_refuse_non_integers(agl32):
    """A coordinate or point that is in range but not an integer is refused, not decoded."""
    for bad in [(0.5, 0), (0, "1")]:
        with pytest.raises(ValueError, match="out of range"):
            vector_to_point(agl32, bad)
    assert vector_to_point(agl32, (1.0, 0)) == 2  # an integral float names its point
    with pytest.raises(ValueError, match="out of range"):
        point_to_vector(agl32, 1.5)


def test_identity_map(agl32):
    assert affine_to_permutation(agl32, [[1, 0], [0, 1]]).is_identity()


def test_translation_is_regular(agl71):
    tr = affine_to_permutation(agl71, [[1]], [1])
    assert print_cycles(tr) == "(1 2 3 4 5 6 7)"


def test_multiplication_orbit(agl71):
    # v -> 3v: 3 is a primitive root mod 7; the nonzero orbit is 1,3,2,6,4,5
    m3 = affine_to_permutation(agl71, [[3]])
    assert m3.image(vector_to_point(agl71, (0,))) == vector_to_point(agl71, (0,))
    orbit = [1]
    for _ in range(5):
        orbit.append(3 * orbit[-1] % 7)
    assert orbit == [1, 3, 2, 6, 4, 5]
    for a, b in zip(orbit, orbit[1:] + orbit[:1]):
        assert m3.image(vector_to_point(agl71, (a,))) == vector_to_point(agl71, (b,))


def test_singular_matrix_rejected(agl32):
    with pytest.raises(ValueError, match="singular"):
        affine_to_permutation(agl32, [[1, 2], [2, 4]])


def test_affine_map_homomorphism(agl32):
    # permutation of a composite equals the composite of permutations
    rng = random.Random(31)
    p = agl32.p

    def random_invertible():
        while True:
            rows = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
            if (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % p:
                return rows

    for _ in range(20):
        a, ta = random_invertible(), [rng.randrange(p), rng.randrange(p)]
        b, tb = random_invertible(), [rng.randrange(p), rng.randrange(p)]
        pa = affine_to_permutation(agl32, a, ta)
        pb = affine_to_permutation(agl32, b, tb)
        # (v)(ab) = (va + ta)b + tb: matrix product ab, translation ta*b + tb
        ab = [
            [sum(a[i][l] * b[l][j] for l in range(2)) % p for j in range(2)]
            for i in range(2)
        ]
        tab = [
            (sum(ta[l] * b[l][j] for l in range(2)) + tb[j]) % p for j in range(2)
        ]
        assert compose(pa, pb) == affine_to_permutation(agl32, ab, tab)


def test_build_agl_orders(agl71, agl32, agl52):
    assert agl71.H.order() == 42
    assert agl32.H.order() == 432  # 9 * (9-1) * (9-3)
    assert agl52.H.order() == 12000  # 25 * 24 * 20
    assert agl32.T.order() == 4
    assert all(g.order() == agl32.p - 1 for g in agl32.diag_gens)


def test_build_agl_rejects_bad_p():
    with pytest.raises(ValueError, match="not prime"):
        build_agl(9, 1)
    with pytest.raises(ValueError, match="odd p"):
        build_agl(2, 3)


def test_primitive_roots():
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(11) == 2
    assert smallest_primitive_root(13) == 2


def test_scalar_conjugator_pairs(agl71):
    # mu = 3: pairs of field elements {1,5}, {3,4}, {2,6}
    x = scalar_conjugator(agl71)
    pairs = set()
    for a in range(1, 7):
        pa = vector_to_point(agl71, (a,))
        image = point_to_vector(agl71, x.image(pa))[0]
        pairs.add(frozenset((a, image)))
    assert pairs == {frozenset((1, 5)), frozenset((3, 4)), frozenset((2, 6))}


def test_scalar_conjugator_cuts_to_diagonal(agl71):
    x = scalar_conjugator(agl71)
    inter = intersect(agl71.H, agl71.H.conjugate(x))
    assert inter.order() == 6
    assert equals(inter, agl71.T)


def test_scalar_conjugator_p11():
    ctx = build_agl(11, 1)
    x = scalar_conjugator(ctx)
    inter = intersect(ctx.H, ctx.H.conjugate(x))
    assert equals(inter, ctx.T)


def test_scalar_conjugator_requires_d1(agl32):
    with pytest.raises(ValueError):
        scalar_conjugator(agl32)


def test_subspace_scaling_small(agl32):
    x = subspace_scaling_conjugator(agl32, [(1, 0)], 2)
    inter = intersect(agl32.H, agl32.H.conjugate(x))
    assert inter.order() == 12  # |GL(2,3)| = 48, 4 lines, line stabilizer order 12
    assert equals(inter, gl_subspace_stabilizer(agl32, [(1, 0)]))


def test_subspace_scaling_fixes_complement(agl32):
    x = subspace_scaling_conjugator(agl32, [(1, 0)], 2)
    w = {vector_to_point(agl32, (c, 0)) for c in range(3)}
    assert x.image(vector_to_point(agl32, (0, 0))) == vector_to_point(agl32, (0, 0))
    for pt in range(1, 10):
        if pt not in w:
            assert x.image(pt) == pt


def test_subspace_scaling_p5(agl52):
    x = subspace_scaling_conjugator(agl52, [(0, 1)], 2)
    inter = intersect(agl52.H, agl52.H.conjugate(x))
    assert equals(inter, gl_subspace_stabilizer(agl52, [(0, 1)]))


def test_subspace_scaling_rejects(agl32):
    with pytest.raises(ValueError):
        subspace_scaling_conjugator(agl32, [], 2)  # trivial subspace
    with pytest.raises(ValueError):
        subspace_scaling_conjugator(agl32, [(1, 0), (0, 1)], 2)  # all of V
    with pytest.raises(ValueError):
        subspace_scaling_conjugator(agl32, [(1, 0)], 1)  # lam = 1


def test_subspace_index_pairs():
    assert subspace_index_pairs(2) == [(1, 1), (2, 2)]
    assert len(subspace_index_pairs(3)) == 5


def test_subspace_chain_descends_to_diagonal(agl32):
    steps = subspace_chain(agl32)
    assert [s.coords for s in steps] == [(1, 1), (2, 2)]
    running = agl32.H
    for s in steps:
        nxt = intersect(running, agl32.H.conjugate(s.conjugator))
        # the witness separates consecutive levels
        assert running.contains(s.witness) and not nxt.contains(s.witness)
        assert nxt.order() < running.order()
        assert equals(nxt, intersect(running, s.stabilizer))
        running = nxt
    assert equals(running, agl32.T)
    assert running.order() == 4


def test_cycle_power_conjugator_blocks():
    x = cycle_power_conjugator(6, 2, 7)
    assert print_cycles(x) == "(1 2)(3 4)(5 6)"
    s = parse_cycles("(1 2 3 4 5 6)", 7)
    inter = _cyclic_intersection(s, x)
    assert inter == _cyclic_subgroup_elements(s, 2)
    assert len(inter) == 3


def test_cycle_power_conjugator_full_kill():
    s = parse_cycles("(1 2 3 4 5 6)", 7)
    x = cycle_power_conjugator(6, 6, 7)
    assert print_cycles(x) == "(1 7)"
    assert _cyclic_intersection(s, x) == {Permutation.identity(7)}


def test_cycle_power_conjugator_identity_case():
    s = parse_cycles("(1 2 3 4 5 6)", 7)
    x = cycle_power_conjugator(6, 1, 7)
    assert x.is_identity()
    assert _cyclic_intersection(s, x) == _cyclic_subgroup_elements(s, 1)


def test_cycle_power_conjugator_rejects():
    with pytest.raises(ValueError, match="excluded"):
        cycle_power_conjugator(4, 2, 6)
    with pytest.raises(ValueError):
        cycle_power_conjugator(6, 4, 7)
    with pytest.raises(ValueError):
        cycle_power_conjugator(6, 2, 6)


def _cyclic_subgroup_elements(s, a):
    """Elements of <s^a>, by iteration."""
    p = s**a
    out = {Permutation.identity(s.degree)}
    q = p
    while not q.is_identity():
        out.add(q)
        q = compose(q, p)
    return out


def _cyclic_intersection(s, x):
    """<s> ∩ <s>^x by brute enumeration of <s>."""
    conj = {compose(compose(x**-1, g), x) for g in _cyclic_subgroup_elements(s, 1)}
    return _cyclic_subgroup_elements(s, 1) & conj


def test_coordinate_power_conjugator_72():
    ctx = build_agl(7, 2)
    y = coordinate_power_conjugator(ctx, 1, 2)
    inter = intersect(ctx.T, ctx.T.conjugate(y))
    assert inter.order() == 18
    predicted = from_generators([ctx.diag_gens[0] ** 2, ctx.diag_gens[1]], ctx.n)
    assert equals(inter, predicted)


def test_coordinate_power_conjugator_71(agl71):
    y = coordinate_power_conjugator(agl71, 1, 6)
    assert intersect(agl71.T, agl71.T.conjugate(y)).order() == 1


def test_coordinate_power_conjugator_32(agl32):
    y = coordinate_power_conjugator(agl32, 2, 2)
    inter = intersect(agl32.T, agl32.T.conjugate(y))
    assert inter.order() == 2
    assert equals(inter, from_generators([agl32.diag_gens[0]], agl32.n))


def test_coordinate_power_conjugator_excluded():
    ctx = build_agl(5, 1)
    with pytest.raises(ValueError, match="excluded"):
        coordinate_power_conjugator(ctx, 1, 2)


def test_diagonal_chain_lengths(agl52, agl71):
    assert len(diagonal_chain(agl52)) == 2  # l2 = d for p = 5
    ctx72 = build_agl(7, 2)
    steps = diagonal_chain(ctx72)
    assert len(steps) == 4  # d * Omega(p - 1) = 2 * 2
    assert [s.predicted.order() for s in steps] == [18, 6, 3, 1]
    assert prime_factors(6) == [2, 3]


def test_diagonal_chain_31():
    ctx = build_agl(3, 1)
    steps = diagonal_chain(ctx)
    assert len(steps) == 1
    assert steps[0].predicted.order() == 1


def test_diagonal_chain_intersections_match_prediction(agl32):
    for step in diagonal_chain(agl32):
        running = agl32.T
        for y in step.conjugators:
            running = intersect(running, agl32.T.conjugate(y))
        assert equals(running, step.predicted)


def test_affine_chain_32(agl32):
    cert = affine_chain(agl32)
    assert cert.claimed_length == 5
    assert [lvl.order for lvl in cert.levels] == [432, 12, 4, 2, 1]


def test_affine_chain_71(agl71):
    cert = affine_chain(agl71)
    assert cert.claimed_length == 4
    assert [lvl.order for lvl in cert.levels] == [42, 6, 3, 1]


def test_affine_chain_72():
    cert = affine_chain(build_agl(7, 2))
    assert cert.claimed_length == 7
    orders = [lvl.order for lvl in cert.levels]
    assert orders[0] == 98784 and orders[-1] == 1
    assert all(a > b for a, b in zip(orders, orders[1:]))


def test_affine_chain_rejects_small():
    with pytest.raises(ValueError, match="out of.*range|< 7"):
        affine_chain(build_agl(5, 1))


def test_affine_chain_conjugator_sets_nested(agl32):
    cert = affine_chain(agl32)
    prev = set()
    for lvl in cert.levels:
        cur = {x._tbl for x in lvl.conjugators}
        assert prev <= cur
        prev = cur


def test_agl23_order_vs_closure(agl32):
    from conftest import brute_closure

    assert agl32.H.order() == len(brute_closure(agl32.H.generators, 9)) == 432


def test_scalar_conjugator_equality_all_line_cases():
    # the two-point-stabilizer claim holds on every 1-dimensional test context
    for p in (7, 11, 13):
        ctx = build_agl(p, 1)
        x = scalar_conjugator(ctx)
        assert equals(intersect(ctx.H, ctx.H.conjugate(x)), ctx.T)


def test_subspace_conjugator_equality_72():
    ctx = build_agl(7, 2)
    x = subspace_scaling_conjugator(ctx, [(1, 0)])
    inter = intersect(ctx.H, ctx.H.conjugate(x))
    assert equals(inter, gl_subspace_stabilizer(ctx, [(1, 0)]))


def test_maximality_consistent_with_contexts():
    from irrbase.bounds import maximality_affine

    for p, d in [(7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (7, 2), (3, 3)]:
        assert maximality_affine(p, d, "S")


def _trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_against_trial_division():
    """Miller-Rabin over the primes 2..41 against trial division, the slow reference."""
    for n in range(-3, 20_000):
        assert is_prime(n) == _trial_division_is_prime(n), n
    rng = random.Random(7)
    for n in (rng.randrange(10**9, 10**12) for _ in range(200)):
        assert is_prime(n) == _trial_division_is_prime(n), n


@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461, PRIME_TEST_BOUND - 2,
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    """Composite: the least strong pseudoprimes to the first k prime bases, k <= 12, and one more."""
    assert not is_prime(n)


def test_is_prime_refuses_from_its_bound():
    """PRIME_TEST_BOUND is the least strong pseudoprime to all 13 bases: refused, never guessed."""
    assert is_prime(10**20 + 39) and not is_prime(10**20 + 41)
    for n in (PRIME_TEST_BOUND, PRIME_TEST_BOUND + 2, 10**5000 + 1):
        with pytest.raises(ValueError, match="too large to test for primality"):
            is_prime(n)
    with pytest.raises(ValueError, match="too large to test for primality"):
        check_family_params("agl", {"p": PRIME_TEST_BOUND, "d": 1})


def test_build_chain_refuses_a_level_that_does_not_descend(agl71):
    ident = Permutation.identity(agl71.n)
    with pytest.raises(RuntimeError, match="^chain failed to descend at level 2$"):
        build_chain(agl71.H, [[ident, scalar_conjugator(agl71)]] * 2, "agl", {"p": 7, "d": 1})


def test_build_chain_refuses_a_chain_that_ends_above_1(agl71):
    ident = Permutation.identity(agl71.n)
    with pytest.raises(RuntimeError, match="^chain did not terminate at the trivial group$"):
        build_chain(agl71.H, [[ident, scalar_conjugator(agl71)]], "agl", {"p": 7, "d": 1})
