"""Affine groups AGL(d, p) inside Sym(p^d), and chains of conjugate intersections.

Points are the vectors of V = F_p^d under the encoding
``point = 1 + sum(coords[j] * p^j)`` (0-based j), so the zero vector is
point 1.  The context keeps that encoding as two tables, the vectors in
point order and a dict from each vector to its point, so every affine
permutation is one map on coordinates read through them.  H = AGL(V) is
generated by elementary transvections, the diagonal map scaling the first
basis vector by a primitive root, and the basis translations; T is the group
of diagonal matrices.  GL(V), the stabilizer of the zero vector, is H's
chain from its second level: every translation moves the zero vector, so it
is H's first base point, and no second Schreier-Sims is run.

The chain builders return certificates whose levels descend from H through
subspace stabilizers to T and on through diagonal subgroups to the trivial
group, every level realized as an intersection of conjugates of H with
explicit conjugating permutations.  Only odd p is supported; even
characteristic is out of scope here.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from operator import getitem, mul
from typing import Optional, Sequence

from .certificate import (ChainCertificate, build_chain, check_degree, check_family_params,
                          family_order, prime_factors)
from .group import ENUM_LIMIT_DEFAULT, PermutationGroup, _stabilizer, equals
from .perm import Permutation, compose

# -- small number theory -----------------------------------------------------


def smallest_primitive_root(p: int) -> int:
    distinct = sorted(set(prime_factors(p - 1)))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in distinct):
            return g
    raise ValueError(f"{p} has no primitive root; not an odd prime?")


# -- context -----------------------------------------------------------------


class AffineContext:
    """V = F_p^d realized on {1..p^d}, with H = AGL(V), GL(V), and the diagonal group T.

    ``vectors[i]`` is the coordinate tuple of point i + 1 and ``points`` maps it
    back; :func:`build_agl` sets the groups.
    """

    def __init__(self, p: int, d: int, mu: int):
        self.p = p
        self.d = d
        self.n = p**d
        self.mu = mu  # smallest primitive root mod p
        self.vectors = [v[::-1] for v in product(range(p), repeat=d)]  # coordinate 0 fastest
        self.points = {v: pt for pt, v in enumerate(self.vectors, 1)}
        self.H = None  # AGL(V)
        self.gl = None  # GL(V), the stabilizer of the zero vector in H
        self.T = None  # diagonal matrices
        self.diag_gens = None  # g_i scales basis vector i by mu; order p - 1 each


def vector_to_point(ctx: AffineContext, coords: Sequence[int]) -> int:
    """1-based point of a coordinate vector; the zero vector is point 1."""
    if len(coords) != ctx.d:
        raise ValueError(f"expected {ctx.d} coordinates, got {len(coords)}")
    for c in reversed(coords):
        if c not in range(ctx.p):  # refuses a non-integer too
            raise ValueError(f"coordinate {c} out of range 0..{ctx.p - 1}")
    return ctx.points[tuple(coords)]


def point_to_vector(ctx: AffineContext, point: int) -> tuple:
    if point not in range(1, ctx.n + 1):
        raise ValueError(f"point {point} out of range 1..{ctx.n}")
    return ctx.vectors[point - 1]


def affine_to_permutation(
    ctx: AffineContext, matrix: Sequence[Sequence[int]], translation: Optional[Sequence[int]] = None
) -> Permutation:
    """Permutation of the points sending v to v*matrix + translation.

    ``matrix[i]`` is the image of basis vector i (row convention).  Raises
    ValueError for a singular matrix.
    """
    p, d = ctx.p, ctx.d
    if translation is None:
        translation = (0,) * d
    rows = [tuple(int(x) % p for x in row) for row in matrix]
    t = tuple(int(x) % p for x in translation)
    if len(rows) != d or any(len(r) != d for r in rows) or len(t) != d:
        raise ValueError(f"matrix must be {d}x{d} and translation length {d}")
    cols = list(zip(t, *rows))  # per coordinate j: t_j, then column j of the matrix
    images = [ctx.points[tuple(sum(map(mul, (1,) + v, col)) % p for col in cols)]
              for v in ctx.vectors]
    if len(set(images)) != ctx.n:
        raise ValueError("singular matrix: affine map is not a bijection")
    return Permutation(images)


def build_agl(p: int, d: int) -> AffineContext:
    """Construct AGL(d, p) on p^d points, for odd prime p and d >= 1."""
    params = {"p": p, "d": d}
    check_family_params("agl", params)
    n = p**d
    order = family_order("agl", params, n, "S")
    mu = smallest_primitive_root(p)
    ctx = AffineContext(p, d, mu)

    def basis_rows():
        return [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    gl_gens = []
    scale_first = basis_rows()
    scale_first[0][0] = mu
    gl_gens.append(affine_to_permutation(ctx, scale_first))
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            rows = basis_rows()
            rows[i][j] = 1  # transvection: b_i -> b_i + b_j
            gl_gens.append(affine_to_permutation(ctx, rows))
    translations = []
    for j in range(d):
        t = [0] * d
        t[j] = 1
        translations.append(affine_to_permutation(ctx, basis_rows(), t))

    h = PermutationGroup(gl_gens + translations, n)
    if h.order() != order:
        raise RuntimeError(f"|AGL| = {h.order()}, expected {order}")

    diag_gens = []
    for i in range(d):
        rows = basis_rows()
        rows[i][i] = mu
        diag_gens.append(affine_to_permutation(ctx, rows))
    t_group = PermutationGroup(diag_gens, n)
    if t_group.order() != (p - 1) ** d:
        raise RuntimeError(f"|T| = {t_group.order()}, expected {(p - 1) ** d}")

    ctx.H = h
    ctx.gl = _stabilizer(h, 0, getitem)  # H is transitive: |H_0| = |H| / n = |GL(V)|
    ctx.T = t_group
    ctx.diag_gens = diag_gens
    return ctx


# -- subspaces ---------------------------------------------------------------


def span_points(ctx: AffineContext, basis: Sequence[Sequence[int]]) -> set:
    """All points of the subspace spanned by the given coordinate vectors."""
    p, d = ctx.p, ctx.d
    vecs = {(0,) * d}
    for b in basis:
        b = tuple(int(x) % p for x in b)
        new = set()
        for v in vecs:
            for c in range(p):
                new.add(tuple((v[j] + c * b[j]) % p for j in range(d)))
        vecs = new
    return {ctx.points[v] for v in vecs}


def gl_subspace_stabilizer(ctx: AffineContext, basis: Sequence[Sequence[int]]) -> PermutationGroup:
    """Setwise stabilizer of a linear subspace in GL(V), by orbit-stabilizer on point sets."""
    w = frozenset(pt - 1 for pt in span_points(ctx, basis))
    return _stabilizer(ctx.gl, w, lambda s, pts: frozenset(s[p] for p in pts))


def scalar_conjugator(ctx: AffineContext) -> Permutation:
    """For d = 1: a pairing x of nonzero field elements with H ∩ H^x = T.

    x swaps mu^i with mu^(-i-1) (as multiples of the fixed nonzero vector u)
    for i = 0 .. (p-3)/2, fixing zero; conjugation by x inverts the scalar
    group while destroying the translations.
    """
    if ctx.d != 1:
        raise ValueError("scalar_conjugator requires d = 1")
    check_degree(ctx.n)
    p, mu = ctx.p, ctx.mu
    # c -> 1/(c mu) sends mu^i to mu^(-i-1), and 0 to 0 by Fermat: pow(0, p - 2, p) = 0
    return Permutation([ctx.points[(pow(c * mu, p - 2, p),)] for (c,) in ctx.vectors])


def subspace_scaling_conjugator(
    ctx: AffineContext, basis: Sequence[Sequence[int]], lam: Optional[int] = None
) -> Permutation:
    """x scaling a proper nontrivial subspace W by lam != 1 and fixing all other points.

    H ∩ H^x is the setwise stabilizer of W in GL(V) (for d >= 2, p >= 3).
    """
    if ctx.d < 2:
        raise ValueError("subspace scaling requires d >= 2")
    lam = ctx.mu if lam is None else lam % ctx.p
    if lam in (0, 1):
        raise ValueError(f"lam must be a field element other than 0 and 1, got {lam}")
    w = span_points(ctx, basis)
    if len(w) in (1, ctx.n):
        raise ValueError("subspace must be proper and non-trivial")
    p = ctx.p
    return Permutation([ctx.points[tuple(lam * c % p for c in v)] if pt in w else pt
                        for pt, v in enumerate(ctx.vectors, 1)])


class SubspaceStep:
    """One stabilizer in the subspace chain, with witnesses for strict descent."""

    def __init__(self, ctx: AffineContext, coords: tuple, basis: list,
                 witness: Permutation, conjugator: Permutation):
        self.ctx = ctx
        self.coords = coords  # (i, j), 1-based: the subspace spanned by basis vectors i..j
        self.basis = basis  # coordinate vectors of basis vectors i..j
        self.witness = witness  # lies in all earlier stabilizers but not this one
        self.conjugator = conjugator  # realizes the stabilizer as H ∩ H^x

    @cached_property
    def stabilizer(self) -> PermutationGroup:
        """Setwise stabilizer in GL(V), by orbit-stabilizer; built on first access."""
        return gl_subspace_stabilizer(self.ctx, self.basis)


def subspace_index_pairs(d: int) -> list:
    """Lexicographic pairs (i, j) with 1 <= i <= j <= d, omitting (1, d)."""
    return [(i, j) for i in range(1, d + 1) for j in range(i, d + 1) if (i, j) != (1, d)]


def subspace_chain(ctx: AffineContext) -> list:
    """The descending chain of subspace stabilizers from H to T (d >= 2).

    Returns d(d+1)/2 - 1 steps; intersecting the stabilizers in order descends
    strictly, ending at the diagonal group T.
    """
    if ctx.d < 2:
        raise ValueError("subspace_chain requires d >= 2")
    d = ctx.d
    steps = []
    for (i, j) in subspace_index_pairs(d):
        basis = []
        for c in range(i, j + 1):
            e = [0] * d
            e[c - 1] = 1
            basis.append(e)
        rows = [[1 if a == b else 0 for b in range(d)] for a in range(d)]
        if i == 1:
            rows[j - 1][j] = 1  # b_j -> b_j + b_{j+1}; j < d since (1, d) is omitted
        else:
            rows[j - 1][i - 2] = 1  # b_j -> b_{i-1} + b_j
        steps.append(
            SubspaceStep(
                ctx=ctx,
                coords=(i, j),
                basis=basis,
                witness=affine_to_permutation(ctx, rows),
                conjugator=subspace_scaling_conjugator(ctx, basis),
            )
        )
    return steps


# -- chains inside the diagonal group ----------------------------------------


def cycle_power_conjugator(k: int, a: int, m: int) -> Permutation:
    """x in Sym(m) with <s> ∩ <s>^x = <s^a> for the k-cycle s = (1 2 ... k).

    Requires a | k, k < m, and (k, a) != (4, 2).  For a = 1 the identity
    works; for a = k the transposition (1 m) works; otherwise x is the
    product of the k/a blocks (1 ... a)(a+1 ... 2a)...(k-a+1 ... k).
    """
    if k >= m:
        raise ValueError(f"need cycle length k < m, got k={k}, m={m}")
    if a < 1 or k % a != 0:
        raise ValueError(f"a = {a} does not divide k = {k}")
    if (k, a) == (4, 2):
        raise ValueError("excluded case (k, a) = (4, 2)")
    if a == 1:
        return Permutation.identity(m)
    images = list(range(1, m + 1))
    if a == k:
        images[0], images[m - 1] = m, 1
        return Permutation(images)
    for block in range(k // a):
        lo = block * a  # 0-based start of the block
        for off in range(a):
            images[lo + off] = lo + (off + 1) % a + 1
    return Permutation(images)


def coordinate_power_conjugator(ctx: AffineContext, i: int, a: int) -> Permutation:
    """Lift of the cycle-power conjugator to coordinate i of V.

    Acts on the line spanned by basis vector i (its nonzero multiples form the
    (p-1)-cycle of the diagonal generator g_i) and fixes the complementary
    coordinates, so that T ∩ T^x = <g_1, ..., g_i^a, ..., g_d>.
    Requires a | p - 1 and (p, a) != (5, 2).
    """
    p, d = ctx.p, ctx.d
    if not 1 <= i <= d:
        raise ValueError(f"coordinate {i} out of range 1..{d}")
    if a < 1 or (p - 1) % a != 0:
        raise ValueError(f"a = {a} does not divide p - 1 = {p - 1}")
    if (p, a) == (5, 2):
        raise ValueError("excluded case (p, a) = (5, 2)")
    # line labels: l in 1..p-1 is mu^(l-1) * b_i, label p is the zero multiple
    line = cycle_power_conjugator(p - 1, a, p)
    values = [pow(ctx.mu, l, p) for l in range(p - 1)] + [0]  # by 0-based label
    moved = {values[l]: values[img - 1] for l, img in enumerate(line.images)}
    return Permutation([ctx.points[v[:i - 1] + (moved[v[i - 1]],) + v[i:]]
                        for v in ctx.vectors])


class DiagonalStep:
    """One level of the chain from T down to 1: its conjugator set and predicted group."""

    def __init__(self, conjugators: list, predicted: PermutationGroup):
        self.conjugators = conjugators  # includes the identity, so the intersection contains T
        self.predicted = predicted


def diagonal_chain(ctx: AffineContext) -> list:
    """Conjugator sets Y_1..Y_l2 with T > ∩_{x in Y_1} T^x > ... > 1.

    For p in {3, 5} each coordinate is removed in one full-order step
    (l2 = d); for p >= 7 each coordinate steps down the ascending-prime
    cumulative divisors of p - 1 (l2 = d * Omega(p - 1)).  The sets are
    nested and each contains the identity.
    """
    p, d, n = ctx.p, ctx.d, ctx.n
    if p in (3, 5):
        seq = [(i, p - 1) for i in range(1, d + 1)]
    else:
        divisors = []
        acc = 1
        for q in prime_factors(p - 1):
            acc *= q
            divisors.append(acc)
        seq = [(i, a) for i in range(1, d + 1) for a in divisors]
    conjs = [Permutation.identity(n)]
    exponents = [1] * d  # current forced power of g_i; p - 1 means the coordinate is gone
    steps = []
    for (i, a) in seq:
        conjs = conjs + [coordinate_power_conjugator(ctx, i, a)]
        exponents[i - 1] = a
        gens = [
            ctx.diag_gens[c] ** exponents[c]
            for c in range(d)
            if exponents[c] != p - 1
        ]
        steps.append(DiagonalStep(conjugators=list(conjs), predicted=PermutationGroup(gens, n)))
    return steps


# -- certificate assembly ------------------------------------------------------


def affine_chain(ctx: AffineContext, limit: int = ENUM_LIMIT_DEFAULT) -> ChainCertificate:
    """Certificate for the chain Sym(V) > H > ... > T > ... > 1.

    Levels are intersections of conjugates of H with nested conjugator sets;
    claimed_length is 1 + (d(d+1)/2 - 1) + l2 for d >= 2 and 2 + l2 for d = 1.
    The conjugator sets are built first; :func:`build_chain` then takes every
    order from one level pass over H, and raises RuntimeError unless the
    chain reaches T where predicted and matches every predicted diagonal
    order.
    """
    check_degree(ctx.n)
    ident = Permutation.identity(ctx.n)
    if ctx.d >= 2:
        to_t = [ident] + [step.conjugator for step in subspace_chain(ctx)]
    else:
        to_t = [ident, scalar_conjugator(ctx)]
    # levels 1, 2, ...: each conjugator set contains the one before
    conj_sets = [to_t[: j + 1] for j in range(1, len(to_t))]
    t_level = len(conj_sets)  # the level that realizes T
    dsteps = diagonal_chain(ctx)
    for dstep in dsteps:  # each conjugator realizing T composed with each diagonal one
        z_set = {}
        for y in dstep.conjugators:
            for x in to_t:
                z = compose(x, y)
                z_set.setdefault(z._tbl, z)
        conj_sets.append(list(z_set.values()))

    def check(idx: int, level: PermutationGroup) -> None:
        if idx == t_level and not equals(level, ctx.T):
            raise RuntimeError(f"level {idx} is not the diagonal group")
        if idx > t_level:
            order, predicted = level.order(), dsteps[idx - t_level - 1].predicted.order()
            if order != predicted:
                raise RuntimeError(f"diagonal level order {order} != predicted {predicted}")

    return build_chain(ctx.H, conj_sets, "agl", {"p": ctx.p, "d": ctx.d}, check, limit)
