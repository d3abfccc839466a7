"""Affine groups AGL(d, p) inside Sym(p^d): the group builder.

Points are the vectors of V = F_p^d under the encoding
``point = 1 + sum(coords[j] * p^j)`` (0-based j), so the zero vector is
point 1.  The context keeps that encoding as two tables, the vectors in
point order and a dict from each vector to its point, so every affine
permutation is one map on coordinates read through them.  H = AGL(V) is
generated by elementary transvections, the diagonal map scaling the first
basis vector by a primitive root, and the basis translations; T is the group
of diagonal matrices.  GL(V), the stabilizer of the zero vector, is H's
chain from its second level: every translation moves the zero vector, so it
is H's first base point, and no second Schreier-Sims is run.  Only odd p is
supported; even characteristic is out of scope here.

The chain constructions on these groups are :mod:`irrbase.agl_chain`; only
``chain`` imports them, so ``oracle --subgroup agl`` compiles this builder alone.
"""

from __future__ import annotations

from itertools import product
from operator import getitem, mul
from typing import Optional, Sequence

from .certificate import check_family_params, family_order, prime_factors
from .group import PermutationGroup, _stabilizer
from .perm import Permutation

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
