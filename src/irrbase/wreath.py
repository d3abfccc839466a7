"""S_m wr S_k in product action on m^k tuples, and its conjugate-intersection chain.

Points are k-tuples over {1..m} under ``point = 1 + sum((entries[j]-1) * m^j)``
(0-based j).  The context keeps that encoding as two tables, the tuples in
point order and a dict from each tuple to its point, so every permutation
built here is one map on tuples read through them.  An element
((v_1, ..., v_k), w) maps (a_1, ..., a_k) to the tuple whose coordinate i^w
is a_i^{v_i}; the product action preserves Hamming distance between tuples.

The chain builder realizes each level as an intersection of conjugates of
M = S_m wr S_k.  The working conjugators apply the even cycle u (the full
m-cycle for odd m, an (m-1)-cycle for even m) to the first coordinate of
exactly the tuples whose i-th coordinate equals a marker value r; a final
conjugator of the same slice shape with a transposition in place of u kills
the last cyclic factor, since no element of M can act differently on one
slice than on another.  The levels it is predicted to reach, which the tests
check it against, are :mod:`irrbase.wreath_predict`.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .certificate import ENUM_LIMIT_DEFAULT, ChainCertificate, check_family_params, family_order
from .group import PermutationGroup, symmetric_group
from .perm import Permutation, parse_cycles


class WreathContext:
    """S_m wr S_k on m^k points, with the distinguished even cycle u.

    ``tuples[i]`` is the k-tuple of point i + 1 and ``points`` maps it back;
    :func:`build_wreath` sets M.
    """

    def __init__(self, m: int, k: int, u: Permutation):
        self.m = m
        self.k = k
        self.n = m**k
        self.tuples = [t[::-1] for t in product(range(1, m + 1), repeat=k)]  # entry 1 fastest
        self.points = {t: pt for pt, t in enumerate(self.tuples, 1)}
        self.M = None  # the wreath product in product action
        self.u = u  # degree m: (1..m) for odd m, (1..m-1) for even m
        self.U = PermutationGroup([u], m)  # <u>
        self.sm = symmetric_group(m)  # S_m on {1..m}
        self.sk = symmetric_group(k)  # S_k on {1..k}


def tuple_to_point(ctx: WreathContext, entries: Sequence[int]) -> int:
    """1-based point of a k-tuple with entries in {1..m}."""
    if len(entries) != ctx.k:
        raise ValueError(f"expected {ctx.k} entries, got {len(entries)}")
    for e in reversed(entries):
        if e not in range(1, ctx.m + 1):  # refuses a non-integer too
            raise ValueError(f"entry {e} out of range 1..{ctx.m}")
    return ctx.points[tuple(entries)]


def point_to_tuple(ctx: WreathContext, point: int) -> tuple:
    if point not in range(1, ctx.n + 1):
        raise ValueError(f"point {point} out of range 1..{ctx.n}")
    return ctx.tuples[point - 1]


def embed_wreath_element(
    ctx: WreathContext, blocks: Sequence[Permutation], top: Permutation
) -> Permutation:
    """The point permutation of ((v_1..v_k), w): coordinate i^w of the image is a_i^{v_i}."""
    if len(blocks) != ctx.k:
        raise ValueError(f"expected {ctx.k} block permutations, got {len(blocks)}")
    for v in blocks:
        if v.degree != ctx.m:
            raise ValueError(f"block permutation degree {v.degree} != m = {ctx.m}")
    if top.degree != ctx.k:
        raise ValueError(f"top permutation degree {top.degree} != k = {ctx.k}")
    # coordinate j of the image is entry i = j^(w^-1) moved by v_i, read as 1-based maps
    cols = [(i, (0,) + blocks[i].images) for i in top.inverse()._tbl]
    return Permutation([ctx.points[tuple(v[a[i]] for i, v in cols)] for a in ctx.tuples])


def build_wreath(m: int, k: int) -> WreathContext:
    """Construct S_m wr S_k in product action on m^k points (m >= 5, k >= 2)."""
    params = {"m": m, "k": k}
    check_family_params("wreath", params)
    n = m**k
    u = parse_cycles("(" + " ".join(map(str, range(1, m + m % 2))) + ")", m)
    if not u.is_even():
        raise RuntimeError(f"distinguished cycle {u} is odd")
    ctx = WreathContext(m, k, u)
    id_m = Permutation.identity(m)
    id_k = Permutation.identity(k)
    gens = [embed_wreath_element(ctx, [g] + [id_m] * (k - 1), id_k) for g in ctx.sm.generators]
    gens += [embed_wreath_element(ctx, [id_m] * k, w) for w in ctx.sk.generators]
    big = PermutationGroup(gens, n)
    expected = family_order("wreath", params, n, "S")
    if big.order() != expected:
        raise RuntimeError(f"|S_{m} wr S_{k}| = {big.order()}, expected {expected}")
    ctx.M = big
    return ctx


def _slice_map(ctx: WreathContext, i: int, r: int, sigma: Permutation) -> Permutation:
    """Apply sigma to coordinate 1 of exactly the tuples whose coordinate i equals r."""
    if not 2 <= i <= ctx.k:
        raise ValueError(f"coordinate i must be in 2..{ctx.k}, got {i}")
    if not 1 <= r <= ctx.m:
        raise ValueError(f"marker r must be in 1..{ctx.m}, got {r}")
    if sigma.degree != ctx.m:
        raise ValueError(f"slice map degree {sigma.degree} != m = {ctx.m}")
    s = (0,) + sigma.images  # 1-based map
    return Permutation([ctx.points[(s[t[0]],) + t[1:]] if t[i - 1] == r else pt
                        for pt, t in enumerate(ctx.tuples, 1)])


def wreath_conjugator(ctx: WreathContext, i: int, r: int) -> Permutation:
    """The even conjugator x applying u to coordinate 1 on the slice {coordinate i = r}."""
    return _slice_map(ctx, i, r, ctx.u)


def wreath_chain(ctx: WreathContext, limit: int = ENUM_LIMIT_DEFAULT) -> ChainCertificate:
    """Certificate for Sym(m^k) > M > ... > 1 of length (m-1)(k-1) + 2.

    Levels run over the markers (i, r) in lexicographic order for i in 2..k,
    r in 1..m-1, with nested conjugator sets; a final slice conjugator with a
    transposition kills the residual cyclic group on the first coordinate.
    The conjugator sets are built first; :func:`build_chain` then takes every
    order from one level pass over M, and RuntimeError is raised unless the
    chain has the predicted number of levels.
    """
    from .chain import build_chain  # imported here: an oracle run builds M, never its chain

    ident = Permutation.identity(ctx.n)
    xs = [wreath_conjugator(ctx, i, r) for i in range(2, ctx.k + 1) for r in range(1, ctx.m)]
    xs.append(_slice_map(ctx, 2, 1, parse_cycles("(1 2)", ctx.m)))
    # levels 1, 2, ...: each conjugator set adds one conjugator to the one before
    conj_sets = [[ident] + xs[: j + 1] for j in range(len(xs))]
    cert = build_chain(ctx.M, conj_sets, "wreath", {"m": ctx.m, "k": ctx.k}, limit=limit)
    expected_length = (ctx.m - 1) * (ctx.k - 1) + 2
    if cert.claimed_length != expected_length:
        raise RuntimeError(f"chain length {cert.claimed_length} != expected {expected_length}")
    return cert
