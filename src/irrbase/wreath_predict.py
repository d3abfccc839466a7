"""The wreath chain's predicted levels, and the Hamming distance its product action keeps.

:func:`predicted_stabilizer` is the group that the (i, r) conjugator of
:func:`irrbase.wreath.wreath_conjugator` should leave, M ∩ M^x, and
:func:`verify_intersection` checks it; the tests check the chain against
them.  No subcommand runs them, so none compiles this module.
"""

from __future__ import annotations

from math import factorial
from typing import Sequence

from .elements import equals
from .group import PermutationGroup
from .perm import Permutation
from .wreath import WreathContext, embed_wreath_element, wreath_conjugator


def hamming(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of differing coordinates between two tuples of equal length."""
    if len(a) != len(b):
        raise ValueError(f"tuple shapes differ: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def predicted_stabilizer(ctx: WreathContext, i: int, r: int) -> PermutationGroup:
    """(U x S_m^(i-2) x T_r x S_m^(k-i)) semidirect W_i, where T_r fixes r and W_i fixes 1 and i.

    This is the predicted intersection M ∩ M^x for the (i, r) conjugator; its
    order is |u| * (m-1)! * (m!)^(k-2) * (k-2)!.
    """
    if not 2 <= i <= ctx.k:
        raise ValueError(f"coordinate i must be in 2..{ctx.k}, got {i}")
    if not 1 <= r <= ctx.m:
        raise ValueError(f"marker r must be in 1..{ctx.m}, got {r}")
    m, k = ctx.m, ctx.k
    id_m = Permutation.identity(m)
    id_k = Permutation.identity(k)
    gens = []

    def at_coordinate(c, g):
        blocks = [id_m] * k
        blocks[c - 1] = g
        return embed_wreath_element(ctx, blocks, id_k)

    gens.append(at_coordinate(1, ctx.u))
    t_r = ctx.sm.point_stabilizer(r)
    for g in t_r.generators:
        gens.append(at_coordinate(i, g))
    for c in range(2, k + 1):
        if c == i:
            continue
        for g in ctx.sm.generators:
            gens.append(at_coordinate(c, g))
    w_i = ctx.sk.point_stabilizer(1).point_stabilizer(i)
    for w in w_i.generators:
        gens.append(embed_wreath_element(ctx, [id_m] * k, w))
    group = PermutationGroup(gens, ctx.n)
    expected = (
        ctx.u.order() * factorial(m - 1) * factorial(m) ** (k - 2) * factorial(k - 2)
    )
    if group.order() != expected:
        raise RuntimeError(f"predicted stabilizer has order {group.order()}, expected {expected}")
    return group


def verify_intersection(ctx: WreathContext, i: int, r: int) -> bool:
    """True iff M ∩ M^x equals the predicted stabilizer.

    M ∩ M^x is the stabilizer in M of the coset Mx, found by orbit-stabilizer
    on M's cosets without listing M.
    """
    x = wreath_conjugator(ctx, i, r)
    return equals(ctx.M._coset_stabilizer(ctx.M, x._tbl), predicted_stabilizer(ctx, i, r))
