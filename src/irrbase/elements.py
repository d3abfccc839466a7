"""Element enumeration, and the intersections and comparisons made by it.

:func:`_iter_element_tbls` lists a group's element tables and
:func:`_conjugate_members` keeps the elements lying in H^x; they are the
tests' reference for the level pass (:meth:`PermutationGroup._conjugate_levels`)
that ``chain`` and ``verify`` run instead, and :func:`intersect` lists the
smaller group through them.  Every listing refuses, never truncates, above a
caller-supplied element limit.  Of the subcommands only an ambient-A
``oracle`` of an agl or wreath H, through :func:`intersect`, imports this module.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .certificate import ENUM_LIMIT_DEFAULT, LimitExceeded, check_intersect_limit
from .group import PermutationGroup
from .perm import DegreeMismatchError, Permutation, Table, _inverse_tbl, _then


def _iter_element_tbls(group: PermutationGroup) -> Iterator[Table]:
    """All element tables exactly once, in a fixed deterministic order.

    The element for transversal tables u_0, ..., u_{L-1} (one per level,
    each level's orbit in ascending order, level 0 varying slowest) is
    u_{L-1} ⋯ u_1 u_0.  It is accumulated from level 0 down: a partial
    product is padded once and each table of the next level composed with it.
    """
    levels = group._levels
    if not levels:
        return iter((group._ident,))
    steps = [[lvl.orbit[b] for b in sorted(lvl.orbit)] for lvl in levels[1:]]
    top = levels[0].orbit
    return (e for b in sorted(top)
            for e in _products(steps, 0, top[b], group._after, group._pad))


def _products(steps: list, i: int, q: Table, after, pad: Table) -> Iterator[Table]:
    """The tables v_k ⋯ v_i q for every choice of one table v_j from each ``steps[j]``, j >= i.

    ``after`` and ``pad`` are the group's :func:`irrbase.perm._composer` and
    :func:`irrbase.perm._pad`; each partial product is padded once, and the
    last level's products are made in one map.  Module-level rather than
    nested: a nested recursive generator refers to itself through its
    closure, a reference cycle that would keep ``steps`` alive until the
    cyclic garbage collector runs.
    """
    if i == len(steps):
        yield q
        return
    products = map(after, steps[i], repeat(q + pad))
    if i + 1 == len(steps):
        yield from products
        return
    for p in products:
        yield from _products(steps, i + 1, p, after, pad)


def iter_elements(group: PermutationGroup,
                  limit: int = ENUM_LIMIT_DEFAULT) -> Iterator[Permutation]:
    """Every element of the group once, in :func:`_iter_element_tbls`'s order, refused
    (never truncated) above ``limit``."""
    if group._order > limit:
        raise LimitExceeded(
            f"group too large: order {group._order} exceeds enumeration limit {limit}"
        )
    return (Permutation._wrap(t) for t in _iter_element_tbls(group))


def _conjugate_members(h: PermutationGroup, conjugators: Sequence[Table],
                       pool: Iterable[Table]) -> list:
    """The tables e of ``pool``, in pool order, lying in H^x for every conjugator table x.

    ``e ∈ H^x ⟺ x e x⁻¹ ∈ H``; the table of x e x⁻¹ is built as (x then
    e) then x⁻¹, so each element is padded once and shared by all
    conjugators, whose composers and padded inverses are made once per call.
    """
    after, pad = h._after, h._pad
    tests = [(_then(x), _inverse_tbl(x) + pad) for x in conjugators]
    contains = h._contains_tbl
    out = []
    for e in pool:
        e_padded = e + pad
        for x_then, x_inv in tests:
            if not contains(after(x_then(e_padded), x_inv)):
                break
        else:
            out.append(e)
    return out


def intersect(
    g1: PermutationGroup, g2: PermutationGroup, limit: int = ENUM_LIMIT_DEFAULT
) -> PermutationGroup:
    """Exact intersection by enumerating the smaller group through the larger's membership test."""
    if g1.degree != g2.degree:
        raise DegreeMismatchError("degree mismatch between groups")
    small, large = (g1, g2) if g1.order() <= g2.order() else (g2, g1)
    check_intersect_limit(small.order(), limit)
    members = _conjugate_members(large, [large._ident], _iter_element_tbls(small))
    return PermutationGroup([Permutation._wrap(t) for t in members], g1.degree)


def equals(g1: PermutationGroup, g2: PermutationGroup) -> bool:
    """True iff the groups have the same element set."""
    if g1.degree != g2.degree:
        raise DegreeMismatchError("degree mismatch between groups")
    return (
        g1.order() == g2.order()
        and g1.is_subgroup_of(g2)
        and g2.is_subgroup_of(g1)
    )


def subgroup_of(g1: PermutationGroup, g2: PermutationGroup) -> bool:
    return g1.is_subgroup_of(g2)
