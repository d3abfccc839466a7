"""family_order against the groups themselves: |H|, and |H ∩ A_n| from the parity of H's generators.

A group lies in A_n exactly when every generator is even, and otherwise meets
A_n in a subgroup of index 2, so the generators' parity is an independent
reference for the rule that family_order writes down from the parameters.
"""

from math import factorial

import pytest

from irrbase.affine import build_agl
from irrbase.certificate import family_order
from irrbase.group import symmetric_group
from irrbase.perm import Permutation
from irrbase.wreath import WreathContext, embed_wreath_element


def _expected(order: int, generators) -> dict:
    even = all(g.is_even() for g in generators)
    return {"S": order, "A": order if even else order // 2}


@pytest.mark.parametrize("p, d", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_agl(p, d):
    h = build_agl(p, d).H
    expected = _expected(h.order(), h.generators)
    for ambient in "SA":
        assert family_order("agl", {"p": p, "d": d}, p**d, ambient) == expected[ambient]


def _wreath_generators(m: int, k: int) -> list:
    """build_wreath's generators of S_m wr S_k, without building the group."""
    ctx = WreathContext(m, k, Permutation.identity(m))  # neither M nor u is needed
    id_m, id_k = Permutation.identity(m), Permutation.identity(k)
    return [embed_wreath_element(ctx, [g] + [id_m] * (k - 1), id_k)
            for g in symmetric_group(m).generators] + [
        embed_wreath_element(ctx, [id_m] * k, w) for w in symmetric_group(k).generators]


@pytest.mark.parametrize(
    "m, k", [(5, 2), (6, 2), (7, 2), (8, 2), (6, 3), (5, 3), (10, 2), (12, 2)]
)
def test_wreath(m, k):
    expected = _expected(factorial(m) ** k * factorial(k), _wreath_generators(m, k))
    for ambient in "SA":
        assert family_order("wreath", {"m": m, "k": k}, m**k, ambient) == expected[ambient]
    # inside A_{m^k} exactly when m is even and k >= 3 or 4 | m
    assert (expected["A"] == expected["S"]) == (m % 2 == 0 and (k >= 3 or m % 4 == 0))


def test_wreath_generators_are_build_wreaths():
    from irrbase.wreath import build_wreath

    assert tuple(_wreath_generators(5, 2)) == build_wreath(5, 2).M.generators


@pytest.mark.parametrize("n", range(1, 11))
def test_natural(n):
    h = symmetric_group(n).point_stabilizer(n)
    expected = _expected(h.order(), h.generators)
    for ambient in "SA":
        assert family_order("natural", {"n": n}, n, ambient) == expected[ambient]


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("agl", {"p": 9, "d": 2}, "p = 9 is not prime"),
        ("agl", {"p": 2, "d": 3}, "odd p required"),
        ("agl", {"p": 3, "d": 0}, "d must be at least 1, got 0"),
        ("wreath", {"m": 4, "k": 1}, "m must be at least 5, got 4"),
        ("wreath", {"m": 5, "k": 1}, "k must be at least 2, got 1"),
    ],
)
def test_parameters_checked_first(family, params, message):
    with pytest.raises(ValueError) as info:
        family_order(family, params, 81, "S")
    assert str(info.value) == message
