"""Coset keys against the least coset representative they replaced.

A right coset Hy is named by its key, the inverse of its lexicographically
least table (``group._coset_key``, which takes y⁻¹).  The reference,
``conftest.min_coset_rep``, walks H's chain on y itself.  On seeded random
tables the key must be the reference's inverse, and where |H| is small both
must be the minimum over H's listed elements.  The groups cover levels whose
orbits hold at least half the points, met by reading z = y⁻¹ from 0 up, and
smaller ones, met by perm's ``_first_into`` on bytes and by the same reading
on tuples, whose 2- and 3-point orbits are met after about 100 entries.
"""

import random

import pytest

from irrbase.affine import build_agl
from irrbase.group import _coset_key, from_generators
from irrbase.perm import Permutation, _compose_tbl, _first_into, _inverse_tbl, _table, parse_cycles
from irrbase.wreath import build_wreath

from conftest import min_coset_rep
from test_oracle_reference import M11_GENERATORS


def _m11():
    return from_generators([parse_cycles(c, 11) for c in M11_GENERATORS], 11)


def _blocks_300(shuffles=None):
    """An intransitive group on 300 points whose orbits are 60 blocks of 2 points and 60
    of 3, alternating, each generator permuting every block within itself.

    With ``shuffles``, that many generators shuffle each block at random (order about
    10^9); without, two generators act alike on every block of a size, (a b) and
    (a b c), then (a b) on the 3-blocks alone: C2 x S3, of order 12.
    """
    sizes = [2, 3] * 60
    if shuffles is None:
        images = [{2: [1, 0], 3: [1, 2, 0]}, {2: [0, 1], 3: [1, 0, 2]}]
    else:
        rng = random.Random(300)
        images = [None] * shuffles
    gens = []
    for image in images:
        tbl, start = [], 0
        for size in sizes:
            if image is None:
                block = rng.sample(range(size), size)
            else:
                block = image[size]
            tbl += [start + i for i in block]
            start += size
        gens.append(Permutation._wrap(_table(tbl)))
    return from_generators(gens, 300)


# name -> (the group, whether its walk reads z from 0 up at some level, and whether it
# calls _first_into at some level)
GROUPS = {
    "M11": (_m11, True, False),
    "AGL(2,3)": (lambda: build_agl(3, 2).H, True, False),
    "wreath(5,2)": (lambda: build_wreath(5, 2).M, True, True),
    "wreath(6,2)": (lambda: build_wreath(6, 2).M, True, True),
    "AGL(1,257)": (lambda: build_agl(257, 1).H, True, False),
    "blocks-300": (_blocks_300, True, False),
    "random-blocks-300": (lambda: _blocks_300(shuffles=3), True, False),
}


def _random_tables(n, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        y = list(range(n))
        rng.shuffle(y)
        out.append(_table(y))
    return out


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_coset_key_is_the_inverse_of_the_least_representative(name):
    make, large, small = GROUPS[name]
    h = make()
    for y in _random_tables(h.degree, 60, seed=len(name)):
        assert _coset_key(h, _inverse_tbl(y)) == _inverse_tbl(min_coset_rep(h, y)), name
    # the walk cache made on the first call holds the branches this group is meant to cover
    kinds = {first is None for _, _, first in h._walk}
    assert kinds == {kind for kind, wanted in ((True, large), (False, small)) if wanted}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_coset_key_names_the_coset(name):
    """Every element of a coset Hy gives the same key: that of y, from any h y."""
    h = GROUPS[name][0]()
    rng = random.Random(7)
    elements = _random_tables(h.degree, 3, seed=11)
    for y in elements:
        key = _coset_key(h, _inverse_tbl(y))
        for _ in range(4):
            e = h._ident
            for lvl in h._levels:  # a random element of H, one transversal table per level
                e = _compose_tbl(e, lvl.orbit[rng.choice(list(lvl.orbit))])
            assert _coset_key(h, _inverse_tbl(_compose_tbl(e, y))) == key, name


@pytest.mark.parametrize("name", ["M11", "AGL(2,3)", "wreath(5,2)", "blocks-300"])
def test_coset_key_against_every_element(name):
    """Where |H| is small enough to list, the key is the inverse of the least table h y."""
    h = GROUPS[name][0]()
    assert h.order() <= 30_000
    elements = [e._tbl for e in h.elements()]
    for y in _random_tables(h.degree, 2, seed=3):
        least = min(_compose_tbl(e, y) for e in elements)
        assert min_coset_rep(h, y) == least
        assert _coset_key(h, _inverse_tbl(y)) == _inverse_tbl(least), name


@pytest.mark.parametrize("n", [7, 256])
def test_first_into_is_the_least_hit(n):
    rng = random.Random(n)
    for z in _random_tables(n, 20, seed=n):
        points = set(rng.sample(range(n), rng.randint(1, 4)))
        assert _first_into(points, n)(z) == next(i for i, v in enumerate(z) if v in points)
    assert _first_into({0, 1}, 257) is None  # tuple tables are read from 0 up
