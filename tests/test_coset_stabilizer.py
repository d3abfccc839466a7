"""Orbit-stabilizer against the enumeration filters it replaced.

Every certificate level ⋂ H^x is computed by orbit-stabilizer on the right
cosets of H (``PermutationGroup._coset_stabilizer``).  The reference lists H
and keeps the elements lying in every H^x (``_conjugate_members``), filtering
the previous level when the conjugator sets are nested and all of H when they
are not.  Both must give the same element set on every level.  The subspace
stabilizers in GL(V) and the wreath two-point stabilizers M ∩ M^x come from
the same routine (``group._stabilizer``); their references list GL(V) and M.
"""

import itertools
import random
from functools import lru_cache

import pytest

from irrbase import elements, group, wreath_predict
from irrbase.affine import build_agl
from irrbase.agl_chain import affine_chain, gl_subspace_stabilizer, span_points, subspace_chain
from irrbase.elements import _conjugate_members, _iter_element_tbls, equals
from irrbase.group import PermutationGroup, from_generators, symmetric_group
from irrbase.oracle import build_coset_action, mibs
from irrbase.perm import Permutation, _table, parse_cycles
from irrbase.wreath import build_wreath, wreath_chain, wreath_conjugator
from irrbase.wreath_predict import predicted_stabilizer, verify_intersection

from test_acceptance import AFFINE_CASES
from test_oracle_reference import M11_GENERATORS

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test needs hypothesis
    given = None


def enumerated_levels(h, conjugator_sets):
    """Each level's member tables by filtering, as the level pass did before orbit-stabilizer."""
    members, prev = None, {h._ident}
    for conjs in conjugator_sets:
        current = set(conjs)
        if members is None or not prev <= current:
            members, prev = list(_iter_element_tbls(h)), {h._ident}
        members = _conjugate_members(h, [x for x in conjs if x not in prev], members)
        prev = current
        yield members


def assert_levels_match(h, conjugator_sets):
    got = list(h._conjugate_levels(conjugator_sets))
    want = list(enumerated_levels(h, conjugator_sets))
    assert [g.order() for g in got] == [len(w) for w in want]
    assert [set(_iter_element_tbls(g)) for g in got] == [set(w) for w in want]
    return got


def conjugator_sets(cert):
    return [[x._tbl for x in lvl.conjugators] for lvl in cert.levels[1:]]


# -- every level of the certificates the package builds --------------------------


@pytest.mark.parametrize("p,d", [(p, d) for p, d, _ in AFFINE_CASES])
def test_affine_levels_match_enumeration(p, d):
    ctx = build_agl(p, d)
    cert = affine_chain(ctx)
    got = assert_levels_match(ctx.H, conjugator_sets(cert))
    assert [g.order() for g in got] == [lvl.order for lvl in cert.levels[1:]]


def test_wreath_levels_match_enumeration(wreath52):
    cert = wreath_chain(wreath52)
    got = assert_levels_match(wreath52.M, conjugator_sets(cert))
    assert [g.order() for g in got] == [lvl.order for lvl in cert.levels[1:]]


WITNESSES = {
    "S9-agl-3-2": lambda: (symmetric_group(9), build_agl(3, 2).H),
    "S11-m11": lambda: (
        symmetric_group(11),
        from_generators([parse_cycles(c, 11) for c in M11_GENERATORS], 11),
    ),
}


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_oracle_witness_levels_match_enumeration(name):
    action = build_coset_action(*WITNESSES[name]())
    _, cert = mibs(action)
    got = assert_levels_match(action.subgroup, conjugator_sets(cert))
    assert [g.order() for g in got] == [lvl.order for lvl in cert.levels[1:]]


# -- subspace stabilizers in GL(V) and wreath two-point stabilizers ---------------


def gl_filter(ctx, gl_elements, basis):
    """The setwise stabilizer of a subspace by filtering GL(V)'s elements."""
    w = span_points(ctx, basis)
    members = [g for g in gl_elements if all(g.image(pt) in w for pt in w)]
    return PermutationGroup(members, ctx.n)


@pytest.mark.parametrize("p,d", [(3, 2), (5, 2), (7, 2), (3, 3)])
def test_subspace_stabilizers_match_gl_filter(p, d):
    ctx = build_agl(p, d)
    gl_elements = ctx.gl.elements()
    for step in subspace_chain(ctx):
        want = gl_filter(ctx, gl_elements, step.basis)
        assert want.order() < ctx.gl.order()
        assert equals(gl_subspace_stabilizer(ctx, step.basis), want)
        assert equals(step.stabilizer, want)


def test_agl43_subspace_stabilizer_orders():
    """|GL(4,3)| = 24,261,120 over 40 lines, 130 planes and 40 hyperplanes."""
    ctx = build_agl(3, 4)
    basis = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for dim, order in [(1, 606_528), (2, 186_624), (3, 606_528)]:
        stab = gl_subspace_stabilizer(ctx, basis[:dim])
        assert stab.order() == order
        w = span_points(ctx, basis[:dim])
        assert all({g.image(pt) for pt in w} == w for g in stab.generators)


def enumerated_intersection(ctx, r):
    """The tables of M ∩ M^x for marker (2, r), by filtering M's elements through M^x."""
    x = wreath_conjugator(ctx, 2, r)
    return set(_conjugate_members(ctx.M, [x._tbl], _iter_element_tbls(ctx.M)))


def is_predicted(members, predicted):
    """Whether a set of tables is exactly the group ``predicted``."""
    return len(members) == predicted.order() and all(map(predicted._contains_tbl, members))


@pytest.mark.parametrize("r", range(1, 6))
def test_wreath_intersections_match_enumeration(wreath52, r):
    members = enumerated_intersection(wreath52, r)
    x = wreath_conjugator(wreath52, 2, r)
    assert set(_iter_element_tbls(wreath52.M._coset_stabilizer(wreath52.M, x._tbl))) == members
    assert is_predicted(members, predicted_stabilizer(wreath52, 2, r))
    assert verify_intersection(wreath52, 2, r)


def test_wreath_wrong_marker_negative_control(wreath52, monkeypatch):
    """Predicting marker r's stabilizer from marker r + 1 fails both checks."""
    predicted = wreath_predict.predicted_stabilizer
    monkeypatch.setattr(
        wreath_predict, "predicted_stabilizer", lambda ctx, i, r: predicted(ctx, i, r % 5 + 1)
    )
    for r in range(1, 6):
        wrong = predicted(wreath52, 2, r % 5 + 1)
        assert not is_predicted(enumerated_intersection(wreath52, r), wrong)
        assert not verify_intersection(wreath52, 2, r)


def test_subspace_and_wreath_stabilizers_list_no_group(wreath52, monkeypatch):
    def enumerated(*args):
        raise AssertionError("a group was enumerated")

    monkeypatch.setattr(elements, "_iter_element_tbls", enumerated)
    monkeypatch.setattr(elements, "_conjugate_members", enumerated)
    assert all(verify_intersection(wreath52, 2, r) for r in range(1, 6))
    ctx = build_agl(3, 3)
    orders = [gl_subspace_stabilizer(ctx, s.basis).order() for s in subspace_chain(ctx)]
    assert orders == [864, 864, 864, 864, 864]


# -- random conjugators -----------------------------------------------------------

GROUPS = {
    "AGL(2,3)": lambda: build_agl(3, 2).H,
    "AGL(1,7)": lambda: build_agl(7, 1).H,
    "S5wrS2": lambda: build_wreath(5, 2).M,
}


@lru_cache(maxsize=None)
def group_and_elements(name):
    h = GROUPS[name]()
    return h, list(_iter_element_tbls(h))


def trivial_level(h, seed=1):
    """K ≤ H and a seeded random x with K ∩ H^x trivial.

    K starts at H; every eighth random conjugate that fails cuts it down.
    """
    rng = random.Random(seed)
    k = h
    for draw in itertools.count(1):
        x = list(range(h.degree))
        rng.shuffle(x)
        x = _table(x)
        members = _conjugate_members(h, [x], _iter_element_tbls(k))
        if len(members) == 1:
            return k, x
        if draw % 8 == 0:
            k = PermutationGroup([Permutation._wrap(e) for e in members], h.degree)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_regular_orbit_stops_at_half(name, monkeypatch):
    """A trivial level is found before the orbit of Hx under K is complete."""
    h, _ = group_and_elements(name)
    k, x = trivial_level(h)
    calls = []
    key = group._coset_key
    monkeypatch.setattr(group, "_coset_key", lambda g, y: calls.append(1) or key(g, y))
    level = h._coset_stabilizer(k, x)
    assert level.order() == 1 and list(_iter_element_tbls(level)) == [h._ident]
    # the whole regular orbit would take one key for the root and |K| per generator
    assert 0 < len(calls) <= k.order() * len(k.generators)


if given is not None:

    @st.composite
    def level_cases(draw):
        name = draw(st.sampled_from(sorted(GROUPS)))
        h, elements = group_and_elements(name)

        def conjugator():
            if draw(st.booleans()):
                return _table(draw(st.permutations(range(h.degree))))
            return elements[draw(st.integers(0, len(elements) - 1))]

        xs = [conjugator() for _ in range(draw(st.integers(1, 4)))]
        if draw(st.booleans()):  # nested: each set adds one conjugator to the one before
            sets = [[h._ident] + xs[: j + 1] for j in range(len(xs))]
        else:  # each set on its own, with or without the identity
            sets = [[h._ident, x] if draw(st.booleans()) else [x] for x in xs]
        return h, sets

    @settings(max_examples=25)
    @given(level_cases())
    def test_levels_match_enumeration_property(case):
        h, sets = case
        assert_levels_match(h, sets)
        # K need not lie in H: the stabilizer of Hx in a conjugate of H
        k = h.conjugate(Permutation._wrap(sets[0][-1]))
        x = sets[-1][-1]
        got = h._coset_stabilizer(k, x)
        want = _conjugate_members(h, [x], _iter_element_tbls(k))
        assert set(_iter_element_tbls(got)) == set(want)

else:

    def test_levels_match_enumeration_property():
        pytest.skip("hypothesis is not installed")
