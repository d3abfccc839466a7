"""Finite permutation groups via base-and-strong-generating-set stabilizer chains.

Every chain has one shape, built by a deterministic Schreier-Sims procedure:
each strong generator is bucketed at the first point it moves, in the natural
order 1, 2, ..., n.  So the base points ascend, the group fixing the points
below a level's base point is generated by the buckets from that level on,
and a right coset is named by its key, the inverse of its least table,
found by a greedy walk down the chain on inverse tables (:func:`_coset_key`).
Every orbit, of a level's base point, of a point or of a key, is walked by
one breadth-first routine, :func:`_orbit_tree`, which returns its Schreier
vector; a level keeps it, and its transversals are products along it.

Orders are exact Python integers; nothing here overflows.  A stabilizer of
a key under a group's action, such as a coset Hx or a set of points, comes
from one orbit-stabilizer routine, :func:`_stabilizer`, which walks the key's
orbit and sifts Schreier generators without listing the group.  Schreier's
lemma is written once, :func:`_schreier_generators`, for Schreier-Sims's
level scan and for :func:`_stabilizer` alike.  Every group is built in this
module: no other module writes a group's chain, order or generators.  A
chain of conjugate intersections, built or verified, runs through one level
pass, :meth:`PermutationGroup._conjugate_levels`: its level K ∩ H^x is the
stabilizer in K of the coset Hx (:meth:`PermutationGroup._coset_stabilizer`).
Enumeration (``iter_elements``, ``intersect``), the tests' reference for the
stabilizers, is :mod:`irrbase.elements`, imported only to list a group; the
limits and their refusal texts are :mod:`irrbase.certificate`'s.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import attrgetter, getitem
from typing import Iterable, Iterator, Optional, Sequence

from .certificate import ENUM_LIMIT_DEFAULT, LimitExceeded, _order_text
from .perm import (
    DegreeMismatchError,
    Permutation,
    Table,
    _compose_tbl,
    _composer,
    _cycle_lists,
    _cycles_tbl,
    _first_into,
    _identity_tbl,
    _inverse_tbl,
    _pad,
    _table,
    _then,
)


class _Level:
    """One stabilizer-chain level: a base point, its generator bucket, orbit and transversal."""

    __slots__ = ("point", "gens", "tree", "orbit", "inv")

    def __init__(self, point: int):
        self.point = point
        self.gens = []  # strong generators whose first moved point is `point`
        self.tree = {}  # the orbit's Schreier vector (:func:`_orbit_tree`)
        self.orbit = {}  # orbit point, in BFS order -> transversal table u with point^u = it
        self.inv = {}  # orbit point -> inverse transversal table


class PermutationGroup:
    """Group generated by permutations of {1..n}, with order/membership/stabilizer queries."""

    def __init__(self, generators: Sequence[Permutation], degree: int,
                 limit: Optional[int] = None):
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} does not match group degree {degree}"
                )
        self.degree = degree
        self._ident = _identity_tbl(degree)
        self._pad = _pad(degree)  # a second operand's padding (perm's kernel)
        self._after = _composer(degree)  # _compose_tbl(a, b) as self._after(a, b + self._pad)
        self.generators = tuple(g for g in generators if not g.is_identity())
        self._levels: list[_Level] = []
        self._walk = None  # _coset_key's per-level inverse transversals, made on first use
        self._limit = limit  # a cap on a lower bound on the order while it is built (_place)
        for g in self.generators:
            r = self._sift_tbl(g._tbl)
            if r != self._ident:  # else g already lies in the group
                self._complete(self._place(r))
        self._order = math.prod(len(lvl.orbit) for lvl in self._levels)

    # -- construction ------------------------------------------------------

    def _place(self, tbl: Table) -> int:
        """Bucket a new strong generator at its first moved point; returns its level's index.

        Every level is built when a generator is placed, and its orbit lies in the orbit of
        its base point under the stabilizer of the base points before it, so the orbits'
        lengths multiply to at most the order: past the limit, the group is refused.
        """
        if self._limit is not None:
            bound = math.prod(len(lvl.orbit) for lvl in self._levels)
            if bound > self._limit:
                raise LimitExceeded(f"subgroup order at least {_order_text(bound)} exceeds "
                                    f"enumeration limit {self._limit}")
        pt = next(i for i, v in enumerate(tbl) if v != i)
        levels = self._levels
        idx = bisect_left(levels, pt, key=attrgetter("point"))
        if idx == len(levels) or levels[idx].point != pt:
            levels.insert(idx, _Level(pt))
        levels[idx].gens.append(tbl)
        return idx

    def _gens_at(self, i: int) -> list:
        return [g for lvl in self._levels[i:] for g in lvl.gens]

    def _rebuild_level(self, i: int) -> None:
        lvl = self._levels[i]
        lvl.tree = _orbit_tree(lvl.point, self._gens_at(i))
        lvl.orbit = _tree_tables(lvl.tree, self._ident)
        lvl.inv = {b: _inverse_tbl(u) for b, u in lvl.orbit.items()}

    def _sift_tbl(self, tbl: Table, start: int = 0) -> Table:
        """Strip tbl through the chain from level `start`; returns the residue table."""
        after, pad = self._after, self._pad
        for lvl in self._levels[start:]:
            b = tbl[lvl.point]
            if b == lvl.point:
                continue
            u_inv = lvl.inv.get(b)
            if u_inv is None:
                return tbl
            tbl = after(tbl, u_inv + pad)  # _compose_tbl(tbl, u_inv), C-level on bytes
        return tbl

    def _scan_level(self, i: int) -> Optional[int]:
        """Sift all Schreier generators of level i; place the first non-trivial residue."""
        lvl = self._levels[i]
        for h in _schreier_generators(lvl.tree, self._gens_at(i), getitem, lvl.orbit, lvl.inv):
            if h != self._ident:
                r = self._sift_tbl(h, i + 1)
                if r != self._ident:
                    return self._place(r)
        return None

    def _complete(self, i: int) -> None:
        while i >= 0:
            self._rebuild_level(i)
            nxt = self._scan_level(i)
            if nxt is None:
                i -= 1
            else:
                i = nxt

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        return self._order

    def base(self) -> list:
        """1-based base points of the stabilizer chain, in chain order."""
        return [lvl.point + 1 for lvl in self._levels]

    def _contains_tbl(self, tbl: Table) -> bool:
        return self._sift_tbl(tbl) == self._ident

    def _coset_stabilizer(self, k: "PermutationGroup", x: Table) -> "PermutationGroup":
        """K ∩ H^x (H is this group), as the stabilizer in K of the right coset Hx.

        ``k ∈ H^x ⟺ Hxk = Hx``, so the level is the stabilizer of the point
        Hx in K's action on H's right cosets, whose points are their keys
        (:func:`_coset_key`); :func:`_stabilizer` finds it from the coset's
        orbit.  Hy·s is canonicalized from (ys)⁻¹, s⁻¹ then Hy's key.
        """
        pad = self._pad
        inv_then = {g._tbl: _then(_inverse_tbl(g._tbl)) for g in k.generators}
        return _stabilizer(k, _coset_key(self, _inverse_tbl(x)),
                           lambda s, a: _coset_key(self, inv_then[s](a + pad)))

    def _conjugate_levels(
        self, conjugator_sets: Iterable[Sequence[Table]]
    ) -> Iterator["PermutationGroup"]:
        """Lazily, for each conjugator set, the group ⋂ H^x over its x.

        The sets are those of levels 1, 2, ... of a chain whose level 0 is H
        with conjugator set {identity}.  A set containing the previous one
        cuts the previous level by its new conjugators only; any other set
        starts again from H.  Each conjugator costs one
        :meth:`_coset_stabilizer`, made when its level is asked for, so a
        caller may stop before a bad level.
        """
        level, prev = self, {self._ident}
        for conjs in conjugator_sets:
            current = set(conjs)
            if not prev <= current:
                level, prev = self, {self._ident}
            for x in dict.fromkeys(conjs):
                if x not in prev:
                    level = self._coset_stabilizer(level, x)
            prev = current
            yield level

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise DegreeMismatchError(
                f"element degree {p.degree} does not match group degree {self.degree}"
            )
        return self._contains_tbl(p._tbl)

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def iter_elements(self, limit: int = ENUM_LIMIT_DEFAULT) -> Iterator[Permutation]:
        from .elements import iter_elements

        return iter_elements(self, limit)

    def elements(self, limit: int = ENUM_LIMIT_DEFAULT) -> list:
        return list(self.iter_elements(limit))

    def orbit(self, point: int) -> list:
        """Orbit of a 1-based point under the group, ascending."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        return sorted(p + 1 for p in _orbit_tree(point - 1, [g._tbl for g in self.generators]))

    def point_stabilizer(self, point: int) -> "PermutationGroup":
        """Subgroup fixing the 1-based point; order(G) = |orbit| * order(result).

        A base change by relabelling: x takes the point to 1 and each point
        below it up by one, and the strong generators of G^x fixing 1,
        relabelled back, generate the stabilizer.  :func:`_stabilizer` would
        give other generators, so other bytes in the natural-family oracle
        witnesses, which are made from these.
        """
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        x = Permutation._wrap(_table((*range(1, point), 0, *range(point, self.degree))))
        gens = [s for lvl in self.conjugate(x)._levels for s in lvl.gens if s[0] == 0]
        back = x.inverse()
        return PermutationGroup(
            [Permutation._wrap(s).conjugate(back) for s in dict.fromkeys(gens)], self.degree)

    def conjugate(self, x: Permutation) -> "PermutationGroup":
        """The group {g^x : g in G}; same order as G."""
        if x.degree != self.degree:
            raise DegreeMismatchError(
                f"conjugator degree {x.degree} does not match group degree {self.degree}"
            )
        return PermutationGroup([g.conjugate(x) for g in self.generators], self.degree)

    def is_subgroup_of(self, other: "PermutationGroup") -> bool:
        if self.degree != other.degree:
            raise DegreeMismatchError("degree mismatch between groups")
        return all(other._contains_tbl(g._tbl) for g in self.generators)

    def __repr__(self) -> str:
        return (
            f"<PermutationGroup degree={self.degree} order={self._order} "
            f"ngens={len(self.generators)}>"
        )


def _orbit_tree(root, gens: Sequence[Table], image=getitem, cap: float = math.inf) -> dict:
    """The breadth-first Schreier vector of a hashable key's orbit under generator tables.

    Each key, in discovery order, maps to (parent key a, generator table s) with
    ``image(s, a)`` the key, and the root to None; the walk stops past ``cap`` keys.
    """
    tree = {root: None}
    queue = [root]
    for a in queue:  # grows while it is walked: a breadth-first queue
        for s in gens:
            b = image(s, a)
            if b not in tree:
                tree[b] = (a, s)
                queue.append(b)
                if len(queue) > cap:
                    return tree
    return tree


def _tree_tables(tree: dict, ident: Table, table: Optional[dict] = None) -> dict:
    """Each key of a Schreier vector -> the product of the tables along its path from the root.

    A generator s's table is ``table[s]``, or s itself with no ``table``; the root's is
    ``ident``, and a child of the root takes its generator's table object, not a copy.
    """
    out = {}
    for b, edge in tree.items():  # every parent comes before its children
        if edge is None:
            out[b] = ident
            continue
        a, s = edge
        s = s if table is None else table[s]
        out[b] = s if out[a] is ident else _compose_tbl(out[a], s)
    return out


def _schreier_generators(tree: dict, gens: Sequence[Table], image, u, u_inv) -> Iterator[Table]:
    """Schreier's lemma: u_a·s·u_b⁻¹ for each key a of a Schreier vector and generator s.

    ``image(s, a)`` is the key b; ``u`` and ``u_inv`` map each key to its
    transversal table, the product along its path from the root, and to its
    inverse, made into ``u_inv`` when first needed.  The products generate
    the root's stabilizer.  They come keys in tree order, then generators in
    order; a tree edge, whose product is the identity, gives none.
    """
    n = len(u[next(iter(tree))])  # the root's table is the identity
    after, pad = _composer(n), _pad(n)
    for a in tree:
        ua = u[a]
        for s in gens:
            b = image(s, a)
            if tree[b] != (a, s):
                if b not in u_inv:
                    u_inv[b] = _inverse_tbl(u[b])
                yield after(after(ua, s + pad), u_inv[b] + pad)


def _stabilizer(k: PermutationGroup, root, image, tree: Optional[dict] = None) -> PermutationGroup:
    """The stabilizer in K of a hashable key, by orbit-stabilizer on the key's orbit.

    ``image(s, a)`` is the key a moved by the generator table s, an action
    of K.  When the key is K's first base point under ``getitem``, the
    stabilizer is K's chain from its second level: its levels are K's own,
    shared, and nothing is walked.  For any other key, the key's orbit
    under K's generators is walked as a Schreier vector (:func:`_orbit_tree`),
    unless the caller passes that walk, made over the same generators, as
    ``tree``; orbit-stabilizer gives the order |K| / |orbit| exactly.  An
    orbit longer than |K|/2 is regular, since its length divides |K|: the
    walk stops there and the stabilizer is trivial.  Otherwise Schreier
    generators (:func:`_schreier_generators`) are sifted into a new group
    until it has that order; a subgroup of the stabilizer with the
    stabilizer's order is the stabilizer.  The orbit has at most |K| keys,
    and no element of K is listed.
    """
    size = k.order()
    if image is getitem and k._levels and k._levels[0].point == root:
        tail = PermutationGroup([], k.degree)
        tail._levels = k._levels[1:]
        tail._order = size // len(k._levels[0].orbit)
        tail.generators = tuple(map(Permutation._wrap, k._gens_at(1)))
        return tail
    gens = [g._tbl for g in k.generators]
    if tree is None:
        tree = _orbit_tree(root, gens, image, size // 2)
    if 2 * len(tree) > size:
        return PermutationGroup([], k.degree)
    target, rem = divmod(size, len(tree))
    if rem:
        raise RuntimeError(f"orbit of length {len(tree)} does not divide |K| = {size}")
    if target == size:
        return k
    generators = _schreier_generators(tree, gens, image, _tree_tables(tree, k._ident), {})
    stab = _group_of_order(generators, k.degree, target)
    if stab._order != target:
        raise RuntimeError(f"stabilizer has order {stab._order}, expected |K| / |orbit| = "
                           f"{target}")
    return stab


def _group_of_order(tables: Iterable[Table], degree: int, order: int) -> PermutationGroup:
    """The group generated by tables lying in a group of the given order.

    Each table is sifted through the chain made so far and a nontrivial
    residue placed, with the orbits of its level and those above rebuilt but
    no Schreier generator scanned.  The orbits' lengths multiply to at most
    the order of the group generated, so once they reach ``order`` the chain
    is complete (Seress, *Permutation Group Algorithms*, 2003, ch. 4, on a
    known order); if the tables run out first, the scan completes it.
    """
    grp = PermutationGroup([], degree)
    added = []
    for tbl in tables:
        r = grp._sift_tbl(tbl)
        if r == grp._ident:
            continue
        added.append(Permutation._wrap(tbl))
        for i in reversed(range(grp._place(r) + 1)):
            grp._rebuild_level(i)
        if math.prod(len(lvl.orbit) for lvl in grp._levels) == order:
            break
    else:
        grp._complete(len(grp._levels) - 1)
    grp._order = math.prod(len(lvl.orbit) for lvl in grp._levels)
    grp.generators = tuple(added)
    return grp


def _coset_key(h: PermutationGroup, y_inv: Table) -> Table:
    """The key of the right coset Hy, from y⁻¹: the inverse of the coset's least table.

    Walks H's stabilizer chain on the representative's inverse z: at each
    level the base point's image is made least, by the orbit point c = z[v]
    with v least, then z becomes z·u⁻¹ for the level's transversal u to c.
    Greedy is exact because every chain's base points ascend and each level's
    group fixes every point below its base point.
    """
    walk = h._walk
    if walk is None:
        # per level: the base point, its padded inverse transversals by orbit point,
        # and for an orbit of under half the points perm's _first_into; without it the
        # orbit is met reading z from 0 up, in about two entries for a larger orbit
        walk = h._walk = []
        for lvl in h._levels:
            inv = {b: u + h._pad for b, u in lvl.inv.items()}
            small = 2 * len(inv) < h.degree
            walk.append((lvl.point, inv, _first_into(inv, h.degree) if small else None))
    after, z = h._after, y_inv
    for point, inv, first in walk:
        if first is None:
            for c in z:
                if c in inv:
                    break
        else:
            c = z[first(z)]
        if c != point:
            z = after(z, inv[c])  # _compose_tbl(z, u⁻¹): z first, then u⁻¹
    return z


def from_generators(gens: Sequence[Permutation], degree: int) -> PermutationGroup:
    return PermutationGroup(gens, degree)


def trivial_group(degree: int) -> PermutationGroup:
    return PermutationGroup([], degree)


def _standard_generators(n: int, alternating: bool) -> list:
    """The generator tables of :func:`symmetric_group` or :func:`alternating_group`, in order.

    S_n: (1 2), then (1 2 ... n) from n = 3.  A_n from n = 3: (1 2 3), then
    from n = 4 the cycle (1 2 ... n) for odd n and (2 3 ... n) for even n.
    """
    first, pair_from = ([0, 1, 2], 4) if alternating else ([0, 1], 3)
    cycles = [first] if n >= len(first) else []
    if n >= pair_from:
        cycles.append(list(range(1 if alternating and n % 2 == 0 else 0, n)))
    return [_cycles_tbl([c], n) for c in cycles]


def symmetric_group(n: int) -> PermutationGroup:
    if n < 1:
        raise ValueError("degree must be at least 1")
    return PermutationGroup([Permutation._wrap(x) for x in _standard_generators(n, False)], n)


def alternating_group(n: int) -> PermutationGroup:
    if n < 3:
        return trivial_group(max(n, 1))
    g = PermutationGroup([Permutation._wrap(x) for x in _standard_generators(n, True)], n)
    if g.order() * 2 != math.factorial(n):
        raise RuntimeError(f"alternating group of degree {n} has order {g.order()}")
    return g


def read_generator_file(text: str) -> tuple:
    """Parse the generator-file format: line 1 the degree, then one cycle string per line.

    Returns (degree, [Permutation, ...]).  Blank lines are ignored.
    """
    degree, gens = read_generator_cycles(text)
    return degree, [Permutation._wrap(_cycles_tbl(c, degree)) for c in gens]


def read_generator_cycles(text: str) -> tuple:
    """:func:`read_generator_file` with each generator as its cycles, lists of 0-based points.

    Every check is made, and no work grows with the degree line.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty generator file")
    try:
        degree = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the degree, got {lines[0]!r}") from None
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    return degree, [_cycle_lists(ln, degree) for ln in lines[1:]]
