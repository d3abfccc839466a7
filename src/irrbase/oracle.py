"""Exact maximum irredundant base sizes on coset actions.

The action of G on the right cosets of a subgroup H is realized with coset
keys, the inverses of the least coset representatives, from a greedy walk
down H's stabilizer chain on inverse tables (:func:`irrbase.group._coset_key`):
Hx·s is canonicalized from (xs)⁻¹, the table s⁻¹ then Hx's key.  H acts
on the t coset points through a homomorphism T, so the tables T(u) of the
transversal elements u of H's stabilizer chain carry all of H's action:
they are made once per action, from the strong generators' tables alone
(:class:`_CosetTables`), which generate T(H), the group H induces.  The
breadth-first search that numbers the cosets finds the table of each
generator of G on the way.  Where G is S_n or A_n given by its standard
pair, a strong generator's table is the product of those along a
word in G's generators (:func:`_word_tables`), so no coset is canonicalized
after the search.  An edge Hx·s = Hy of a generator s with s·s = 1 (S_n's
transposition) also gives Hy·s = Hx, which is written at once: M11's 5040
cosets in S11 take 7,561 canonicalizations, one for H and one per coset and
generator of G, less one per 2-cycle of the transposition.  Any other G has
the strong generators mapped through the cosets
(:func:`irrbase.coset_points._coset_permutation`).  An element of H is
u_{L-1} ⋯ u_0, one transversal element per chain level, so its image of a
coset point is read through L of those tables without a table of its own,
and the elements of H fixing a point j are found by pushing j through them,
with no table inverted.  No list of all of H on the cosets is made.

The longest strictly descending chain of pointwise stabilizers is found by a
memoized branch-and-bound search over subgroups of H (:func:`_longest_chain`),
with candidate points pruned to orbit representatives of the current
subgroup (conjugate continuations have equal length).  A chain below a
subgroup of order m has at most Ω(m) steps, Ω counting m's prime factors
with multiplicity (the bound on an irredundant base of Cameron and
Fon-Der-Flaass, *European J. Combin.* 16, 1995), so a child that could at
best tie its node's best depth so far is not entered, and the search stays
exact.  A node is H or a point stabilizer of H, of one of two kinds chosen
once per action from t and |H| (:func:`_group_nodes`), and H is searched
as any other node.  Where t is small beside |H|, as for natural S_n and A_n
(t = n), a node is a permutation group of degree t in T(H), the group the
strong generators' tables generate, so natural S10's search never lists
the 40,320 elements of a point stabilizer; each orbit that the scan reads
is walked once, and the child fixing a point comes from that walk by
orbit-stabilizer.  Otherwise a node below H is a set of H's element numbers
whose images of a point are read through the level tables, one pass of
length |c| per level, and nothing of length t is made: on M11's 5040
cosets in S11 the search reads 3,383 columns, 272,016 level-table entries
in all.  H's own numbers are never listed: its orbits are walked over the
strong generators' tables and its children numbered from the level tables.
Either kind scans only the non-regular orbits a node's parent handed on,
as a point regular for a subgroup is regular below it, and an H with a
nontrivial core is refused, from |T(H)| < |H| or at the first node the
search would finish.

``cmd_oracle`` is the ``oracle`` subcommand, and :func:`_build_subgroup`
makes its G and H, every refusal that orders decide first.  Code that no
``oracle`` run calls lives in :mod:`irrbase.coset_points`: an element's coset
table for a G other than the standard pair of S_n or A_n, and
:func:`irrbase.coset_points.chain_to_base`, which turns a verified
certificate into an irredundant base of coset points.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from functools import cache, reduce
from itertools import accumulate, compress
from operator import getitem, itemgetter, mul, ne
from typing import Optional

from .certificate import (COSET_LIMIT_DEFAULT, ENUM_LIMIT_DEFAULT, MEMO_LIMIT_DEFAULT,
                          ORACLE_MAX_DEGREE, CertLevel, ChainCertificate, LimitExceeded,
                          check_coset_orders, check_family, check_intersect_limit,
                          check_oracle_degree, checked_power, family_order, omega, power_text)
from .group import (PermutationGroup, _coset_key, _group_of_order, _orbit_tree, _stabilizer,
                    _standard_generators, _tree_tables, alternating_group, read_generator_cycles,
                    symmetric_group)
from .perm import (Permutation, _compose_tbl, _cycles_even, _cycles_tbl, _identity_tbl,
                   _inverse_tbl, _inverts_in_c, _table, _then)


class OracleLimits:
    """The oracle search's hard cap; exceeding it is a clean refusal."""

    def __init__(self, max_memo: int = MEMO_LIMIT_DEFAULT):
        self.max_memo = max_memo  # distinct subgroups memoized during the search


class CosetAction:
    """G acting on the t right cosets of H, with canonical representatives.

    ``transversal[i]`` is the minimal element of the coset that is point
    i + 1; point 1 is the coset H itself with representative the identity.
    The stabilizer of point i + 1 is H conjugated by ``transversal[i]``.  The
    cosets are kept as their keys, ``_keys``, the inverse tables of those
    representatives (:func:`irrbase.group._coset_key`), and ``transversal``
    inverts a key and makes a :class:`Permutation` only for an index that is
    read; t is their number.  No map from key to point is kept: the search
    that numbers the cosets drops its own when it ends.  ``_tables`` holds
    the coset tables of H's chain transversals.
    """

    def __init__(self, group: PermutationGroup, subgroup: PermutationGroup, keys: list):
        self.group = group
        self.subgroup = subgroup
        self.degree = len(keys)
        self._keys = keys  # 0-based point -> its coset's key
        self.transversal = _Transversal(keys)
        self._tables = None  # the _CosetTables, once build_coset_action has made them


class _Transversal(Sequence):
    """The coset representatives as permutations, each made from its key when it is read."""

    def __init__(self, keys: list):
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [Permutation._wrap(_inverse_tbl(key)) for key in self._keys[i]]
        return Permutation._wrap(_inverse_tbl(self._keys[i]))


def build_coset_action(
    g: PermutationGroup,
    h: PermutationGroup,
    limit_t: int = COSET_LIMIT_DEFAULT,
    limit_enum: int = ENUM_LIMIT_DEFAULT,
) -> CosetAction:
    """Realize G on the cosets of H; requires H ≤ G and an index within limit.

    An H with a nontrivial core gives an action that is not faithful; :func:`mibs`
    refuses it.
    """
    if g.degree != h.degree:
        raise ValueError("G and H must act on the same points")
    if not h.is_subgroup_of(g):
        raise ValueError("H is not a subgroup of G")
    t, rem = divmod(g.order(), h.order())
    if rem != 0:
        raise RuntimeError(f"|H| = {h.order()} does not divide |G| = {g.order()}")
    if t > limit_t:
        raise LimitExceeded(f"coset index {t} exceeds limit --limit-t {limit_t}")
    check_coset_orders(t, h.order(), limit_enum)

    gen_tbls = [x._tbl for x in g.generators]
    inv_then, pad = [_then(_inverse_tbl(s)) for s in gen_tbls], g._pad
    involutions = [_compose_tbl(s, s) == g._ident for s in gen_tbls]
    first = _coset_key(h, g._ident)
    keys = [first]
    index = {first: 0}
    images = [[-1] * t for _ in gen_tbls]  # images[i][x]: the point that generator i takes x to
    # not a Schreier vector: every edge's image is kept, for _word_tables's full rows
    for x, base in enumerate(keys):  # grows while it is walked: a breadth-first queue
        base = base + pad
        for then, row, involution in zip(inv_then, images, involutions):
            if row[x] < 0:  # else an involution took a point numbered before x to x
                key = _coset_key(h, then(base))
                y = index.setdefault(key, len(keys))
                if y == len(keys):
                    if y == t:
                        raise RuntimeError(f"coset enumeration found more than {t} cosets")
                    keys.append(key)
                row[x] = y
                if involution:  # Hx·s = Hy gives Hy·s = Hx: Hy·s is never canonicalized
                    row[y] = x
    if len(keys) != t:
        raise RuntimeError(f"coset enumeration found {len(keys)} cosets, expected {t}")
    del index  # at t = 362,880 a 20 MiB dict: nothing after the search reads it

    action = CosetAction(group=g, subgroup=h, keys=keys)
    strong = list(dict.fromkeys(s for lvl in h._levels for s in lvl.gens))
    alternating = next((alt for alt in (False, True)
                        if len(gen_tbls) == 2 and gen_tbls == _standard_generators(g.degree, alt)),
                       None)
    if alternating is None:  # G given otherwise: each strong generator mapped through the cosets
        from .coset_points import _coset_permutation

        coset_tables = {s: _coset_permutation(action, s) for s in strong}
    else:
        coset_tables = _word_tables(gen_tbls, [_table(row) for row in images], alternating, strong)
    del images  # at t = 362,880 each of these tables is 2.8 MiB: none is held past its use
    action._tables = _CosetTables(action, coset_tables)
    return action


def _word_tables(gens: list, images: list, alternating: bool, elements: list) -> dict:
    """The coset tables T(h) of elements h of G = S_n or A_n, as products along words.

    ``gens`` is G's standard pair a, b (:func:`irrbase.group._standard_generators`)
    and ``images`` holds T(a) and T(b).  T is a homomorphism under the right
    action, T(xy) = T(x)·T(y), so a word for h in G's generators gives T(h)
    with one pass of length t per letter and no coset canonicalized.  The
    letters are the conjugates c_k = a^(b^k) = b^-k a b^k, each tabled from
    c_(k-1) with two passes: the transpositions (k+1 k+2) for S_n, the 3-cycles
    (k+1 k+2 k+3) for A_n with odd n, and (1 k+2 k+3) for A_n with even n,
    where b fixes 1.  A word is found by sorting the table of h⁻¹: letters
    applied on the left move each value p to place p, from p = n-1 down (a
    bubble sort for S_n), and h is the product of the letters applied, the
    last first; a 3-cycle applied backwards is c_k² (Seress, *Permutation
    Group Algorithms*, 2003, on straight-line programs).  Places are 0-based.
    """
    a, b = gens
    n = len(a)
    b_inv, tb_inv = _inverse_tbl(b), _inverse_tbl(images[1])
    letters = [(a, images[0])]  # c_k on the n points and on the t cosets
    for _ in range(n - 3 if alternating else n - 2):
        c, tc = letters[-1]
        letters.append((_compose_tbl(_compose_tbl(b_inv, c), b),
                        _compose_tbl(_compose_tbl(tb_inv, tc), images[1])))
    out = {}
    for h in elements:
        pts, word = list(_inverse_tbl(h)), []
        for p in range(n - 1, 1 if alternating else 0, -1):
            while (q := pts.index(p)) != p:
                if not alternating:  # c_q swaps places q and q+1
                    k, back = q, False
                elif n % 2:  # c_q moves place q to q+2, c_(p-2)⁻¹ place p-1 to p
                    k, back = (q, False) if q < p - 1 else (p - 2, True)
                else:  # c_(q-1) moves place q to 0, c_(p-2) 0 to p, c_(p-2)⁻¹ p-1 to p
                    k, back = (q - 1, False) if 0 < q < p - 1 else (p - 2, q > 0)
                c, tc = letters[k]
                pts = [pts[i] for i in (_compose_tbl(c, c) if back else c)]
                word += [tc, tc] if back else [tc]
        out[h] = reduce(_compose_tbl, reversed(word)) if word else _identity_tbl(len(images[0]))
    return out


class _CosetTables:
    """The coset tables of the transversals of H's stabilizer chain.

    T(e) is the 0-based table of e ∈ H on the t coset points.  ``levels[k]``
    holds T(u) for the transversal elements u of level k, composed along the
    level's tree in its orbit order, so ``levels[k][0]`` is the identity.
    Every element of H is u_{L-1} ⋯ u_0 for one u_k per level (so a coset
    point meets level L-1's table first) and is numbered by its path
    (i_0, ..., i_{L-1}) in mixed radix, i_0 varying fastest.  An element's
    image of a point j is therefore T(u_0)[⋯T(u_{L-1})[j]], read off the
    level tables without a table of the element: :meth:`level_lists` gives a
    set of elements that form.  ``gens`` holds the strong generators'
    tables, which generate T(H) and give H's orbits.
    """

    def __init__(self, action: CosetAction, coset_table: dict):
        # T is a homomorphism, so the strong generators' tables (coset_table) give each
        # level's, composed along the Schreier vector that the level keeps
        self.identity = ident = _identity_tbl(action.degree)  # T(1): the points 0..t-1
        self.levels = [list(_tree_tables(lvl.tree, ident, coset_table).values())
                       for lvl in action.subgroup._levels] or [[ident]]  # a trivial H: one level
        # strides[k]: the place value of level k's choice in a number
        self.strides = list(accumulate((len(level) for level in self.levels[:-1]), mul, initial=1))
        self.gens = list(coset_table.values())

    def fixers(self, j: int) -> list:
        """Numbers of the elements of H fixing point j, ascending.

        j is pushed through levels L-1 down to 1 without building any element;
        for each distinct point p reached, the u_0 with T(u_0)[p] = j are kept,
        one entry of each level-0 table read per point.
        """
        levels = self.levels
        pts = [j]
        for level in reversed(levels[1:]):
            pts = [u[p] for p in pts for u in level]  # the later level varies fastest
        back = {p: [i for i, u in enumerate(levels[0]) if u[p] == j] for p in set(pts)}
        n0 = len(levels[0])
        return [k * n0 + i for k, p in enumerate(pts) for i in back[p]]

    def level_lists(self, numbers: list) -> list:
        """Per level, top first, the level table that each numbered element uses there.

        Levels where every element uses the identity are left out, so
        :func:`_column` reads the elements' images of a point in one pass of
        length len(numbers) per remaining level.
        """
        lists = []
        for level, stride in zip(reversed(self.levels), reversed(self.strides)):
            m = len(level)
            choices = [e // stride % m for e in numbers]
            if any(choices):
                lists.append([level[i] for i in choices])
        return lists


def _column(lists: list, j: int) -> list:
    """The images of point j under a set of elements, read through their lists.

    ``lists[k][i]`` is the k-th table that element i's image passes through:
    the level lists of :meth:`_CosetTables.level_lists`, top level first, one
    pass of length len(lists[k]) per level.  ``lists`` is empty only for the
    identity alone, which is never read.
    """
    col = list(map(itemgetter(j), lists[0]))
    for tbls in lists[1:]:
        col = list(map(getitem, tbls, col))
    return col


def _fixing(numbers: list, lists: list, j: int, col: list) -> tuple:
    """The numbers and lists of the elements whose image of j, in ``col``, is j."""
    mask = [p == j for p in col]
    return list(compress(numbers, mask)), [list(compress(tbls, mask)) for tbls in lists]


def mibs(
    action: CosetAction,
    limits: Optional[OracleLimits] = None,
    prune: bool = True,
    ambient: str = "S",
) -> tuple:
    """Exact maximum irredundant base size of the action, with a witness certificate.

    Searches for the longest chain of strictly descending pointwise
    stabilizers.  The first point is fixed to 1 (all first choices are
    equivalent by transitivity); the search then works inside H, the
    stabilizer of point 1.  Memoized on the current subgroup's exact element
    set or fixed-point set and bounded by the subgroups' orders; candidate
    points are pruned to orbit representatives unless ``prune`` is False.
    Raises ValueError if H has a nontrivial core.
    """
    limits = limits or OracleLimits()
    h = action.subgroup
    points, orders, memo = _longest_chain(action, limits.max_memo, prune)
    value = 1 + memo[None][0]
    if len(points) != value or orders[-1] != 1:
        raise RuntimeError(
            f"witness replay gave {len(points)} points ending at order {orders[-1]}, "
            f"expected {value} points ending at 1"
        )

    conjugators = [action.transversal[p] for p in points]
    levels = [CertLevel(conjugators[: j + 1], orders[j]) for j in range(len(points))]
    return value, ChainCertificate(action.group.degree, ambient, "explicit", {},
                                   list(h.generators), levels, value)


def _longest_chain(action: CosetAction, max_memo: int, prune: bool) -> tuple:
    """The points and orders of a longest stabilizer chain from H, and the search's memo.

    A node is H or a point stabilizer c of H, a tuple (key, order, ...) of
    the kind chosen once per action (:func:`_group_nodes`): a permutation
    group of degree t (:class:`_GroupNodes`) or H's element numbers read
    through the level tables (:class:`_LevelNodes`).  The kind gives a
    node's orbit of a point and the child fixing it; the search, its bound
    and the witness replay are one for both kinds and for every node, H
    included.  H's key is None, and it is searched from all t points with
    no point regular yet.  The memo maps every subgroup entered, by its
    key, to its (depth, best point), in the order the depth-first search
    finishes them, so H comes last.

    A chain below a subgroup of order m has at most Ω(m) steps, so a child
    of order m = |c|/|j^c|, its orbit read in the scan, is entered only when
    1 + Ω(m) exceeds the best depth found at c so far.  A child left out
    could at best tie, and a tie never replaces the best point, so every
    entered subgroup's depth and best point, the value and the witness are
    those of the unbounded search; only memo entries that cannot win are
    missing.

    A point j gives c a nontrivial child only when j's c-orbit is
    non-regular; every other point that c moves gives depth 1, through the
    trivial subgroup, and stays regular for every subgroup below.  So a
    node scans only the non-regular orbits its parent handed on (all t
    points, at H) and hands on its own; with none left, the best depth is 1
    at the least point that c moves, and a subgroup of prime order, which
    has none, reads points only up to that one.  A full scan would recurse
    on every point a subgroup moves, so the first subgroup it finished
    would move no point: the trivial subgroup is entered first, and the
    memo, entry by entry, is that of the full scan under the same bound.
    The core K of H fixes every point and lies in every node, so while
    K != 1 no orbit is regular and every node but K has a moved point to
    descend through: the first node finished with no moved point, its best
    point still t, is K, and it is refused there (group nodes refuse it
    earlier, from T(H)).  The bound leaves that first descent whole, as
    each node's first child has order at least 2 and its node's best depth
    is then at most 1.
    """
    t = action.degree
    order = action.subgroup.order()
    kind = (_GroupNodes if _group_nodes(t, order) else _LevelNodes)(action._tables, order)
    max_steps = cache(omega)  # Ω(m) bounds the steps of a chain below a subgroup of order m

    def enter(c, n: int, best_d: int, best_pt) -> None:
        """Memoize c, of order n; a c whose best point is t moves no point: it is the core."""
        if best_pt == t:
            raise ValueError(f"action not faithful: subgroup has a core of order {n}")
        if len(memo) >= max_memo:
            raise LimitExceeded(f"memo table exceeds limit {max_memo} entries")
        memo[c] = (best_d, best_pt)

    # entered without the limit test, so that a core is refused before any memo limit
    memo: dict = {kind.trivial[0]: (0, None)} if order > 1 else {}
    seen = bytearray(t)

    def depth_of(node: tuple, cand: Sequence[int], regular: int) -> int:
        """The depth of a nontrivial subgroup, H or one below it.

        ``cand`` is a union of its orbits holding every non-regular one, in
        increasing order; ``regular`` is the least point regular for its
        parent (t at H), and every such point is regular for it.
        """
        c, n = node[:2]
        hit = memo.get(c)
        if hit is not None:
            return hit[0]
        if max_steps(n) == 1:  # prime order: every orbit is a fixed point or regular, no child
            moved = (j for j in cand if j < regular and len(set(kind.orbit(node, j))) > 1)
            best_pt = next(moved, regular)
            enter(c, n, 1, best_pt)
            return 1
        reads = {}  # least point of a non-regular orbit -> its orbit as the kind reads it
        inner = {}  # every point of the non-regular orbits -> its orbit's size
        for j in cand:
            if seen[j]:
                continue
            read = kind.orbit(node, j)
            orb = set(read)
            for o in orb:
                seen[o] = 1
            if len(orb) == n:
                regular = min(regular, j)
            elif len(orb) > 1:
                reads[j] = read
                inner.update(dict.fromkeys(orb, len(orb)))
        for j in cand:
            seen[j] = 0
        below = sorted(inner)
        best_d, best_pt = 1, regular  # with no non-regular orbit, the least moved point
        for j in reads if prune else below:
            if 1 + max_steps(n // inner[j]) <= best_d:  # the child, of order n/|j^c|, can only tie
                continue
            read = reads[j] if j in reads else kind.orbit(node, j)
            d = 1 + depth_of(kind.child(node, j, read), below, regular)
            if d > best_d:
                best_d, best_pt = d, j
        enter(c, n, best_d, best_pt)
        return best_d

    if order > 1:
        depth_of(kind.h, range(t), t)
    else:  # a trivial H: the chain is point 1 alone, entered under the memo limit
        enter(None, 1, 0, None)
    # depth_of refers to itself through its closure; without this the cycle keeps
    # the nodes and memo alive after the search, until the cyclic collector runs
    del depth_of

    # replay the memoized best choices from H into a witness chain
    points, orders, node = [0], [order], kind.h
    while (pt := memo[node[0]][1]) is not None:
        node = kind.child(node, pt, kind.orbit(node, pt))
        if node[1] >= orders[-1]:
            raise RuntimeError(f"witness replay does not descend at point {pt}")
        points.append(pt)
        orders.append(node[1])
    return points, orders, memo


def _group_nodes(t: int, order: int) -> bool:
    """Whether the search over an H of this order on t cosets takes group nodes.

    Group nodes pay for orbit walks and Schreier-Sims at degree t, which
    inverts tables of length t, in one C-level call only where
    :func:`irrbase.perm._inverts_in_c` says so.  Element reads pay one pass
    of length |c| per chain level for each orbit that a node c reads.  So
    group nodes are taken where t^(3/2) <= |H| and tables of length t invert
    in C.  Medians of ``_longest_chain`` in ms, in process on a 2-vCPU
    x86-64 host, with every stabilizer of at least t elements tabled element
    by element (the search this replaced) / group nodes / element reads; the
    group-node column is re-measured with one orbit walk per orbit read:

    - natural S6 0.12 / 0.40 / 0.14, S7 0.28 / 0.41 / 0.39, S8 1.05 / 0.53 /
      1.61, S9 4.5 / 0.71 / 11.9, S10 30.8 / 1.02 / 100;
    - natural A6 0.09 / 0.19 / 0.08, A7 0.18 / 0.39 / 0.20, A8 0.58 / 0.42 /
      0.95, A9 2.1 / 0.64 / 5.5, A10 17.2 / 0.71 / 51;
    - S5 wr S2 in S10 (t = 126) 4.8 / 3.9 / 11.9, S6 x S3 in S9 (t = 84)
      4.3 / 5.5 / 7.2, S5 x S5 in S10 (t = 252) 19.7 / 24 / 57;
    - element reads, as tuples invert in a Python loop: S6 wr S2 in S12
      (t = 462) 857 / 414 / 615, S7 x S4 in S11 (t = 330) 283 / 614 / 449.
    """
    return _inverts_in_c(t) and t ** 3 <= order ** 2


class _GroupNodes:
    """Search nodes as permutation groups of degree t: T(H) and its point stabilizers.

    T(H) is generated by the coset tables of H's strong generators; its
    order is |H| over the order of H's core, which is refused here.  A node
    is (fixed-point set, order, group, its generators' tables), and H's key
    is None: every node c below H is a pointwise stabilizer, so
    c = H_(Fix c) and its fixed points are an exact key.  A point's orbit
    is walked once, as a Schreier vector (:func:`irrbase.group._orbit_tree`),
    and the child fixing it is :func:`irrbase.group._stabilizer` of that
    vector, which at c's first base point is c's chain from its second level.
    """

    def __init__(self, tables: _CosetTables, order: int):
        t = len(tables.identity)
        h = _group_node(_group_of_order(tables.gens, t, order))
        if h[1] < order:
            raise ValueError(f"action not faithful: subgroup has a core of order {order // h[1]}")
        self.h = (None, *h[1:])
        self.trivial = _group_node(PermutationGroup([], t))

    @staticmethod
    def orbit(node: tuple, j: int) -> dict:
        return _orbit_tree(j, node[3])

    @staticmethod
    def child(node: tuple, j: int, tree: dict) -> tuple:
        return _group_node(_stabilizer(node[2], j, getitem, tree))


def _group_node(grp: PermutationGroup) -> tuple:
    gens = [g._tbl for g in grp.generators]
    points = range(grp.degree)
    moved = set()
    for g in gens:
        moved.update(compress(points, map(ne, g, grp._ident)))
    return frozenset(points).difference(moved), grp.order(), grp, gens


class _LevelNodes:
    """Search nodes as H's element numbers, whose images are read through the level tables.

    A node below H is (the set of element numbers, order, the numbers
    ascending, level lists (:meth:`_CosetTables.level_lists`)).  A point's
    orbit is its column (:func:`_column`), and the child fixing it keeps
    the entries that the column's mask selects (:func:`_fixing`), so
    nothing of length t is made.  H is (None, |H|, None, None), its element
    numbers never listed: its orbit of a point is walked over the strong
    generators' tables, and its child fixing j is numbered by
    :meth:`_CosetTables.fixers`.
    """

    def __init__(self, tables: _CosetTables, order: int):
        self.tables = tables
        self.h = (None, order, None, None)
        self.trivial = _level_node([0], [])  # element number 0 is the identity

    def orbit(self, node: tuple, j: int) -> list:
        if node[0] is None:  # H's orbit as its points alone: the scan holds every non-regular one
            return list(_orbit_tree(j, self.tables.gens))
        return _column(node[3], j)

    def child(self, node: tuple, j: int, read: list) -> tuple:
        if node[0] is None:
            numbers = self.tables.fixers(j)
            return _level_node(numbers, self.tables.level_lists(numbers))
        return _level_node(*_fixing(node[2], node[3], j, read))


def _level_node(numbers: list, lists: list) -> tuple:
    return frozenset(numbers), len(numbers), numbers, lists


def _build_subgroup(args, ambient: str):
    """Returns (G, H, family, params, degree, t) for the oracle subcommand.

    Every refusal that orders decide comes before H (agl, wreath) or G = S_n
    or A_n is built, in this order: usage and the family's rules
    (:func:`check_family`); a degree over ``ORACLE_MAX_DEGREE``; under A,
    intersect's cap on listing an agl or wreath H; the index t; then t < 2 and
    |H|.  The orders come from :func:`family_order`; only an explicit H's
    parity is read, for H <= A_n, and its chain is built under the |H| cap.
    """
    from .cli import UsageError, _check_reads, _family_params

    family = args.subgroup
    if family == "explicit" and not args.gens_file:
        raise UsageError("--subgroup explicit requires --gens-file")
    params = {} if family == "explicit" else _family_params(args, family, f"--subgroup {family}")
    _check_reads(args)
    if family == "explicit":
        with open(args.gens_file) as fh:  # cycles, not tables: the degree cap comes first
            n, cycles = read_generator_cycles(fh.read())
        # H <= S_n always, and H <= A_n exactly when every generator is even (A_1, A_2 too)
        if ambient == "A" and not all(map(_cycles_even, cycles)):
            raise UsageError("supplied generators do not lie in the ambient group")
        shown = n
    elif family == "natural":
        if args.n < 3:
            raise UsageError("natural action needs n >= 3")
        n = shown = args.n
    else:
        check_family(family, params)
        base, exp = params.values()
        n = checked_power(ORACLE_MAX_DEGREE, base, exp)  # no work grows with exp
        shown = power_text(base, exp, n)
    check_oracle_degree(n, shown)
    if family == "explicit":
        h = PermutationGroup([Permutation._wrap(_cycles_tbl(c, n)) for c in cycles], n,
                             args.limit_enum)
        h_order = h.order()
    else:
        h_order = family_order(family, params, n, ambient)
    # |S_n| = n! and |A_n| = max(1, n!/2): G is the point stabilizer of S_{n+1} or A_{n+1}
    g_order = family_order("natural", {"n": n + 1}, n + 1, ambient)
    if ambient == "A" and family in ("agl", "wreath"):  # intersect lists the smaller of H, A_n
        check_intersect_limit(min(family_order(family, params, n, "S"), g_order),
                              args.limit_enum)
    t = g_order // h_order  # H <= G in every family, so |H| divides |G|
    if t > args.limit_t:
        raise LimitExceeded(
            f"coset index {g_order}/{h_order} = {t} exceeds limit --limit-t {args.limit_t}"
        )
    check_coset_orders(t, h_order, args.limit_enum)
    if family == "agl":
        from .affine import build_agl

        h = build_agl(args.p, args.d).H
    elif family == "wreath":
        from .wreath import build_wreath

        h = build_wreath(args.m, args.k).M
    g = symmetric_group(n) if ambient == "S" else alternating_group(n)
    if family == "natural":
        h = g.point_stabilizer(n)
    elif ambient == "A" and family in ("agl", "wreath"):
        from .elements import intersect

        h = intersect(h, g, args.limit_enum)
    return g, h, family, params, n, t


def cmd_oracle(args) -> int:
    from .cli import EXIT_OK, _write_output

    ambient = args.ambient
    g, h, family, params, degree, t = _build_subgroup(args, ambient)
    limits = OracleLimits(max_memo=args.limit_memo)
    action = build_coset_action(g, h, limit_t=args.limit_t, limit_enum=args.limit_enum)
    value, cert = mibs(action, limits=limits, prune=not args.no_prune, ambient=ambient)
    cert.family = family
    cert.params = params
    result = {
        "ambient": ambient,
        "degree": degree,
        "subgroup": {"family": family, "params": dict(sorted(params.items()))},
        "index": str(t),
        "mibs": value,
    }
    if args.format == "json":
        print(json.dumps(result, indent=2))
    else:
        print(f"mibs = {value}  (ambient {ambient}, degree {degree}, index {t})")
    if args.out:
        _write_output(cert.to_json(), args.out)
    return EXIT_OK
