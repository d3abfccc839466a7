"""Exact maximum irredundant base sizes on coset actions, and certificate checking.

The action of G on the right cosets of a core-free subgroup H is realized
with canonical minimal coset representatives (a greedy walk down H's
stabilizer chain, valid because chain base points ascend through the natural
point order).  In that representation the pointwise stabilizer of a set of
cosets is just an element filter, so the longest strictly descending chain
of pointwise stabilizers is found by a memoized depth-first search over
subgroup element sets, with candidate points pruned to orbit representatives
of the current subgroup (conjugate continuations have equal length).

The verifier recomputes every certificate level as an intersection of
conjugates of H by enumeration and membership alone, trusting only the
certificate's conjugator witnesses.  The chain builders read their orders off
the same level pass, :meth:`PermutationGroup._conjugate_levels`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .certificate import CertLevel, ChainCertificate
from .group import ENUM_LIMIT_DEFAULT, LimitExceeded, PermutationGroup
from .perm import Permutation, _compose_tbl, _identity_tbl, _inverse_tbl


@dataclass
class OracleLimits:
    """Hard caps for the oracle; exceeding any of them is a clean refusal."""

    max_enum: int = 2_000_000  # elements of any enumerated group
    max_memo: int = 1_000_000  # distinct subgroups memoized during the search


@dataclass
class CosetAction:
    """G acting on the t right cosets of H, with canonical representatives.

    ``transversal[i]`` is the minimal element of the coset that is point
    i + 1; point 1 is the coset H itself with representative the identity.
    The stabilizer of point i + 1 is H conjugated by ``transversal[i]``.
    """

    group: PermutationGroup
    subgroup: PermutationGroup
    degree: int
    transversal: list
    _index: dict  # canonical representative table -> 0-based point

    def point_of(self, x: Permutation) -> int:
        """1-based point for the coset H x (x must lie in G)."""
        key = _min_coset_rep(self.subgroup, x._tbl)
        idx = self._index.get(key)
        if idx is None:
            raise ValueError("element does not represent a coset of this action")
        return idx + 1


def _min_coset_rep(h: PermutationGroup, y: tuple) -> tuple:
    """Lexicographically smallest image table in the coset {h y : h in H}.

    Walks H's stabilizer chain: at each level the image of the base point is
    made as small as possible.  Requires H to have been built with the
    natural point order.
    """
    if not h._natural_base:
        raise ValueError("minimal coset representatives require a natural-order chain")
    for lvl in h._levels:
        best = None
        for b in lvl.orbit:
            img = y[b]
            if best is None or img < best_img:
                best, best_img = b, img
        if best != lvl.point:
            y = _compose_tbl(lvl.orbit[best], y)
    return y


def build_coset_action(
    g: PermutationGroup,
    h: PermutationGroup,
    limit_t: int = 20_000,
    limit_enum: int = ENUM_LIMIT_DEFAULT,
) -> CosetAction:
    """Realize G on the cosets of H; requires H ≤ G, core-free, index within limit."""
    if g.degree != h.degree:
        raise ValueError("G and H must act on the same points")
    if not h.is_subgroup_of(g):
        raise ValueError("H is not a subgroup of G")
    t, rem = divmod(g.order(), h.order())
    if rem != 0:
        raise RuntimeError(f"|H| = {h.order()} does not divide |G| = {g.order()}")
    if t > limit_t:
        raise LimitExceeded(f"coset index {t} exceeds limit --limit-t {limit_t}")
    if t < 2:
        raise ValueError("subgroup equals the whole group; the coset action is trivial")
    if h.order() > limit_enum:
        raise LimitExceeded(
            f"subgroup order {h.order()} exceeds enumeration limit {limit_enum}"
        )

    gen_tbls = [x._tbl for x in g.generators]
    ident = _identity_tbl(g.degree)
    first = _min_coset_rep(h, ident)
    reps = [first]
    index = {first: 0}
    qi = 0
    while qi < len(reps):
        base = reps[qi]
        qi += 1
        for s in gen_tbls:
            key = _min_coset_rep(h, _compose_tbl(base, s))
            if key not in index:
                index[key] = len(reps)
                reps.append(key)
    if len(reps) != t:
        raise AssertionError(f"coset enumeration found {len(reps)} cosets, expected {t}")

    # faithfulness: the kernel is the intersection of all point stabilizers
    core = h._iter_element_tbls()
    for rep in reps[1:]:
        core = h._conjugate_members([rep], core)
        if len(core) == 1:
            break
    if len(core) > 1:
        raise ValueError(
            f"action not faithful: subgroup has a core of order {len(core)}"
        )

    return CosetAction(
        group=g,
        subgroup=h,
        degree=t,
        transversal=[Permutation._wrap(r) for r in reps],
        _index=index,
    )


def _coset_permutation(action: CosetAction, h_tbl: tuple) -> tuple:
    """0-based image table of an element of H acting on the coset points."""
    h = action.subgroup
    out = []
    for rep in action.transversal:
        key = _min_coset_rep(h, _compose_tbl(rep._tbl, h_tbl))
        out.append(action._index[key])
    return tuple(out)


def mibs(
    action: CosetAction,
    limits: Optional[OracleLimits] = None,
    prune: bool = True,
    ambient: str = "S",
) -> tuple:
    """Exact maximum irredundant base size of the action, with a witness certificate.

    Searches for the longest chain of strictly descending pointwise
    stabilizers.  The first point is fixed to 1 (all first choices are
    equivalent by transitivity); the search then works inside the stabilizer
    of point 1, where every later stabilizer is an element filter.  Memoized
    on the exact element set of the current subgroup; candidate points are
    pruned to orbit representatives unless ``prune`` is False.
    """
    limits = limits or OracleLimits()
    h = action.subgroup
    if h.order() > limits.max_enum:
        raise LimitExceeded(
            f"subgroup order {h.order()} exceeds enumeration limit {limits.max_enum}"
        )
    t = action.degree

    point_gens = [
        Permutation._wrap(_coset_permutation(action, g._tbl)) for g in h.generators
    ]
    h_hat = PermutationGroup(point_gens, t)
    if h_hat.order() != h.order():
        raise AssertionError("coset representation of the point stabilizer is not faithful")
    tbls = list(h_hat._iter_element_tbls())
    root = frozenset(range(len(tbls)))

    memo: dict = {}

    def depth_of(c: frozenset) -> int:
        hit = memo.get(c)
        if hit is not None:
            return hit[0]
        best_d, best_pt = 0, None
        if prune:
            seen = bytearray(t)
            for j in range(t):
                if seen[j]:
                    continue
                orb = {tbls[e][j] for e in c}
                for o in orb:
                    seen[o] = 1
                if len(orb) == 1:
                    continue
                child = frozenset(e for e in c if tbls[e][j] == j)
                d = 1 + depth_of(child)
                if d > best_d:
                    best_d, best_pt = d, j
        else:
            for j in range(t):
                child = frozenset(e for e in c if tbls[e][j] == j)
                if len(child) == len(c):
                    continue
                d = 1 + depth_of(child)
                if d > best_d:
                    best_d, best_pt = d, j
        if len(memo) >= limits.max_memo:
            raise LimitExceeded(f"memo table exceeds limit {limits.max_memo} entries")
        memo[c] = (best_d, best_pt)
        return best_d

    value = 1 + depth_of(root)
    # depth_of refers to itself through its closure; without this the cycle keeps
    # tbls and memo alive after mibs returns, until the cyclic collector runs
    del depth_of

    # replay the memoized best choices into a witness chain
    points = [0]
    orders = [len(root)]
    c = root
    while True:
        d, pt = memo[c]
        if pt is None:
            break
        points.append(pt)
        c = frozenset(e for e in c if tbls[e][pt] == pt)
        orders.append(len(c))
    if len(points) != value or orders[-1] != 1:
        raise RuntimeError(
            f"witness replay gave {len(points)} points ending at order {orders[-1]}, "
            f"expected {value} points ending at 1"
        )

    conjugators = [action.transversal[p] for p in points]
    levels = [
        CertLevel(conjugators=list(conjugators[: j + 1]), order=orders[j])
        for j in range(len(points))
    ]
    cert = ChainCertificate(
        degree=action.group.degree,
        ambient=ambient,
        family="explicit",
        params={},
        generators=list(h.generators),
        levels=levels,
        claimed_length=value,
    )
    return value, cert


# -- certificate verification --------------------------------------------------


@dataclass
class LevelResult:
    index: int
    claimed_order: int
    computed_order: Optional[int]
    ok: bool
    message: str = ""


@dataclass
class VerificationReport:
    ok: bool
    levels: list = field(default_factory=list)

    def summary(self) -> str:
        lines = []
        for r in self.levels:
            status = "pass" if r.ok else "FAIL"
            got = "?" if r.computed_order is None else str(r.computed_order)
            line = f"level {r.index}: claimed {r.claimed_order}, computed {got}: {status}"
            if r.message:
                line += f" ({r.message})"
            lines.append(line)
        lines.append("certificate VERIFIED" if self.ok else "certificate INVALID")
        return "\n".join(lines)


def verify_certificate(
    cert: ChainCertificate, h: PermutationGroup, limit: int = ENUM_LIMIT_DEFAULT
) -> VerificationReport:
    """Recompute every level as an intersection of conjugates of H and check all claims.

    Trusts nothing from the builder: each level's element set is recomputed
    from H and the level's conjugator set by enumeration and membership.
    The levels come from one pass of :meth:`PermutationGroup._conjugate_levels`:
    nested conjugator sets are filtered incrementally, a non-nested set is
    recomputed from H, and a level is computed only once every earlier level
    has been reported.
    """
    report = VerificationReport(ok=True)

    def fail(idx, claimed, computed, msg):
        report.levels.append(LevelResult(idx, claimed, computed, False, msg))
        report.ok = False

    if h.degree != cert.degree:
        fail(0, 0, None, f"subgroup degree {h.degree} != certificate degree {cert.degree}")
        return report
    if h.order() > limit:
        raise LimitExceeded(f"subgroup order {h.order()} exceeds enumeration limit {limit}")
    if not cert.levels:
        fail(0, 0, None, "certificate has no levels")
        return report
    if cert.claimed_length != len(cert.levels):
        fail(0, 0, None, f"claimed_length {cert.claimed_length} != {len(cert.levels)} levels")

    lvl0 = cert.levels[0]
    if not lvl0.conjugators or not all(x.is_identity() for x in lvl0.conjugators):
        fail(0, lvl0.order, None, "level 0 must carry exactly the identity conjugator")
        return report
    if lvl0.order != h.order():
        fail(0, lvl0.order, h.order(), "level 0 order does not match |H|")
        return report
    report.levels.append(LevelResult(0, lvl0.order, h.order(), True))

    tables = h._conjugate_levels([x._tbl for x in lvl.conjugators] for lvl in cert.levels[1:])
    prev_order = h.order()
    for idx, lvl in enumerate(cert.levels[1:], 1):
        if not any(x.is_identity() for x in lvl.conjugators):
            fail(idx, lvl.order, None, "conjugator set lacks the identity")
            return report
        order = len(next(tables))

        ok = True
        msgs = []
        if order != lvl.order:
            ok = False
            msgs.append("recomputed order differs from claim")
        if not order < prev_order:
            ok = False
            msgs.append("level does not strictly descend")
        report.levels.append(LevelResult(idx, lvl.order, order, ok, "; ".join(msgs)))
        if not ok:
            report.ok = False
        prev_order = order

    last = cert.levels[-1]
    if len(cert.levels) == 1 or prev_order != 1 or last.order != 1:
        fail(len(cert.levels) - 1, last.order, prev_order, "terminal level is not trivial")
    return report


def chain_to_base(cert: ChainCertificate, action: CosetAction) -> list:
    """Convert a verified certificate into an irredundant base of coset points.

    Collects the points of the conjugator cosets level by level, then removes
    every point that does not strictly reduce the running pointwise
    stabilizer.  The resulting sequence has length at least the certificate's
    claimed length and its stabilizer chain passes through every level.
    """
    h = action.subgroup
    report = verify_certificate(cert, h)
    if not report.ok:
        raise ValueError("certificate invalid:\n" + report.summary())

    seq = []
    seen = set()
    for lvl in cert.levels:
        for x in lvl.conjugators:
            p = action.point_of(x)
            if p not in seen:
                seen.add(p)
                seq.append(p)

    level_orders = {lvl.order for lvl in cert.levels}
    kept = []
    visited_orders = set()
    current = None  # running stabilizer elements; None = all of G (before any point)
    for p in seq:
        x = action.transversal[p - 1]._tbl
        if current is None:
            # the first point always descends: its stabilizer is H^x < G
            kept.append(p)
            x_inv = _inverse_tbl(x)
            current = [_compose_tbl(_compose_tbl(x_inv, e), x) for e in h._iter_element_tbls()]
            visited_orders.add(len(current))
            continue
        new = h._conjugate_members([x], current)
        if len(new) < len(current):
            kept.append(p)
            current = new
            visited_orders.add(len(current))
    if len(current) != 1:
        raise ValueError("base does not reduce the stabilizer to the trivial group")
    if not level_orders <= visited_orders:
        raise ValueError("stabilizer chain of the base misses a certificate level")
    if len(kept) < cert.claimed_length:
        raise ValueError(
            f"irredundant base of length {len(kept)} shorter than claimed "
            f"{cert.claimed_length}"
        )
    return kept
