"""Coset points read one element or one certificate at a time, which no subcommand does.

:func:`_coset_permutation` maps an element of H through all t coset keys:
:func:`irrbase.oracle.build_coset_action` takes the strong generators' coset
tables from it only for a G other than the standard pair of S_n or A_n, which
the command line never builds.  :func:`chain_to_base` turns a certificate,
checked by :func:`irrbase.verify.verify_certificate`, into an irredundant base
of coset points, finding each conjugator's point among the t coset keys.
"""

from __future__ import annotations

from .certificate import ChainCertificate
from .group import _coset_key
from .oracle import CosetAction
from .perm import Table, _inverse_tbl, _table, _then
from .verify import verify_certificate


def _coset_permutation(action: CosetAction, h_tbl: Table) -> Table:
    """0-based image table of an element of H acting on the coset points."""
    h, keys = action.subgroup, action._keys
    then, pad = _then(_inverse_tbl(h_tbl)), h._pad  # the key of Hx·e: e⁻¹ then x⁻¹
    index = dict(zip(keys, range(len(keys))))  # coset key -> 0-based point
    return _table([index[_coset_key(h, then(key + pad))] for key in keys])


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

    # each conjugator's coset, by its key, first appearances only
    keys = dict.fromkeys(_coset_key(h, _inverse_tbl(x._tbl))
                         for lvl in cert.levels for x in lvl.conjugators)
    try:
        seq = [action._keys.index(key) + 1 for key in keys]  # 1-based points
    except ValueError:
        raise ValueError("element does not represent a coset of this action") from None

    level_orders = {lvl.order for lvl in cert.levels}
    # the running stabilizers, over the nested prefixes of the points' representatives; the
    # first point is H's coset, level 0's, whose representative is the identity
    reps = [_inverse_tbl(action._keys[p - 1]) for p in seq]
    levels = h._conjugate_levels(reps[: j + 1] for j in range(len(reps)))
    current = next(levels)  # H, the stabilizer of the first point: it always descends from G
    kept = seq[:1]
    visited_orders = {current.order()}
    for p, new in zip(seq[1:], levels):
        if new.order() < current.order():
            kept.append(p)
            visited_orders.add(new.order())
        current = new
    if current.order() != 1:
        raise ValueError("base does not reduce the stabilizer to the trivial group")
    if not level_orders <= visited_orders:
        raise ValueError("stabilizer chain of the base misses a certificate level")
    if len(kept) < cert.claimed_length:
        raise ValueError(
            f"irredundant base of length {len(kept)} shorter than claimed "
            f"{cert.claimed_length}"
        )
    return kept
