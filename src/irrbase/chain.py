"""The ``chain`` subcommand and the certificate assembly it drives.

:func:`build_chain` assembles a certificate from a family's conjugator sets;
the family modules (:mod:`irrbase.agl_chain`, :mod:`irrbase.wreath`) call it.
Only ``chain`` runs it, so the other subcommands do not compile this module.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from .certificate import (ENUM_LIMIT_DEFAULT, CertLevel, ChainCertificate, check_family_size,
                          check_subgroup_limit)
from .group import PermutationGroup
from .perm import Permutation


def build_chain(h: PermutationGroup, conjugator_sets: list, family: str, params: dict,
                check: Optional[Callable] = None,
                limit: int = ENUM_LIMIT_DEFAULT) -> ChainCertificate:
    """The certificate of the chain H > ⋂_{x in Y_1} H^x > ... for conjugator sets Y_1, Y_2, ...

    Level 0 is H with {identity}; the orders of levels 1, 2, ... come from
    one pass of :meth:`PermutationGroup._conjugate_levels`.  Raises
    RuntimeError unless every level descends strictly and the last is
    trivial; ``check(idx, level)``, the family's own test of level idx, runs
    on each level in order, after its descent check.
    """
    check_subgroup_limit(h.order(), limit)
    levels = [CertLevel([Permutation.identity(h.degree)], h.order())]
    groups = h._conjugate_levels([x._tbl for x in c] for c in conjugator_sets)
    for idx, (conjs, level) in enumerate(zip(conjugator_sets, groups), 1):
        if not level.order() < levels[-1].order:
            raise RuntimeError(f"chain failed to descend at level {idx}")
        if check is not None:
            check(idx, level)
        levels.append(CertLevel(conjs, level.order()))
    if levels[-1].order != 1:
        raise RuntimeError("chain did not terminate at the trivial group")
    return ChainCertificate(h.degree, "S", family, params, list(h.generators), levels, len(levels))


def _cert_text_table(cert: ChainCertificate) -> str:
    lines = [
        f"degree        {cert.degree}",
        f"ambient       {cert.ambient}",
        f"subgroup      {cert.family} {json.dumps(dict(sorted(cert.params.items())))}",
        f"claimed_length {cert.claimed_length}",
        f"{'level':>5}  {'#conjugators':>12}  order",
    ]
    for i, lvl in enumerate(cert.levels):
        lines.append(f"{i:>5}  {len(lvl.conjugators):>12}  {lvl.order}")
    return "\n".join(lines) + "\n"


def cmd_chain(args) -> int:
    from .cli import EXIT_OK, _check_reads, _family_params, _write_output

    family = "agl" if args.family == "affine" else "wreath"
    params = _family_params(args, family, f"--family {args.family}")
    _check_reads(args)
    # build_chain refuses |H| over the cap too, but only after H is built
    check_family_size(family, params, "S", args.limit_enum)
    if family == "agl":
        from .affine import build_agl
        from .agl_chain import affine_chain

        cert = affine_chain(build_agl(**params), limit=args.limit_enum)
    else:
        from .wreath import build_wreath, wreath_chain

        cert = wreath_chain(build_wreath(**params), limit=args.limit_enum)
    _write_output(cert.to_json() if args.format == "json" else _cert_text_table(cert), args.out)
    return EXIT_OK
