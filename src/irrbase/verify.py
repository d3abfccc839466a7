"""The verifier: reads a certificate file and recomputes every level it claims.

Nothing here trusts the program that wrote the certificate, and nothing here
imports a module that writes one (:mod:`irrbase.affine`, :mod:`irrbase.agl_chain`,
:mod:`irrbase.wreath`, :mod:`irrbase.chain`, :mod:`irrbase.oracle`), so a
``verify`` run compiles none of them.  :func:`from_json` reads a certificate as
untrusted input: every malformed field is a :class:`CertificateFormatError`, and
one too large to check is refused before any cycle is parsed.
:func:`verify_certificate` then checks it against H.  ``cmd_verify`` is the
``verify`` subcommand; ``chain`` and ``oracle`` never import this module.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

from .certificate import (_POWER_PARAMS, CertificateFormatError, CertLevel, ChainCertificate,
                          ENUM_LIMIT_DEFAULT, check_family_size, check_oracle_degree,
                          check_subgroup_limit, checked_power, family_order)
from .group import PermutationGroup
from .perm import Permutation, parse_cycles


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _cycle_strings(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise CertificateFormatError(f"{what} must be a list of cycle strings")
    return value


def from_dict(data: dict, limit: int = ENUM_LIMIT_DEFAULT) -> ChainCertificate:
    """The certificate in ``data``; one too large to check is refused after the header's
    checks and before any cycle is parsed: an explicit one over ``ORACLE_MAX_DEGREE``,
    a family one by :func:`check_family_size`."""
    try:
        degree = data["degree"]
        ambient = data["ambient"]
        sub = data["subgroup"]
        family = sub["family"]
        params = sub["params"]
        gen_strs = sub["generators"]
        level_data = data["levels"]
        claimed = data["claimed_length"]
    except (KeyError, TypeError) as e:
        raise CertificateFormatError(f"missing or malformed field: {e}") from None
    if not _is_int(degree) or degree < 1:
        raise CertificateFormatError(f"bad degree {degree!r}")
    if ambient not in ("S", "A"):
        raise CertificateFormatError(f"bad ambient {ambient!r}, expected 'S' or 'A'")
    if family not in ("agl", "wreath", "natural", "explicit"):
        raise CertificateFormatError(f"unknown subgroup family {family!r}")
    if not _is_int(claimed):
        raise CertificateFormatError("claimed_length must be an integer")
    if not isinstance(params, dict) or not all(map(_is_int, params.values())):
        raise CertificateFormatError("params must map names to integers")
    if family == "natural" and params != {"n": degree}:
        raise CertificateFormatError(f"natural params must be exactly n = {degree}")
    if family in _POWER_PARAMS:  # checked before any work that grows with them
        names = _POWER_PARAMS[family]
        if not all(name in params for name in names):
            raise CertificateFormatError(f"{family} params need {' and '.join(names)}")
        base, exp = (params[name] for name in names)
        if checked_power(degree, base, exp) != degree:
            raise CertificateFormatError(
                f"params {names[0]}={base}, {names[1]}={exp} do not give degree {degree}"
            )
    if family == "explicit":  # a certificate too large to check is refused unparsed
        check_oracle_degree(degree, degree)
    else:
        check_family_size(family, params, ambient, limit)
    generators = [parse_cycles(s, degree) for s in _cycle_strings(gen_strs, "generators")]
    if not isinstance(level_data, list):
        raise CertificateFormatError("levels must be a list")
    levels = []
    for i, lv in enumerate(level_data):
        try:
            conj_strs = lv["conjugators"]
            text = lv["order"]
            if not (isinstance(text, str) and text.isascii() and text.isdigit()):
                raise ValueError(f"order {text!r} is not a string of decimal digits")
            order = int(text)
        except (KeyError, TypeError, ValueError) as e:
            raise CertificateFormatError(f"level {i}: {e}") from None
        conjs = _cycle_strings(conj_strs, f"level {i} conjugators")
        levels.append(CertLevel([parse_cycles(s, degree) for s in conjs], order))
    return ChainCertificate(degree, ambient, family, params, generators, levels, claimed)


def from_json(text: str, limit: int = ENUM_LIMIT_DEFAULT) -> ChainCertificate:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as e:  # too long an int; nested too deep
        raise CertificateFormatError(f"invalid JSON: {e}") from None
    return from_dict(data, limit)


class LevelResult:
    def __init__(self, index: int, claimed_order: int, computed_order: Optional[int],
                 ok: bool, message: str = ""):
        self.index = index
        self.claimed_order = claimed_order
        self.computed_order = computed_order
        self.ok = ok
        self.message = message


class VerificationReport:
    def __init__(self, ok: bool, levels: Optional[list] = None):
        self.ok = ok
        self.levels = [] if levels is None else levels

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

    Trusts nothing from the builder: each level is recomputed from H and the
    level's conjugator set, as the stabilizer of the cosets Hx in the level
    above (orbit-stabilizer, no enumeration of H).  The levels come from one
    pass of :meth:`PermutationGroup._conjugate_levels`: nested conjugator
    sets cut the previous level by their new conjugators, a non-nested set
    starts again from H, and a level is computed only once every earlier
    level has been reported.  For ambient "A", H's generators and every
    conjugator must be even: an odd conjugate of H need not be an
    A_n-conjugate.  Each level gets one report line; a ``claimed_length``
    mismatch is marked on level 0's.
    """
    report = VerificationReport(ok=True)

    def fail(idx, claimed, computed, msg):
        report.levels.append(LevelResult(idx, claimed, computed, False, msg))
        report.ok = False

    if h.degree != cert.degree:
        fail(0, 0, None, f"subgroup degree {h.degree} != certificate degree {cert.degree}")
        return report
    check_subgroup_limit(h.order(), limit)
    if not cert.levels:
        fail(0, 0, None, "certificate has no levels")
        return report

    lvl0 = cert.levels[0]
    computed, msg = h.order(), None
    odd = _first_odd(h.generators, cert.ambient)
    if not lvl0.conjugators or not all(x.is_identity() for x in lvl0.conjugators):
        computed, msg = None, "level 0 must carry exactly the identity conjugator"
    elif odd is not None:
        computed, msg = None, f"generator {odd} is odd but the ambient group is A_{cert.degree}"
    elif lvl0.order != h.order():
        msg = "level 0 order does not match |H|"
    msgs = [msg] if msg else []
    if cert.claimed_length != len(cert.levels):
        msgs.append(f"claimed_length {cert.claimed_length} != {len(cert.levels)} levels")
    if msgs:
        fail(0, lvl0.order, computed, "; ".join(msgs))
    else:
        report.levels.append(LevelResult(0, lvl0.order, computed, True))
    if msg:
        return report

    groups = h._conjugate_levels([x._tbl for x in lvl.conjugators] for lvl in cert.levels[1:])
    prev_order = h.order()
    for idx, lvl in enumerate(cert.levels[1:], 1):
        if not any(x.is_identity() for x in lvl.conjugators):
            fail(idx, lvl.order, None, "conjugator set lacks the identity")
            return report
        odd = _first_odd(lvl.conjugators, cert.ambient)
        if odd is not None:
            msg = f"conjugator {odd} is odd but the ambient group is A_{cert.degree}"
            fail(idx, lvl.order, None, msg)
            return report
        order = next(groups).order()

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

    last = report.levels[-1]
    if last.claimed_order != 1 or last.computed_order != 1:
        last.ok = report.ok = False
        last.message = "; ".join(filter(None, (last.message, "terminal level is not trivial")))
    return report


def _first_odd(perms, ambient: str) -> Optional[Permutation]:
    """The first odd permutation of ``perms`` when the ambient group is A, else None."""
    if ambient == "A":
        return next((x for x in perms if not x.is_even()), None)
    return None


def cmd_verify(args) -> int:
    from .cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL

    try:
        with open(args.cert) as fh:
            cert = from_json(fh.read(), limit=args.limit_enum)
    except OSError as e:
        print(f"cannot read certificate: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateFormatError as e:
        print(f"malformed certificate: {e}", file=sys.stderr)
        return EXIT_USAGE
    h = PermutationGroup(cert.generators, cert.degree, args.limit_enum)
    if cert.family != "explicit":  # from_dict checked the params against the degree
        expected = family_order(cert.family, cert.params, cert.degree, cert.ambient)
        if h.order() != expected:
            name = "affine" if cert.family == "agl" else cert.family
            print(f"subgroup order {h.order()} does not match the {name} family order "
                  f"{expected}", file=sys.stderr)
            return EXIT_VERIFY_FAIL
    report = verify_certificate(cert, h, limit=args.limit_enum)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL
