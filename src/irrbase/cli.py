"""Command-line surface: build chains, run the oracle, verify certificates, report bounds.

Exit codes are a stable contract: 0 success/verified, 1 mathematical
verification failure, 2 usage or limit error.  JSON output is byte-stable
for identical inputs.  No environment variable affects results; IRRBASE_VERBOSE
only turns on progress chatter on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .certificate import (
    CertificateFormatError,
    ChainCertificate,
    agl_order,
    checked_power,
    verify_certificate,
)
from .group import (
    LimitExceeded,
    PermutationGroup,
    alternating_group,
    check_coset_orders,
    check_intersect_limit,
    intersect,
    read_generator_file,
    symmetric_group,
)

# affine, wreath, oracle and bounds_cli are imported in the branches that run them:
# each invocation is a fresh process, and start-up cost is paid on every one

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


def _log(msg: str) -> None:
    if os.environ.get("IRRBASE_VERBOSE"):
        print(msg, file=sys.stderr)


class UsageError(Exception):
    pass


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _build_subgroup(args, ambient: str):
    """Returns (G, H, family, params, degree, t) for the oracle subcommand.

    Every refusal that orders decide (usage, intersect's cap on listing H, the
    index t, then t < 2 and |H|) comes before G = S_n or A_n is built.
    """
    family = args.subgroup
    if family == "natural":
        if args.n is None:
            raise UsageError("--subgroup natural requires --n")
        n, params = args.n, {"n": args.n}
        if n < 3:
            raise UsageError("natural action needs n >= 3")
    elif family == "explicit":
        if not args.gens_file:
            raise UsageError("--subgroup explicit requires --gens-file")
        with open(args.gens_file) as fh:
            n, gens = read_generator_file(fh.read())
        # H <= S_n always, and H <= A_n exactly when every generator is even (A_1, A_2 too)
        if ambient == "A" and not all(x.is_even() for x in gens):
            raise UsageError("supplied generators do not lie in the ambient group")
        h, params = PermutationGroup(gens, n), {}
    else:
        names = ("p", "d") if family == "agl" else ("m", "k")
        params = {a: getattr(args, a) for a in names}
        if None in params.values():
            raise UsageError(f"--subgroup {family} requires --{names[0]} and --{names[1]}")
        if family == "agl":
            from .affine import build_agl

            h = build_agl(args.p, args.d).H
        else:
            from .wreath import build_wreath

            h = build_wreath(args.m, args.k).M
        n = h.degree
    h_order = math.factorial(n - 1) if family == "natural" else h.order()  # G's point stabilizer
    g_order = math.factorial(n)
    if ambient == "A":  # |A_n| = max(1, n!/2); |H ∩ A_n| = |H|/2 if H has an odd element
        g_order = max(1, g_order // 2)
        if family in ("agl", "wreath"):  # intersect lists the smaller of H and A_n below
            check_intersect_limit(min(h_order, g_order), args.limit_enum)
        if family == "natural" or not all(x.is_even() for x in h.generators):
            h_order //= 2
    t = g_order // h_order  # H <= G in every family, so |H| divides |G|
    if t > args.limit_t:
        raise LimitExceeded(
            f"coset index {g_order}/{h_order} = {t} exceeds limit --limit-t {args.limit_t}"
        )
    check_coset_orders(t, h_order, args.limit_enum)
    g = symmetric_group(n) if ambient == "S" else alternating_group(n)
    if family == "natural":
        h = g.point_stabilizer(n)
    elif ambient == "A" and family in ("agl", "wreath"):
        h = intersect(h, g, args.limit_enum)
    return g, h, family, params, n, t


def cmd_chain(args) -> int:
    if args.family == "affine":
        if args.p is None or args.d is None:
            raise UsageError("--family affine requires --p and --d")
        if args.p == 2:
            raise UsageError("odd p required")
        from .affine import affine_chain, build_agl

        ctx = build_agl(args.p, args.d)
        if ctx.n < 7:
            raise UsageError(f"p^d = {ctx.n} < 7 is out of range")
        _log(f"building affine chain for p={args.p}, d={args.d}")
        cert = affine_chain(ctx, limit=args.limit_enum)
    else:
        if args.m is None or args.k is None:
            raise UsageError("--family wreath requires --m and --k")
        from .wreath import build_wreath, wreath_chain

        ctx = build_wreath(args.m, args.k)
        _log(f"building wreath chain for m={args.m}, k={args.k}")
        cert = wreath_chain(ctx, limit=args.limit_enum)
    if args.format == "json":
        _write_output(cert.to_json(), args.out)
    else:
        _write_output(_cert_text_table(cert), args.out)
    _log(f"certificate of length {cert.claimed_length} written")
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import OracleLimits, build_coset_action, mibs

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
        _log(f"witness certificate written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.cert) as fh:
            cert = ChainCertificate.from_json(fh.read())
    except OSError as e:
        print(f"cannot read certificate: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateFormatError as e:
        print(f"malformed certificate: {e}", file=sys.stderr)
        return EXIT_USAGE
    h = PermutationGroup(cert.generators, cert.degree)
    if cert.family != "explicit":  # from_dict checked the params against the degree
        if cert.family == "agl":
            name, expected = "affine", agl_order(cert.params["p"], cert.params["d"])
        elif cert.family == "wreath":
            m, k = cert.params["m"], cert.params["k"]
            name, expected = "wreath", math.factorial(m) ** k * math.factorial(k)
        else:
            name, expected = "natural", math.factorial(cert.degree - 1)
        if cert.ambient == "A":
            expected = max(1, expected // 2)  # the point stabilizer in A_2 is trivial
        if h.order() != expected:
            print(
                f"subgroup order {h.order()} does not match the {name} family "
                f"order {expected}",
                file=sys.stderr,
            )
            return EXIT_VERIFY_FAIL
    report = verify_certificate(cert, h, limit=args.limit_enum)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def cmd_bounds(args) -> int:
    n = args.n
    if args.lemma52 and args.order_h is None:
        raise UsageError("--lemma52 requires --order-h")
    if n is None:
        raise UsageError(f"{'--lemma52' if args.lemma52 else 'bounds'} requires --n")
    if not args.lemma52:
        if n < 7:
            raise UsageError(f"these bounds require n >= 7, got {n}")
        if args.family:
            names = ("p", "d") if args.family == "agl" else ("m", "k")
            base, exp = (getattr(args, a) for a in names)
            if None in (base, exp):
                raise UsageError(f"--family {args.family} requires --{names[0]} and --{names[1]}")
            power = checked_power(n, base, exp)
            if power != n:
                shown = f"{base}^{exp}" if power is None else power
                raise UsageError(f"{names[0]}^{names[1]} = {shown} does not match --n {n}")
    from .bounds_cli import report

    text, ok = report(args)
    _write_output(text, args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="irrbase",
        description="irredundant-base chains, exact maximum base sizes, and bound checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", metavar="PATH", help="write output to a file")

    pc = sub.add_parser("chain", help="build a chain certificate, its orders from one pass over H")
    pc.add_argument("--family", required=True, choices=("affine", "wreath"))
    pc.add_argument("--p", type=int)
    pc.add_argument("--d", type=int)
    pc.add_argument("--m", type=int)
    pc.add_argument("--k", type=int)
    add_common(pc)
    pc.set_defaults(func=cmd_chain)

    po = sub.add_parser("oracle", help="exact maximum irredundant base size of an action")
    po.add_argument("--ambient", required=True, choices=("S", "A"))
    po.add_argument("--subgroup", required=True,
                    choices=("natural", "agl", "wreath", "explicit"))
    po.add_argument("--n", type=int)
    po.add_argument("--p", type=int)
    po.add_argument("--d", type=int)
    po.add_argument("--m", type=int)
    po.add_argument("--k", type=int)
    po.add_argument("--gens-file", metavar="PATH")
    po.add_argument("--limit-t", type=int, default=20_000, metavar="N",
                    help="cap on the coset index (default 20000)")
    po.add_argument("--limit-memo", type=int, default=1_000_000, metavar="N",
                    help="cap on memoized subgroups (default 1000000)")
    po.add_argument("--no-prune", action="store_true",
                    help="search every point of a non-regular orbit, not one per orbit "
                         "(regression flag; same results)")
    add_common(po)
    po.set_defaults(func=cmd_oracle)

    pv = sub.add_parser("verify", help="independently verify a certificate file")
    pv.add_argument("cert", metavar="CERT.json")
    pv.set_defaults(func=cmd_verify)
    for p in (pc, po, pv):  # the subcommands that build groups
        p.add_argument("--limit-enum", type=int, default=2_000_000, metavar="N",
                       help="cap on |H|, and for an ambient-A oracle on the group listed "
                            "to intersect H with A_n (default 2000000)")

    pb = sub.add_parser("bounds", help="evaluate closed-form bounds and criteria")
    pb.add_argument("--n", type=int)
    pb.add_argument("--ambient", choices=("S", "A"), default="S")
    pb.add_argument("--family", choices=("agl", "wreath"))
    pb.add_argument("--p", type=int)
    pb.add_argument("--d", type=int)
    pb.add_argument("--m", type=int)
    pb.add_argument("--k", type=int)
    pb.add_argument("--order-h", type=int, metavar="ORDER")
    pb.add_argument("--computed", type=int, metavar="MIBS",
                    help="a computed mibs value to compare against the bounds")
    pb.add_argument("--lemma52", action="store_true",
                    help="index-growth relation checks (requires --n and --order-h)")
    add_common(pb)
    pb.set_defaults(func=cmd_bounds)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except LimitExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"invalid parameters: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:  # a file read or written; exit 1 is reserved for failed verification
        print(f"file error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as e:  # a self-check failed (LimitExceeded is caught above)
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


if __name__ == "__main__":
    sys.exit(main())
