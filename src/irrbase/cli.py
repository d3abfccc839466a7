"""Command-line surface: build chains, run the oracle, verify certificates, report bounds.

Exit codes are a stable contract: 0 success/verified, 1 mathematical
verification failure, 2 usage or limit error.  JSON output is byte-stable
for identical inputs.  No environment variable affects results.

Every subcommand's options are declared once, in ``_COMMANDS``.  A plain
invocation (exact ``--name value`` pairs, flags and verify's positional) is
parsed from that table by ``_fast_args``; everything else, help, abbreviations
and every malformed argv, goes to argparse.  Only ``build_parser`` imports
argparse, so a plain run's start-up loads none of argparse, gettext and locale.

A process runs the CLI through ``run``, which ``python -m irrbase`` and the
``irrbase`` script both call; ``main`` is the same CLI for callers in a process
that goes on after it.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace

from .certificate import (_POWER_PARAMS, ORACLE_MAX_DEGREE, CertificateFormatError,
                          ChainCertificate, check_degree, check_family, check_family_size,
                          check_oracle_degree, checked_power, family_order, power_text,
                          verify_certificate)
from .group import (COSET_LIMIT_DEFAULT, ENUM_LIMIT_DEFAULT, MEMO_LIMIT_DEFAULT, LimitExceeded,
                    PermutationGroup, alternating_group, check_coset_orders,
                    check_intersect_limit, intersect, read_generator_cycles, symmetric_group)
from .perm import Permutation, _cycles_even, _cycles_tbl

# affine, wreath, oracle and bounds_cli are imported in the branches that run them:
# each invocation is a fresh process, and start-up cost is paid on every one

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2


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


def _family_params(args, family: str, flag: str) -> dict:
    """The family's parameters, read from the flags of the same names, which ``flag`` requires."""
    names = _POWER_PARAMS.get(family, ("n",))
    params = {a: getattr(args, a) for a in names}
    if None in params.values():
        raise UsageError(f"{flag} requires " + " and ".join(f"--{a}" for a in names))
    return params


def _build_subgroup(args, ambient: str):
    """Returns (G, H, family, params, degree, t) for the oracle subcommand.

    Every refusal that orders decide comes before H (agl, wreath) or G = S_n
    or A_n is built, in this order: usage and the family's rules
    (:func:`check_family`); a degree over ``ORACLE_MAX_DEGREE``; under A,
    intersect's cap on listing an agl or wreath H; the index t; then t < 2 and
    |H|.  The orders come from :func:`family_order`; only an explicit H's
    parity is read, for H <= A_n, and its chain is built under the |H| cap.
    """
    family = args.subgroup
    if family == "explicit":
        if not args.gens_file:
            raise UsageError("--subgroup explicit requires --gens-file")
        with open(args.gens_file) as fh:  # cycles, not tables: the degree cap comes first
            n, cycles = read_generator_cycles(fh.read())
        # H <= S_n always, and H <= A_n exactly when every generator is even (A_1, A_2 too)
        if ambient == "A" and not all(map(_cycles_even, cycles)):
            raise UsageError("supplied generators do not lie in the ambient group")
        params, shown = {}, n
    else:
        params = _family_params(args, family, f"--subgroup {family}")
        if family == "natural":
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
        h = intersect(h, g, args.limit_enum)
    return g, h, family, params, n, t


def cmd_chain(args) -> int:
    family = "agl" if args.family == "affine" else "wreath"
    params = _family_params(args, family, f"--family {args.family}")
    # build_chain refuses |H| over the cap too, but only after H is built
    check_family_size(family, params, "S", args.limit_enum)
    if family == "agl":
        from .affine import affine_chain, build_agl

        cert = affine_chain(build_agl(**params), limit=args.limit_enum)
    else:
        from .wreath import build_wreath, wreath_chain

        cert = wreath_chain(build_wreath(**params), limit=args.limit_enum)
    _write_output(cert.to_json() if args.format == "json" else _cert_text_table(cert), args.out)
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
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        with open(args.cert) as fh:
            cert = ChainCertificate.from_json(fh.read(), limit=args.limit_enum)
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


def _check_bounds_mode(args) -> None:
    """Refuses an option that the report's mode would not read: ``--lemma52`` reads no
    family option and no ``--computed``, ``--family`` reads its own parameters and not
    ``--order-h``, and without either no family parameter is read.  ``--ambient`` has a
    default, so a given one cannot be told from it and is not checked."""
    names = [a for family_names in _POWER_PARAMS.values() for a in family_names]
    if args.lemma52:
        unread, text = ["family", *names, "computed"], "--lemma52 does not read --{}"
    elif args.family:
        unread = ["order_h", *(a for a in names if a not in _POWER_PARAMS[args.family])]
        text = f"--family {args.family} does not read --{{}}"
    else:
        unread, text = names, "--{} requires --family"
    for a in unread:
        if getattr(args, a) is not None:
            raise UsageError(text.format(a.replace("_", "-")))


def cmd_bounds(args) -> int:
    n = args.n
    if args.lemma52 and args.order_h is None:
        raise UsageError("--lemma52 requires --order-h")
    if n is None:
        raise UsageError(f"{'--lemma52' if args.lemma52 else 'bounds'} requires --n")
    _check_bounds_mode(args)
    if not args.lemma52:
        check_degree(n)
        if args.family:
            names = _POWER_PARAMS[args.family]
            base, exp = _family_params(args, args.family, f"--family {args.family}").values()
            power = checked_power(n, base, exp)
            if power != n:
                raise UsageError(f"{names[0]}^{names[1]} = {power_text(base, exp, power)} "
                                 f"does not match --n {n}")
    from .bounds_cli import report

    text, ok = report(args)
    _write_output(text, args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


_INT = {"type": int}
# --p --d of AGL(d, p), then --m --k of S_m wr S_k
_FAMILY_PARAMS = tuple((f"--{a}", _INT) for names in _POWER_PARAMS.values() for a in names)
_OUTPUT = (("--format", {"choices": ("json", "text"), "default": "json"}),
           ("--out", {"metavar": "PATH", "help": "write output to a file"}))
_LIMIT_ENUM = ("--limit-enum", {"type": int, "default": ENUM_LIMIT_DEFAULT, "metavar": "N",
                                "help": "cap on |H|, and for an ambient-A oracle on the group "
                                        "listed to intersect H with A_n (default %(default)s)"})
# each subcommand's help line, function and options in --help order, every option as
# add_argument takes it; build_parser and _fast_args both read this table
_COMMANDS = {
    "chain": ("build a chain certificate, its orders from one pass over H", cmd_chain, (
        ("--family", {"required": True, "choices": ("affine", "wreath")}),
        *_FAMILY_PARAMS, *_OUTPUT, _LIMIT_ENUM)),
    "oracle": ("exact maximum irredundant base size of an action", cmd_oracle, (
        ("--ambient", {"required": True, "choices": ("S", "A")}),
        ("--subgroup", {"required": True, "choices": ("natural", "agl", "wreath", "explicit")}),
        ("--n", _INT),
        *_FAMILY_PARAMS,
        ("--gens-file", {"metavar": "PATH"}),
        ("--limit-t", {"type": int, "default": COSET_LIMIT_DEFAULT, "metavar": "N",
                       "help": "cap on the coset index (default %(default)s)"}),
        ("--limit-memo", {"type": int, "default": MEMO_LIMIT_DEFAULT, "metavar": "N",
                          "help": "cap on memoized subgroups (default %(default)s)"}),
        ("--no-prune", {"action": "store_true",
                        "help": "search every point of a non-regular orbit, not one per orbit "
                                "(regression flag; same results)"}),
        *_OUTPUT, _LIMIT_ENUM)),
    "verify": ("independently verify a certificate file", cmd_verify, (
        ("cert", {"metavar": "CERT.json"}), _LIMIT_ENUM)),
    "bounds": ("evaluate closed-form bounds and criteria", cmd_bounds, (
        ("--n", _INT),
        ("--ambient", {"choices": ("S", "A"), "default": "S",
                       "help": "the ambient group, read only by --family and --computed; as it "
                               "has a default, it is never refused as unread (default "
                               "%(default)s)"}),
        ("--family", {"choices": ("agl", "wreath")}),
        *_FAMILY_PARAMS,
        ("--order-h", {"type": int, "metavar": "ORDER"}),
        ("--computed", {"type": int, "metavar": "MIBS",
                        "help": "a computed mibs value to compare against the bounds"}),
        ("--lemma52", {"action": "store_true",
                       "help": "index-growth relation checks (requires --n and --order-h)"}),
        *_OUTPUT)),
}


def build_parser():
    """The argparse parser of ``_COMMANDS``, for help texts, errors and every argv that
    :func:`_fast_args` leaves to it."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="irrbase",
        description="irredundant-base chains, exact maximum base sizes, and bound checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_line, func, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name, spec in options:
            p.add_argument(name, **spec)
        p.set_defaults(func=func)
    return ap


def _fast_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, read off ``_COMMANDS``,
    or None where argparse must parse ``argv``.

    Read here: a subcommand, then its options as exact ``--name value`` pairs and flags,
    each at most once, with verify's one positional anywhere among them.  Every other
    argv returns None: help, ``--name=value``, abbreviations, any value or positional
    starting with ``-`` (``--`` and ``-1`` too), a bad int or choice, a repeated or missing
    required option, and a stray positional; argparse then parses it or prints its error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    specs = dict(options)
    given, positionals = {}, []
    rest = iter(argv[1:])
    for arg in rest:
        if not arg.startswith("-"):
            positionals.append(arg)
            continue
        spec = specs.get(arg)
        if spec is None or arg in given:
            return None
        if spec.get("action") == "store_true":
            given[arg] = True
            continue
        value = next(rest, "-")
        if value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:  # int's own text, and past its digit limit
                return None
        if value not in spec.get("choices", (value,)):
            return None
        given[arg] = value
    wanted = [name for name in specs if not name.startswith("-")]
    if len(positionals) != len(wanted):
        return None
    ns = dict(zip(wanted, positionals), command=argv[0], func=func)
    for name, spec in options:
        if name.startswith("-"):
            if name in given:
                value = given[name]
            elif spec.get("required"):
                return None
            else:
                value = spec.get("default", False if "action" in spec else None)
            ns[name[2:].replace("-", "_")] = value
    return SimpleNamespace(**ns)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv) or build_parser().parse_args(argv)
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


def run() -> int:
    """The process entry: :func:`main` on ``sys.argv``, then ``gc.freeze()``, however it ends.

    The interpreter's shutdown collections walk every object still alive only to free
    memory the OS takes back anyway; frozen objects are out of their reach.  Exit codes,
    stream flushes and atexit handlers are kept.  Safe because no CLI path leaves a file
    in a reference cycle (every write is a ``with``; ``tests/test_process_entry.py``).
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
