"""The ``irrbase bounds`` subcommand: closed-form bounds and criteria as JSON or text.

Only a ``bounds`` run imports this module, so the other subcommands do not
compile it.  ``cmd_bounds`` checks the arguments, and writes the report and
maps its verdict to an exit code; :func:`report` makes the report, and imports
nothing of :mod:`irrbase.cli`.
"""

from __future__ import annotations

import json

# by name: ``from . import bounds`` would hide the module from ``-X importtime``
from .bounds import (CONSTANTS, MATHIEU_LENGTHS, affine_mibs_bounds, binary_weight,
                     index_growth_check, length_sym, maroti_check, maximality_affine,
                     maximality_wreath, mibs_upper_bound, relational_complexity_upper,
                     wreath_mibs_bounds)
from .certificate import _POWER_PARAMS, check_degree, checked_power, family_order, power_text


def cmd_bounds(args) -> int:
    from .cli import (EXIT_OK, EXIT_VERIFY_FAIL, UsageError, _check_reads, _family_params,
                      _write_output)

    n = args.n
    if args.lemma52 and args.order_h is None:
        raise UsageError("--lemma52 requires --order-h")
    if n is None:
        raise UsageError(f"{'--lemma52' if args.lemma52 else 'bounds'} requires --n")
    _check_reads(args)
    if not args.lemma52:
        check_degree(n)
        if args.family:
            names = _POWER_PARAMS[args.family]
            base, exp = _family_params(args, args.family, f"--family {args.family}").values()
            power = checked_power(n, base, exp)
            if power != n:
                raise UsageError(f"{names[0]}^{names[1]} = {power_text(base, exp, power)} "
                                 f"does not match --n {n}")
    text, ok = report(args)
    _write_output(text, args.out)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def report(args) -> tuple:
    """The report's text and whether every check in it holds."""
    if args.lemma52:
        rep = index_growth_check(args.n, args.order_h, require_proof_range=args.n > 100)
        result = {
            "n": rep.n,
            "order_h": str(rep.order_h),
            "log2_t": rep.log_t,
            "log2_log2_t": rep.log_log_t,
            "mode": rep.mode,
            "milestone_ok": rep.milestone_ok,
            "loglog_ok": rep.loglog_ok,
            "ratio_ok": rep.ratio_ok,
            "constants": CONSTANTS,
        }
        if rep.mode == "table":
            result["note"] = (
                "constants checked only on this instance; the range n <= 100 "
                "relies on external enumeration (partial check)"
            )
        if args.format == "json":
            text = json.dumps(result, indent=2)
        else:
            text = "\n".join(f"{k}: {v}" for k, v in result.items())
        ok = all(v for v in (rep.milestone_ok, rep.loglog_ok, rep.ratio_ok) if v is not None)
        return text + "\n", ok

    n = args.n
    result = {
        "n": n,
        "binary_weight": binary_weight(n),
        "epsilon": {"S": 1, "A": 0},
        "length": {"S": length_sym(n, "S"), "A": length_sym(n, "A")},
        "upper_bound_generic": mibs_upper_bound(n, large=False),
        "upper_bound_large": mibs_upper_bound(n, large=True),
        "constants": CONSTANTS,
    }
    if n in MATHIEU_LENGTHS:
        result["mathieu_length"] = MATHIEU_LENGTHS[n]
    if args.family:
        params = {a: getattr(args, a) for a in _POWER_PARAMS[args.family]}
        fam = result["family"] = {"name": args.family, **params}
        if args.family == "agl":
            ab = affine_mibs_bounds(args.p, args.d, args.ambient)
            fam.update(exact=ab.exact, lower=ab.lower, upper=ab.upper,
                       maximal=maximality_affine(args.p, args.d, args.ambient))
        else:
            lo, hi = wreath_mibs_bounds(args.m, args.k, args.ambient)
            fam.update(lower=lo, upper=hi, maximal=maximality_wreath(args.m, args.k, args.ambient))
        order_h = family_order(args.family, params, n, args.ambient)
    else:
        order_h = args.order_h
    if order_h is not None:
        mar = maroti_check(n, order_h)
        result["order_h"] = str(order_h)
        keys = ("global_bound", "global_ok", "small_bound", "small_ok")
        result["maroti"] = {key: getattr(mar, key) for key in keys}
    comparisons = []
    overall_ok = True
    if args.computed is not None:
        v = args.computed
        if v < 1:  # a base of a nontrivial faithful action has a point
            raise ValueError("computed mibs must be positive")
        result["computed_mibs"] = v
        result["relational_complexity_upper"] = relational_complexity_upper(v)
        lg = result["length"][args.ambient]

        def compare(formula, rhs, ok):
            comparisons.append({"formula": formula, "lhs": v, "rhs": rhs, "ok": ok})

        compare("mibs <= length(G)", lg, v <= lg)
        fam = result.get("family", {})
        name, lo, hi = fam.get("name"), fam.get("lower"), fam.get("upper")
        if name == "agl" and fam["exact"]:
            compare("mibs == exact", lo, v == lo)
        elif name == "agl":
            compare("lower <= mibs < upper", [lo, hi], lo <= v < hi)
        elif name == "wreath":
            compare("lower <= mibs <= upper", [lo, hi], lo <= v <= hi)
        ub = result["upper_bound_large" if name == "wreath" else "upper_bound_generic"]
        compare("mibs < general upper bound", ub, v < ub)
        overall_ok = all(c["ok"] for c in comparisons)
        result["comparisons"] = comparisons
    if args.format == "json":
        return json.dumps(result, indent=2) + "\n", overall_ok
    return "\n".join(_text_lines(result)) + "\n", overall_ok


def _text_lines(obj, prefix=""):
    """A ``key value`` line per leaf of the report, nested keys joined by dots.

    A module function, not a recursive closure, which would be a reference cycle."""
    for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
        if isinstance(v, (dict, list)):
            yield from _text_lines(v, f"{prefix}{k}.")
        else:
            yield f"{prefix}{k:<28} {v}"
