"""The report of ``irrbase bounds``: closed-form bounds and criteria as JSON or text.

Only the ``bounds`` branch of :mod:`irrbase.cli` imports this module, so the
other subcommands do not compile it.  That branch checks the arguments
first, and writes the report and maps its verdict to an exit code after.
"""

from __future__ import annotations

import json

from . import bounds as bounds_mod
from .certificate import _POWER_PARAMS, family_order


def report(args) -> tuple:
    """The report's text and whether every check in it holds."""
    if args.lemma52:
        rep = bounds_mod.index_growth_check(
            args.n, args.order_h, require_proof_range=args.n > 100
        )
        result = {
            "n": rep.n,
            "order_h": str(rep.order_h),
            "log2_t": rep.log_t,
            "log2_log2_t": rep.log_log_t,
            "mode": rep.mode,
            "milestone_ok": rep.milestone_ok,
            "loglog_ok": rep.loglog_ok,
            "ratio_ok": rep.ratio_ok,
            "constants": bounds_mod.CONSTANTS,
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
        "binary_weight": bounds_mod.binary_weight(n),
        "epsilon": {"S": 1, "A": 0},
        "length": {"S": bounds_mod.length_sym(n, "S"), "A": bounds_mod.length_sym(n, "A")},
        "upper_bound_generic": bounds_mod.mibs_upper_bound(n, large=False),
        "upper_bound_large": bounds_mod.mibs_upper_bound(n, large=True),
        "constants": bounds_mod.CONSTANTS,
    }
    if n in bounds_mod.MATHIEU_LENGTHS:
        result["mathieu_length"] = bounds_mod.MATHIEU_LENGTHS[n]
    if args.family:
        params = {a: getattr(args, a) for a in _POWER_PARAMS[args.family]}
        fam = result["family"] = {"name": args.family, **params}
        if args.family == "agl":
            ab = bounds_mod.affine_mibs_bounds(args.p, args.d, args.ambient)
            fam.update(exact=ab.exact, lower=ab.lower, upper=ab.upper,
                       maximal=bounds_mod.maximality_affine(args.p, args.d, args.ambient))
        else:
            lo, hi = bounds_mod.wreath_mibs_bounds(args.m, args.k, args.ambient)
            fam.update(lower=lo, upper=hi,
                       maximal=bounds_mod.maximality_wreath(args.m, args.k, args.ambient))
        order_h = family_order(args.family, params, n, args.ambient)
    else:
        order_h = args.order_h
    if order_h is not None:
        mar = bounds_mod.maroti_check(n, order_h)
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
        result["relational_complexity_upper"] = bounds_mod.relational_complexity_upper(v)
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
