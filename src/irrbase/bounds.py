"""Closed-form bounds, length formulas, and maximality criteria, as pure evaluators.

All logarithms are base 2.  Real comparisons carry a 1e-9 tolerance; log
factorials are summed with compensated (Kahan) summation, whose error is far
below the slack of any inequality checked here.  The bounds are floats: a
degree n too large for one is refused, and an order bound past the largest
float is printed as ``about 10^x`` and compared in log2.
"""

from __future__ import annotations

import math
from typing import Optional

from .certificate import LimitExceeded, _about_text, check_degree, check_family, omega

TOL = 1e-9

#: known maximum subgroup-chain lengths of the four 4-transitive Mathieu groups,
#: surfaced in reports but never recomputed here
MATHIEU_LENGTHS = {11: 7, 12: 8, 23: 11, 24: 14}

#: constants for the index-size relations: c5..c8 hold for degrees 7..100 by
#: external enumeration and for n > 100 by the growth argument; c1..c4 are the
#: derived constants of the degree-form bounds
CONSTANTS = {
    "c1": 3.5,
    "c2": 6.1,
    "c3": 1.0,
    "c4": 0.097,
    "c5": 1.0,
    "c6": 4.03,
    "c7": 0.70,
    "c8": 1.53,
}


def binary_weight(n: int) -> int:
    """Number of 1s in the binary representation of n."""
    if n < 1:
        raise ValueError(f"binary_weight requires n >= 1, got {n}")
    return n.bit_count()


def epsilon(ambient: str, n: int) -> int:
    """Chain length of G modulo its socle: 1 for S_n, 0 for A_n (n >= 5)."""
    if n < 5:
        raise ValueError(f"epsilon is defined here for n >= 5, got {n}")
    return _eps(ambient)


def _eps(ambient: str) -> int:
    if ambient == "S":
        return 1
    if ambient == "A":
        return 0
    raise ValueError(f"ambient must be 'S' or 'A', got {ambient!r}")


def length_sym(n: int, ambient: str = "S") -> int:
    """Maximum length of a strictly descending subgroup chain of S_n or A_n.

    floor((3n - 3) / 2) - binary_weight(n) + (1 for S, 0 for A), valid for
    n >= 2.
    """
    if n < 2:
        raise ValueError(f"length_sym requires n >= 2, got {n}")
    return (3 * n - 3) // 2 - binary_weight(n) + _eps(ambient)


def mibs_upper_bound(n: int, large: bool) -> float:
    """General upper bound for primitive point stabilizers of degree-n ambients.

    (log n)^2 + log n + 1 in the generic case; 3*sqrt(n) - 1 when the
    stabilizer is large (wreath in product action, or set action of S_m).
    """
    check_degree(n)
    if large:
        return 3.0 * math.sqrt(_float_degree(n)) - 1.0
    ln = math.log2(n)
    return ln * ln + ln + 1.0


class AffineBounds:
    """mibs window for H = AGL(d, p) ∩ G: exact when d = 1, else [lower, upper)."""

    def __init__(self, exact: bool, lower: int, upper: float):
        self.exact = exact
        self.lower = lower
        self.upper = upper  # strict upper bound; equals lower for the exact case


def affine_mibs_bounds(p: int, d: int, ambient: str) -> AffineBounds:
    check_family("agl", {"p": p, "d": d})
    eps = _eps(ambient)
    if d == 1:
        exact = 1 + omega(p - 1) + eps
        return AffineBounds(exact=True, lower=exact, upper=float(exact))
    if p in (3, 5):
        lower = d * (d + 1) // 2 + d - 1 + eps
    else:
        lower = d * (d + 1) // 2 + d * omega(p - 1) - 1 + eps
    upper = d * (d + 1) / 2 * (1 + math.log2(p)) + eps
    return AffineBounds(exact=False, lower=lower, upper=upper)


def wreath_mibs_bounds(m: int, k: int, ambient: str) -> tuple:
    """(lower, upper) for H = (S_m wr S_k) ∩ G in product action on m^k points."""
    check_family("wreath", {"m": m, "k": k})
    lower = 1 + (m - 1) * (k - 1) + _eps(ambient)
    upper = 1.5 * m * k - 0.5 * k - 1
    return lower, upper


def maximality_affine(p: int, d: int, ambient: str) -> bool:
    """Whether AGL(d, p) ∩ G is maximal in G (for p^d >= 7, p = 2 too), by the known case list."""
    check_family("agl", {"p": p, "d": d}, odd=False)
    _eps(ambient)  # validates the ambient tag
    if d >= 2 and p >= 3:
        return True
    if ambient == "S" and d == 1 and p >= 7:
        return True
    if ambient == "A" and d >= 3 and p == 2:
        return True
    if ambient == "A" and d == 1 and (p in (13, 19) or p >= 29):
        return True
    return False


def maximality_wreath(m: int, k: int, ambient: str) -> bool:
    """Whether (S_m wr S_k) ∩ G in product action is maximal in G, by the known case list."""
    check_family("wreath", {"m": m, "k": k})
    _eps(ambient)
    if m % 2 == 1:
        return True
    if ambient == "S" and m % 4 == 2 and k == 2:
        return True
    if ambient == "A" and m % 4 == 0 and k == 2:
        return True
    if ambient == "A" and m % 2 == 0 and k >= 3:
        return True
    return False


class MarotiReport:
    """Order-bound verdicts for a primitive subgroup of S_n."""

    def __init__(self, n: int, order_h: int, global_bound, global_ok: bool, small_bound,
                 small_ok: bool):
        self.n = n
        self.order_h = order_h
        self.global_bound = global_bound  # 50 * n^sqrt(n), a float or its about-10^x text
        self.global_ok = global_ok
        self.small_bound = small_bound  # n^(1 + floor(log n)), likewise
        self.small_ok = small_ok  # True when the generic small-order case applies


def _float_degree(n: int) -> float:
    """n as a float; a ValueError where it has none, from about 2^1024 on."""
    try:
        return float(n)
    except OverflowError:
        raise ValueError(f"n = {_about_text(math.log10(n))} is too large for the float "
                         f"bounds") from None


def _order_bound(bound, log2_bound: float, order_h: int) -> tuple:
    """(the bound, whether order_h is below it) for the float ``bound()`` = 2^log2_bound.

    A bound past the largest float is its ``about 10^x`` text instead, and
    order_h is compared with it in log2.  The float error of the logs is a
    few parts in 10^16; a gap within a relative TOL is refused, so a verdict
    given is exact.
    """
    try:
        value = bound()
    except OverflowError:
        value = math.inf
    if math.isfinite(value):
        return value, order_h < value - TOL
    text = _about_text(log2_bound * math.log10(2))
    gap = log2_bound - math.log2(order_h)
    if abs(gap) <= TOL * log2_bound:
        raise ValueError(f"|H| is too close to the bound {text} to compare in floating point")
    return text, gap > 0


def maroti_check(n: int, order_h: int) -> MarotiReport:
    """Check |H| against the primitive-order bounds 50 n^sqrt(n) and n^(1 + floor(log n))."""
    if n < 5:
        raise ValueError(f"maroti_check requires n >= 5, got {n}")
    if order_h < 1:
        raise ValueError("order_h must be positive")
    root, log_n = math.sqrt(_float_degree(n)), math.log2(n)
    e = 1 + math.floor(log_n)
    g_bound, g_ok = _order_bound(lambda: 50.0 * n ** root, math.log2(50) + root * log_n, order_h)
    s_bound, s_ok = _order_bound(lambda: float(n ** e), e * log_n, order_h)
    return MarotiReport(
        n=n,
        order_h=order_h,
        global_bound=g_bound,
        global_ok=g_ok,
        small_bound=s_bound,
        small_ok=s_ok,
    )


def log2_factorial(n: int) -> float:
    """log2(n!) by compensated summation."""
    total = 0.0
    comp = 0.0
    for i in range(2, n + 1):
        y = math.log2(i) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


#: the largest degree index_growth_check takes: log2(n!) is a sum of n terms
#: (0.16 s at the cap), and a closed form would change the printed floats
INDEX_GROWTH_MAX_N = 10**6


class IndexGrowthReport:
    """Relations between the degree n and the index t = |S_n : H|, all logs base 2."""

    def __init__(self, n: int, order_h: int, log_t: float, log_log_t: float, mode: str,
                 milestone_ok: Optional[bool], loglog_ok: bool, ratio_ok: bool):
        self.n = n
        self.order_h = order_h
        self.log_t = log_t
        self.log_log_t = log_log_t
        self.mode = mode  # "proof" for n > 100, "table" for the externally checked range
        self.milestone_ok = milestone_ok  # 0.672 n log n < log t < n log n (proof range only)
        self.loglog_ok = loglog_ok  # c7 log log t < log n < c8 log log t
        self.ratio_ok = ratio_ok  # c5 log t / log log t < n < c6 log t / log log t


def index_growth_check(n: int, order_h: int, require_proof_range: bool = True) -> IndexGrowthReport:
    """Verdicts for the index-size relations of a primitive subgroup of S_n.

    The 0.672 n log n milestone is part of the n > 100 growth argument and is
    refused below that range unless ``require_proof_range`` is False, in which
    case the constant checks are still evaluated and the report is flagged as
    relying on the externally verified table range (a partial check only).
    """
    check_degree(n)
    if n > INDEX_GROWTH_MAX_N:
        raise LimitExceeded(f"n = {n} exceeds the index-growth check's cap {INDEX_GROWTH_MAX_N}")
    if order_h < 1:
        raise ValueError("order_h must be positive")
    proof_range = n > 100
    if not proof_range and require_proof_range:
        raise ValueError(
            f"proof-range constants require n > 100, got {n} "
            "(pass require_proof_range=False for the table-range check)"
        )
    log_t = log2_factorial(n) - math.log2(order_h)
    if log_t <= 1.0:
        raise ValueError("index too small for the growth relations")
    llt = math.log2(log_t)
    ln = math.log2(n)
    milestone = None
    if proof_range:
        milestone = 0.672 * n * ln < log_t - TOL and log_t < n * ln - TOL
    loglog_ok = (
        CONSTANTS["c7"] * llt < ln - TOL and ln < CONSTANTS["c8"] * llt - TOL
    )
    ratio = log_t / llt
    ratio_ok = (
        CONSTANTS["c5"] * ratio < n - TOL and n < CONSTANTS["c6"] * ratio - TOL
    )
    return IndexGrowthReport(
        n=n,
        order_h=order_h,
        log_t=log_t,
        log_log_t=llt,
        mode="proof" if proof_range else "table",
        milestone_ok=milestone,
        loglog_ok=loglog_ok,
        ratio_ok=ratio_ok,
    )


def relational_complexity_upper(mibs_value: int) -> int:
    """Upper bound for the relational complexity of the action: mibs + 1."""
    return mibs_value + 1


def length_inequality_holds(n: int, ambient: str = "S") -> bool:
    """length_sym(n) <= 1.5 n - 3 + eps, the linear bound on chain length."""
    return length_sym(n, ambient) <= 1.5 * n - 3 + _eps(ambient) + TOL
