import math
import random

import pytest

from irrbase.bounds import (
    CONSTANTS,
    INDEX_GROWTH_MAX_N,
    MATHIEU_LENGTHS,
    affine_mibs_bounds,
    binary_weight,
    epsilon,
    index_growth_check,
    length_inequality_holds,
    length_sym,
    log2_factorial,
    maroti_check,
    maximality_affine,
    maximality_wreath,
    mibs_upper_bound,
    omega,
    relational_complexity_upper,
    wreath_mibs_bounds,
)
from irrbase.certificate import LimitExceeded, is_prime, prime_factors


def test_omega():
    assert omega(6) == 2
    assert omega(12) == 3
    assert omega(1) == 0
    with pytest.raises(ValueError):
        omega(0)


def test_omega_is_defined_once():
    """bounds.omega is the function that the oracle's search bound calls, not a copy of it."""
    from irrbase import certificate, oracle

    assert omega is certificate.omega is oracle.omega


def trial_division(n):
    """Prime factors with multiplicity, ascending, by trial division alone: the reference."""
    out, f = [], 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    return out + [n] if n > 1 else out


def test_prime_factors_against_trial_division():
    rng = random.Random(2026)
    draws = [rng.randrange(1, 10**8) for _ in range(500)]
    # composites with no factor below 1000, which trial division leaves to Pollard-Brent rho
    primes = [q for q in range(1001, 10_000) if trial_division(q) == [q]]
    draws += [rng.choice(primes) * rng.choice(primes) for _ in range(200)]
    draws += [m * rng.choice(primes) * rng.choice(primes) for m in (2, 12, 997, 998)]
    for n in draws:
        assert prime_factors(n) == trial_division(n), n


@pytest.mark.parametrize("n", [
    100000000000000000762,  # 2q for the safe prime 2q + 1
    (10**6 + 3) ** 2 * 999983 * 17,
    3_317_044_064_679_887_385_961_979,  # PRIME_TEST_BOUND - 2: two factors past 10^9
    1009**7,
])
def test_prime_factors_past_trial_division(n):
    factors = prime_factors(n)
    assert math.prod(factors) == n and factors == sorted(factors)
    assert all(is_prime(q) for q in factors)


def test_binary_weight():
    assert binary_weight(7) == 3
    assert binary_weight(8) == 1
    assert binary_weight(1) == 1


def test_epsilon():
    assert epsilon("S", 7) == 1
    assert epsilon("A", 7) == 0
    assert epsilon("S", 5) == 1
    with pytest.raises(ValueError):
        epsilon("S", 4)
    with pytest.raises(ValueError):
        epsilon("X", 7)


def test_length_sym():
    assert length_sym(7, "S") == 7  # 9 - 3 + 1
    assert length_sym(8, "A") == 9  # 10 - 1 + 0
    assert length_sym(2, "S") == 1
    with pytest.raises(ValueError):
        length_sym(1, "S")


def test_length_inequality_range():
    assert all(
        length_inequality_holds(n, amb)
        for n in list(range(2, 2000)) + [10**5, 10**6]
        for amb in ("S", "A")
    )


def test_upper_bound_values():
    assert abs(mibs_upper_bound(9, False) - 14.218) < 0.01
    assert mibs_upper_bound(25, True) == 14.0
    assert mibs_upper_bound(49, True) == 20.0
    with pytest.raises(ValueError):
        mibs_upper_bound(6, False)


def test_affine_bounds_exact():
    b = affine_mibs_bounds(7, 1, "S")
    assert b.exact and b.lower == 4
    assert affine_mibs_bounds(13, 1, "S").lower == 5  # 1 + Omega(12) + 1
    assert affine_mibs_bounds(7, 1, "A").lower == 3


def test_affine_bounds_window():
    b = affine_mibs_bounds(3, 2, "S")
    assert not b.exact
    assert b.lower == 5
    assert abs(b.upper - (3 * (1 + math.log2(3)) + 1)) < 1e-9
    assert affine_mibs_bounds(7, 2, "S").lower == 7  # 3 + 2*Omega(6) - 1 + 1


def test_affine_bounds_window_consistent():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for d in range(1, 9):
            if p**d < 7 or p**d > 10_000:
                continue
            b = affine_mibs_bounds(p, d, "S")
            assert b.lower <= b.upper + 1e-9, (p, d)


def test_wreath_bounds():
    assert wreath_mibs_bounds(5, 2, "S") == (6, 13.0)
    assert wreath_mibs_bounds(5, 3, "S") == (10, 20.0)  # 22.5 - 1.5 - 1
    assert wreath_mibs_bounds(5, 2, "A") == (5, 13.0)


def test_wreath_bounds_consistent():
    for m in range(5, 101):
        for k in range(2, 7):
            lo, hi = wreath_mibs_bounds(m, k, "S")
            assert lo <= hi, (m, k)


MAXIMALITY_CASES = [
    # affine: (p, d, ambient) -> verdict
    ("affine", (7, 1, "S"), True),
    ("affine", (7, 1, "A"), False),
    ("affine", (11, 1, "S"), True),
    ("affine", (13, 1, "A"), True),
    ("affine", (19, 1, "A"), True),
    ("affine", (23, 1, "A"), False),
    ("affine", (29, 1, "A"), True),
    ("affine", (3, 2, "S"), True),
    ("affine", (3, 2, "A"), True),
    ("affine", (2, 3, "A"), True),
    ("affine", (2, 3, "S"), False),
    # wreath: (m, k, ambient) -> verdict
    ("wreath", (5, 2, "S"), True),
    ("wreath", (5, 2, "A"), True),
    ("wreath", (6, 2, "S"), True),
    ("wreath", (6, 2, "A"), False),
    ("wreath", (8, 2, "A"), True),
    ("wreath", (8, 2, "S"), False),
    ("wreath", (6, 3, "A"), True),
    ("wreath", (6, 3, "S"), False),
]


@pytest.mark.parametrize("family,params,verdict", MAXIMALITY_CASES)
def test_maximality_cases(family, params, verdict):
    fn = maximality_affine if family == "affine" else maximality_wreath
    assert fn(*params) is verdict


def test_maroti_examples():
    r9 = maroti_check(9, 432)
    assert r9.global_bound == 36450.0 and r9.global_ok
    assert r9.small_bound == 9**4 and r9.small_ok
    r25 = maroti_check(25, 28800)
    assert r25.global_bound == 50.0 * 25**5 and r25.global_ok
    r49 = maroti_check(49, 2 * math.factorial(7) ** 2)
    assert r49.global_ok


def test_maroti_log2_verdicts_match_the_floats():
    """Where the bounds are finite floats, the log2 comparison used past them agrees."""
    from irrbase.bounds import _order_bound

    for n in range(7, 6400, 37):
        root, log_n = math.sqrt(n), math.log2(n)
        e = 1 + math.floor(log_n)
        for value, log2_bound in ((50.0 * n**root, math.log2(50) + root * log_n),
                                  (float(n**e), e * log_n)):
            for order_h in (1, int(value / 3), int(value * 0.999), int(value * 1.001) + 1,
                            3 * int(value)):
                overflowed = _order_bound(lambda: math.inf, log2_bound, order_h)
                assert overflowed[1] == _order_bound(lambda: value, log2_bound, order_h)[1]
                assert overflowed[0] == f"about 10^{math.log10(value):.1f}"


def test_log2_factorial():
    for n in (5, 10, 52, 101):
        assert abs(log2_factorial(n) - math.lgamma(n + 1) / math.log(2)) < 1e-6


def test_index_growth_instances():
    cases = [(101, 10100), (121, 121 * 120 * 110), (125, math.factorial(5) ** 3 * 6)]
    for n, order_h in cases:
        r = index_growth_check(n, order_h)
        assert r.mode == "proof"
        assert r.milestone_ok and r.loglog_ok and r.ratio_ok
        # re-derive the milestone with explicit 1e-6 margins
        ln = math.log2(n)
        assert 0.672 * n * ln < r.log_t - 1e-6 < r.log_t < n * ln - 1e-6


def test_index_growth_degree_cap():
    """log2(n!) is summed term by term, so a degree past the cap is refused before any sum."""
    assert index_growth_check(INDEX_GROWTH_MAX_N, 5).mode == "proof"
    with pytest.raises(LimitExceeded, match=r"^n = 1000001 exceeds the index-growth check's "
                                            r"cap 1000000$"):
        index_growth_check(INDEX_GROWTH_MAX_N + 1, 5)


def test_index_growth_range_guard():
    with pytest.raises(ValueError, match="n > 100"):
        index_growth_check(50, 100)
    r = index_growth_check(50, 100, require_proof_range=False)
    assert r.mode == "table" and r.milestone_ok is None


def test_constants_and_mathieu():
    assert CONSTANTS["c5"] == 1.0 and CONSTANTS["c6"] == 4.03
    assert CONSTANTS["c7"] == 0.70 and CONSTANTS["c8"] == 1.53
    assert MATHIEU_LENGTHS == {11: 7, 12: 8, 23: 11, 24: 14}


def test_relational_complexity_upper():
    assert relational_complexity_upper(4) == 5
