"""Pollard-Brent rho, for the cofactors that :func:`irrbase.certificate.prime_factors` leaves.

A cofactor below ``PRIME_TEST_BOUND`` with no factor under ``_TRIAL_DIVISORS`` is
split here, and a run imports this module only when it factors such a cofactor.
"""

from __future__ import annotations

from math import gcd

from .certificate import is_prime


def _rho_factors(n: int) -> list:
    """The prime factors of 1 < n < PRIME_TEST_BOUND, ascending, none under _TRIAL_DIVISORS."""
    if is_prime(n):
        return [n]
    d = _rho_divisor(n)
    return sorted(_rho_factors(d) + _rho_factors(n // d))


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n, by Pollard's rho with Brent's cycle search.

    The walk x -> x² + c mod n, from x = 2, is tried for c = 1, 2, ... until
    one splits n; gcds are taken over batches of 128 steps, and a batch whose
    product collapses to n is replayed one step at a time.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
