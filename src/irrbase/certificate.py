"""Chain certificates: serialized strictly descending chains of subgroups, and family rules.

A certificate presents each subgroup in the chain as the intersection of
conjugates of a distinguished subgroup H of the ambient symmetric or
alternating group, with the conjugating permutations as explicit witnesses.
Level 0 is H itself (witness set {identity}); claimed orders must strictly
decrease and end at 1, and ``claimed_length`` is the number of levels.  This
module holds a certificate's fields, its JSON writer, the agl, wreath and
natural family rules that every subcommand checks, and every limit and
refusal text; it imports no irrbase module on load, so ``bounds`` loads no
group code.  The certificate rules are written once each, beside the one
subcommand that runs them: :func:`irrbase.chain.build_chain` assembles a
certificate from a family's conjugator sets, and :mod:`irrbase.verify` reads
one (:meth:`ChainCertificate.from_json` is its short delegate) and checks it.

The verifier recomputes every certificate level as an intersection of
conjugates of H from H and the certificate's conjugator witnesses alone: each
level is the stabilizer of a coset of H in the level above, found by
orbit-stabilizer on the cosets without enumerating H.  The chain builders
read their orders, through :func:`irrbase.chain.build_chain`, off the same
level pass, :meth:`PermutationGroup._conjugate_levels`; enumeration
(:mod:`irrbase.elements`) is the tests' reference for it.

JSON schema (all points and cycle strings 1-based, orders decimal strings):

    {
      "degree": int,
      "ambient": "S" | "A",
      "subgroup": {"family": "agl"|"wreath"|"natural"|"explicit",
                   "params": {...},
                   "generators": [cycle-string, ...]},
      "levels": [{"conjugators": [cycle-string, ...], "order": "..."}, ...],
      "claimed_length": int
    }
"""

from __future__ import annotations

import json
import sys
from math import factorial, log10, prod
from typing import Optional

#: default cap on enumeration-based operations (elements of the smaller group)
ENUM_LIMIT_DEFAULT = 2_000_000
#: the oracle's default caps on the coset index t and on the subgroups its search memoizes
COSET_LIMIT_DEFAULT = 20_000
MEMO_LIMIT_DEFAULT = 1_000_000


class LimitExceeded(RuntimeError):
    """An enumeration or search limit was exceeded; the result was refused."""


class CertificateFormatError(ValueError):
    """Raised when certificate JSON is malformed or violates the schema."""


def _order_text(order: int) -> str:
    """An order in full within CPython's default int-to-str limit, 4300 digits, else as 10^x."""
    return str(order) if order < 10**4300 else _about_text(log10(order))


def _about_text(log10: float) -> str:
    """A number too large to print or to hold in a float, from its log10."""
    return f"about 10^{log10:.1f}"


def check_subgroup_limit(order: int, limit: int) -> None:
    """Refuse a subgroup H of the given order above the --limit-enum cap on |H|."""
    if order > limit:
        raise LimitExceeded(f"subgroup order {_order_text(order)} exceeds enumeration limit "
                            f"{limit}")


def check_coset_orders(t: int, h_order: int, limit: int) -> None:
    """Refuse, from orders alone, an index t < 2 or past any list's length, or an H over the cap."""
    if t < 2:
        raise ValueError("subgroup equals the whole group; the coset action is trivial")
    if t > sys.maxsize:
        raise LimitExceeded(f"coset index {_order_text(t)} exceeds {sys.maxsize}, the most points "
                            "a table can index")
    check_subgroup_limit(h_order, limit)


def check_intersect_limit(smaller: int, limit: int) -> None:
    """Refuse an intersection whose smaller group, which :func:`intersect` lists, is too large."""
    if smaller > limit:
        raise LimitExceeded(f"intersection too large to enumerate: smaller group has order "
                            f"{_order_text(smaller)}, limit {limit}")


#: params whose power base**exp must equal the degree, per family
_POWER_PARAMS = {"agl": ("p", "d"), "wreath": ("m", "k")}


def checked_power(degree: int, base: int, exp: int) -> Optional[int]:
    """base**exp, or None where it cannot be the degree; no work grows with exp."""
    return base**exp if 2 <= base <= degree and 1 <= exp <= degree.bit_length() else None


def power_text(base: int, exp: int, power: Optional[int]) -> str:
    """base**exp in a message: ``power``, its :func:`checked_power`, where that formed it."""
    if power is not None:
        return str(power)
    return str(base) if exp == 1 else f"{base}^{exp}"


#: Miller-Rabin over the primes 2..41 decides primality exactly below this bound
#: (Sorenson and Webster, Math. Comp. 2017)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; refused from PRIME_TEST_BOUND on."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"{_order_text(n)} is too large to test for primality: the test is "
                         f"exact only below {PRIME_TEST_BOUND}")
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # below 43^2 with no prime factor up to 41: a prime, or n < 2
        return n > 1
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        squares = [pow(a, d << i, n) for i in range(s)]  # a^(d 2^i) mod n, i < s
        if squares[0] != 1 and n - 1 not in squares:
            return False  # a witnesses that n is composite
    return True


_TRIAL_DIVISORS = 1000  # below this every factor is found by trial division


def prime_factors(n: int) -> list:
    """Prime factors with multiplicity, ascending.

    Trial division by 2, 3, ... stops once the cofactor left is 1 or prime;
    below PRIME_TEST_BOUND, where :func:`is_prime` is exact, a cofactor with no
    factor under _TRIAL_DIVISORS is split by Pollard-Brent rho instead, so the
    result stays exact and no number of divisions grows with the factors.
    """
    out = []
    f = 2
    while f * f <= n:
        if n % f:
            f += 1
            if f == _TRIAL_DIVISORS and n < PRIME_TEST_BOUND:
                from .rho import _rho_factors

                return out + _rho_factors(n)
        else:
            out.append(f)
            n //= f
            if n < PRIME_TEST_BOUND and is_prime(n):
                break
    if n > 1:
        out.append(n)
    return out


def omega(n: int) -> int:
    """Number of prime factors of n, counted with multiplicity."""
    if n < 1:
        raise ValueError(f"omega requires n >= 1, got {n}")
    return len(prime_factors(n))


def check_degree(n: int) -> None:
    """Refuse a degree below 7, where the program has no agl instance and gives no bound."""
    if n < 7:
        raise ValueError(f"degree {n} < 7 is out of range")


def check_family_params(family: str, params: dict, odd: bool = True) -> None:
    """Raise ValueError at the first AGL(d, p) (p = 2 only if not ``odd``) or S_m wr S_k
    parameter outside the family."""
    if family == "agl":
        p, d = params["p"], params["d"]
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2 and odd:
            raise ValueError("odd p required")
        if d < 1:
            raise ValueError(f"d must be at least 1, got {d}")
    elif family == "wreath":
        if params["m"] < 5:
            raise ValueError(f"m must be at least 5, got {params['m']}")
        if params["k"] < 2:
            raise ValueError(f"k must be at least 2, got {params['k']}")


def check_family(family: str, params: dict, odd: bool = True) -> None:
    """:func:`check_family_params`, then :func:`check_degree` of an agl degree p^d, formed
    only for d <= 2, where it can be below 7; S_m wr S_k has m^k >= 25 points."""
    check_family_params(family, params, odd)
    if family == "agl" and params["d"] <= 2:
        check_degree(params["p"] ** params["d"])


def family_order(family: str, params: dict, degree: int, ambient: str) -> int:
    """|H ∩ G| for H of ``family`` (agl, wreath, natural) on ``degree`` = p^d, m^k or n points.

    G is S_n or A_n.  The params are checked first (a caller that must refuse
    them before it forms the degree calls :func:`check_family_params` first).
    H ∩ A_n is H where H lies in A_n, else of index 2 in H: AGL(d, p), p odd,
    has the odd diag(μ, 1, ..., 1), p^(d-1) cycles of even length p - 1;
    S_{n-1} has a transposition when n >= 3; S_m wr S_k lies in A_{m^k}
    exactly when m is even and either k >= 3 or 4 divides m, as one
    coordinate's transposition swaps m^(k-1) pairs of points, and a swap of
    two coordinates m^(k-1)(m-1)/2.
    """
    check_family_params(family, params)
    if family == "agl":  # |AGL(d, p)| = p^d ⋅ ∏_{i<d} (p^d - p^i)
        order = degree * prod(degree - params["p"] ** i for i in range(params["d"]))
        odd = True
    elif family == "wreath":
        m, k = params["m"], params["k"]
        order = factorial(m) ** k * factorial(k)
        odd = not (m % 2 == 0 and (k >= 3 or m % 4 == 0))
    else:  # natural: the point stabilizer S_{n-1}
        order = factorial(degree - 1)
        odd = degree >= 3
    return order // 2 if ambient == "A" and odd else order


#: a lower bound 2^b on |H| with b past this refuses H without forming |H|, which
#: takes seconds from about there on: |AGL(1448, 3)| has 3.3 million bits, and
#: (n-1)! takes 2.6 s at n = 500,000
_FLOOR_BITS = 1 << 21


def _factorial_floor(j: int) -> int:
    """b with 2^b <= j!: j! >= (j/e)^j >= 2^(j (bits(j) - 2.5)), as log2 e < 1.5."""
    return j * (j.bit_length() - 1) - (3 * j + 1) // 2


def check_family_floor(family: str, params: dict, limit: int) -> None:
    """Refuse an agl, wreath or natural H over ``limit`` from a lower bound 2^b <= |H|.

    |AGL(d, p)| >= p^(d^2) >= 2^(d^2 (bits(p) - 1)), as each factor p^d - p^i
    of :func:`family_order`'s is at least p^(d-1); |S_m wr S_k| = (m!)^k k! and
    |S_(n-1)| = (n-1)! are bounded through :func:`_factorial_floor`.  Where b
    is at most ``_FLOOR_BITS``, nothing is refused here: |H| is formed, and a
    refusal states it exactly.
    """
    if family == "agl":
        bits = params["d"] ** 2 * (params["p"].bit_length() - 1)
    elif family == "wreath":
        bits = params["k"] * _factorial_floor(params["m"]) + _factorial_floor(params["k"])
    else:
        bits = _factorial_floor(params["n"] - 1)
    if bits > _FLOOR_BITS and bits >= limit.bit_length():  # 2^bits > limit
        raise LimitExceeded(f"subgroup order at least 2^{bits} exceeds enumeration limit {limit}")


#: the oracle's cap on the degree n, so on explicit certificates, which it alone writes: a run
#: holds all t cosets and lists a point stabilizer of H, (n!/2)^(1/3) items or more in all
ORACLE_MAX_DEGREE = 1000
#: the cap on an agl, wreath or natural degree n: a transitive H's chain holds n transversal
#: tables of length n and their inverses, 64 MiB of pointers at 2048, the first power of two
#: over 1409, the largest degree the default --limit-enum admits (|AGL(1, 1409)| = 1409·1408)
FAMILY_MAX_DEGREE = 2048


def check_oracle_degree(degree: Optional[int], shown) -> None:
    """Refuse a degree over ORACLE_MAX_DEGREE, or None, one not formed; ``shown`` names it."""
    if degree is None or degree > ORACLE_MAX_DEGREE:
        raise LimitExceeded(f"degree {shown} exceeds the oracle's cap {ORACLE_MAX_DEGREE}")


def check_family_size(family: str, params: dict, ambient: str, limit: int) -> None:
    """Refuse an agl, wreath or natural H before it is built, in this order: by
    :func:`check_family`; for |H ∩ G| over ``limit``, from :func:`check_family_floor`'s
    lower bound, then exactly; for a degree over FAMILY_MAX_DEGREE."""
    check_family(family, params)
    check_family_floor(family, params, limit)
    degree = params["n"] if family == "natural" else pow(*map(params.get, _POWER_PARAMS[family]))
    check_subgroup_limit(family_order(family, params, degree, ambient), limit)
    if degree > FAMILY_MAX_DEGREE:
        raise LimitExceeded(f"degree {degree} exceeds the family's cap {FAMILY_MAX_DEGREE}")


class CertLevel:
    def __init__(self, conjugators: list, order: int):
        self.conjugators = conjugators  # list[Permutation]
        self.order = order


class ChainCertificate:
    def __init__(self, degree: int, ambient: str, family: str, params: dict,
                 generators: list, levels: list, claimed_length: int):
        self.degree = degree
        self.ambient = ambient  # "S" or "A"
        self.family = family  # "agl" | "wreath" | "natural" | "explicit"
        self.params = params
        self.generators = generators  # generators of H, list[Permutation]
        self.levels = levels  # list[CertLevel]
        self.claimed_length = claimed_length

    def to_dict(self) -> dict:
        from .perm import print_cycles

        return {
            "degree": self.degree,
            "ambient": self.ambient,
            "subgroup": {
                "family": self.family,
                "params": dict(sorted(self.params.items())),
                "generators": [print_cycles(g) for g in self.generators],
            },
            "levels": [{"conjugators": [print_cycles(x) for x in lvl.conjugators],
                        "order": str(lvl.order)} for lvl in self.levels],
            "claimed_length": self.claimed_length,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str, limit: int = ENUM_LIMIT_DEFAULT) -> "ChainCertificate":
        """The certificate in ``text``, read and checked by :func:`irrbase.verify.from_json`."""
        from .verify import from_json

        return from_json(text, limit)
