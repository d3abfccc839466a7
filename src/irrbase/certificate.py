"""Chain certificates: serialized strictly descending chains of subgroups.

A certificate presents each subgroup in the chain as the intersection of
conjugates of a distinguished subgroup H of the ambient symmetric or
alternating group, with the conjugating permutations as explicit witnesses.
Level 0 is H itself (witness set {identity}); claimed orders must strictly
decrease and end at 1, and ``claimed_length`` is the number of levels.  These
rules are written once here: :func:`build_chain` assembles a certificate from
a family's conjugator sets, and :func:`verify_certificate` checks one.

The verifier recomputes every certificate level as an intersection of
conjugates of H from H and the certificate's conjugator witnesses alone: each
level is the stabilizer of a coset of H in the level above, found by
orbit-stabilizer on the cosets without enumerating H.  The chain builders
read their orders, through :func:`build_chain`, off the same level pass,
:meth:`PermutationGroup._conjugate_levels`; enumeration is the tests'
reference for it.

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
from math import factorial, gcd, prod
from typing import Callable, Optional

from .group import (ENUM_LIMIT_DEFAULT, LimitExceeded, PermutationGroup, _order_text,
                    check_subgroup_limit)
from .perm import Permutation, parse_cycles, print_cycles


class CertificateFormatError(ValueError):
    """Raised when certificate JSON is malformed or violates the schema."""


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _cycle_strings(value, what: str) -> list:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise CertificateFormatError(f"{what} must be a list of cycle strings")
    return value


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
        return {
            "degree": self.degree,
            "ambient": self.ambient,
            "subgroup": {
                "family": self.family,
                "params": dict(sorted(self.params.items())),
                "generators": [print_cycles(g) for g in self.generators],
            },
            "levels": [
                {
                    "conjugators": [print_cycles(x) for x in lvl.conjugators],
                    "order": str(lvl.order),
                }
                for lvl in self.levels
            ],
            "claimed_length": self.claimed_length,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict, limit: int = ENUM_LIMIT_DEFAULT) -> "ChainCertificate":
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
        return cls(degree, ambient, family, params, generators, levels, claimed)

    @classmethod
    def from_json(cls, text: str, limit: int = ENUM_LIMIT_DEFAULT) -> "ChainCertificate":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as e:  # too long an int; nested too deep
            raise CertificateFormatError(f"invalid JSON: {e}") from None
        return cls.from_dict(data, limit)


# -- certificate assembly ------------------------------------------------------


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


# -- certificate verification --------------------------------------------------


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
