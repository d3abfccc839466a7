"""Permutations of {1..n} as immutable image tables.

A permutation is stored as a table ``tbl`` with ``tbl[i]`` the 0-based image
of the 0-based point ``i``: a ``bytes`` of length n up to degree 256, since a
byte holds 0..255, and a tuple above.  :func:`_table` alone makes tables from
sequences, so every table of one degree has one type.  All public interfaces
(cycle text, the ``images`` field, ``image()``) speak 1-based points,
matching the on-disk formats of this package; the 0-based table is an
internal detail.

The composition convention is the right action: ``i^(pq) = (i^p)^q``, so
``compose(p, q)`` means "apply p first, then q".  Conjugation is
``g^x = x^-1 g x``.  Every module in this package uses these conventions.

The raw-table kernel at the bottom of this module is what the heavier modules
run on.  On tables the same convention reads ``_compose_tbl(a, b)[i] =
b[a[i]]`` (a first, then b), computed as ``a.translate(b + pad)`` on bytes,
with b padded to the 256 entries ``bytes.translate`` wants, and as
``itemgetter(*a)(b)`` on tuples; identity is tested by ``==`` against a
cached identity table.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Sequence, Union

#: a permutation table: bytes up to :data:`BYTES_DEGREE`, a tuple above
Table = Union[bytes, tuple]

#: the largest degree whose tables are bytes: a byte holds the points 0..255
BYTES_DEGREE = 256


class CycleParseError(ValueError):
    """Raised when cycle-notation text is malformed."""


class DegreeMismatchError(ValueError):
    """Raised when permutations of different degrees are combined."""


class Permutation:
    """A bijection of {1..n}, immutable and hashable.

    Construct from a sequence of 1-based images (``images[i]`` is the image
    of point ``i + 1``), or use :meth:`identity`, :meth:`from_cycles`, or
    the module-level :func:`parse_cycles`.
    """

    __slots__ = ("_tbl",)

    def __init__(self, images: Sequence[int]):
        n = len(images)
        tbl = [v - 1 for v in images]
        if sorted(tbl) != list(range(n)):
            raise ValueError("images do not form a bijection of {1..%d}" % n)
        self._tbl = _table(tbl)

    @classmethod
    def _wrap(cls, tbl: Table) -> "Permutation":
        """Wrap a trusted 0-based image table without validation."""
        p = object.__new__(cls)
        p._tbl = tbl
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 0:
            raise ValueError("degree must be non-negative")
        return cls._wrap(_identity_tbl(degree))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        return parse_cycles(text, degree)

    @property
    def degree(self) -> int:
        return len(self._tbl)

    @property
    def images(self) -> tuple:
        """The 1-based image sequence: images[i] is the image of point i+1."""
        return tuple(v + 1 for v in self._tbl)

    def image(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= len(self._tbl):
            raise ValueError(f"point {point} out of range 1..{len(self._tbl)}")
        return self._tbl[point - 1] + 1

    def is_identity(self) -> bool:
        return _is_identity_tbl(self._tbl)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Right-action composition: apply self first, then other."""
        return compose(self, other)

    def __pow__(self, e: int) -> "Permutation":
        if e < 0:
            return inverse(self) ** (-e)
        r = _identity_tbl(len(self._tbl))
        b = self._tbl
        while e:
            if e & 1:
                r = _compose_tbl(r, b)
            b = _compose_tbl(b, b)
            e >>= 1
        return Permutation._wrap(r)

    def inverse(self) -> "Permutation":
        return inverse(self)

    def conjugate(self, x: "Permutation") -> "Permutation":
        return conjugate(self, x)

    def cycles(self) -> list:
        """Disjoint cycles as tuples of 1-based points, fixed points omitted.

        Cycles are sorted by smallest moved point and each starts at its
        smallest point.
        """
        tbl = self._tbl
        seen = [False] * len(tbl)
        out = []
        for i in range(len(tbl)):
            if seen[i] or tbl[i] == i:
                continue
            cyc = [i + 1]
            seen[i] = True
            j = tbl[i]
            while j != i:
                seen[j] = True
                cyc.append(j + 1)
                j = tbl[j]
            out.append(tuple(cyc))
        return out

    def order(self) -> int:
        from math import lcm

        return lcm(1, *(len(c) for c in self.cycles()))

    def is_even(self) -> bool:
        return _cycles_even(self.cycles())

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._tbl == other._tbl

    def __hash__(self) -> int:
        return hash(self._tbl)

    def __str__(self) -> str:
        return print_cycles(self)

    def __repr__(self) -> str:
        return f"Permutation.from_cycles({print_cycles(self)!r}, {self.degree})"


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like ``(1 2 3)(4 5)``; ``()`` is the identity.

    Points are 1-based and must lie in {1..degree}; a repeated point, a point
    out of range, or stray text raises :class:`CycleParseError` naming the
    offending token.
    """
    return Permutation._wrap(_cycles_tbl(_cycle_lists(text, degree), degree))


def _cycle_lists(text: str, degree: int) -> list:
    """The cycles of :func:`parse_cycles`'s text, checked as it checks them.

    Each cycle is a list of 0-based points; fixed points are left out, and no
    work grows with the degree.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    cycles = []
    used = set()
    s = text.strip()
    if not s:
        raise CycleParseError("empty cycle text (use '()' for the identity)")
    pos = 0
    saw_cycle = False
    while pos < len(s):
        ch = s[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch != "(":
            raise CycleParseError(f"unexpected text {s[pos:]!r}, expected '('")
        end = s.find(")", pos)
        if end < 0:
            raise CycleParseError(f"unclosed cycle {s[pos:]!r}")
        body = s[pos + 1 : end]
        pos = end + 1
        saw_cycle = True
        points = []
        for tok in body.split():
            if not tok.isdigit():
                raise CycleParseError(f"bad point token {tok!r}")
            pt = int(tok)
            if not 1 <= pt <= degree:
                raise CycleParseError(f"point {pt} out of range 1..{degree}")
            if pt in used:
                raise CycleParseError(f"point {pt} repeated")
            used.add(pt)
            points.append(pt - 1)
        if len(points) >= 2:
            cycles.append(points)
    if not saw_cycle:
        raise CycleParseError(f"no cycles found in {text!r}")
    return cycles


def _cycles_tbl(cycles: list, degree: int) -> Table:
    """The table of the permutation with these disjoint cycles of 0-based points."""
    tbl = list(range(degree))
    for points in cycles:
        for a, b in zip(points, points[1:]):
            tbl[a] = b
        tbl[points[-1]] = points[0]
    return _table(tbl)


def _cycles_even(cycles: list) -> bool:
    return sum(len(c) - 1 for c in cycles) % 2 == 0


def print_cycles(p: Permutation) -> str:
    """Canonical cycle text: cycles sorted by smallest moved point, ``()`` for identity."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycs)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product pq under the right action: i^(pq) = (i^p)^q."""
    a, b = p._tbl, q._tbl
    if len(a) != len(b):
        raise DegreeMismatchError(f"degree mismatch: {len(a)} vs {len(b)}")
    return Permutation._wrap(_compose_tbl(a, b))


def inverse(p: Permutation) -> Permutation:
    return Permutation._wrap(_inverse_tbl(p._tbl))


def conjugate(g: Permutation, x: Permutation) -> Permutation:
    """g^x = x^-1 g x; relabels g's cycles by x, preserving cycle type."""
    a, b = g._tbl, x._tbl
    if len(a) != len(b):
        raise DegreeMismatchError(f"degree mismatch: {len(a)} vs {len(b)}")
    return Permutation._wrap(_compose_tbl(_compose_tbl(_inverse_tbl(b), a), b))


def parity(p: Permutation) -> str:
    """'even' or 'odd': even iff p is a product of an even number of transpositions."""
    return "even" if p.is_even() else "odd"


def cycle_type(p: Permutation) -> tuple:
    """Multiset of cycle lengths (sorted, fixed points omitted)."""
    return tuple(sorted(len(c) for c in p.cycles()))


# ---------------------------------------------------------------------------
# raw-table kernel shared by the heavier modules; tables are 0-based, bytes up to
# degree 256 and tuples above.  A hot loop pads an operand it reuses once
# (:func:`_pad`) and composes through :func:`_then` or :func:`_composer`, so no
# Python-level call is made per composition on bytes.


def _table(seq: Sequence[int]) -> Table:
    """The table of a sequence of 0-based images: bytes up to degree 256, a tuple above.

    The only place a table is made from a sequence, so that tables of one degree
    have one type: a tuple never equals bytes, so a stray one would fail every
    identity test.
    """
    return bytes(seq) if len(seq) <= BYTES_DEGREE else tuple(seq)


# _PADS[n]: the zero bytes that bring a degree-n table to the 256 entries of a
# translation table; only its first n entries are ever looked up
_PADS = [bytes(BYTES_DEGREE - n) for n in range(BYTES_DEGREE + 1)]


def _pad(n: int) -> Table:
    """What a degree-n table b is extended by, ``b + _pad(n)``, as the second operand of
    :func:`_then` and :func:`_composer`: zero bytes up to 256 entries, or nothing."""
    return _PADS[n] if n <= BYTES_DEGREE else ()


def _compose_tbl(a: Table, b: Table) -> Table:
    """a first, then b: the table of ``b[a[i]]``, by ``bytes.translate`` up to degree 256."""
    n = len(a)
    if n <= BYTES_DEGREE:
        return a.translate(b + _PADS[n])
    return itemgetter(*a)(b)


def _then(a: Table):
    """The C-level callable taking a padded b (``b + _pad(n)``) to ``_compose_tbl(a, b)``.

    For a first operand composed with many second ones: a tuple's itemgetter is made once.
    """
    return a.translate if len(a) <= BYTES_DEGREE else itemgetter(*a)


def _composer(n: int):
    """``f(a, b + _pad(n)) == _compose_tbl(a, b)`` for degree-n tables, for a first
    operand that varies: on bytes the C-level ``bytes.translate``, on tuples (an
    empty pad) ``_compose_tbl`` itself."""
    return bytes.translate if n <= BYTES_DEGREE else _compose_tbl


def _first_into(points, n: int):
    """The callable taking a degree-n table z to the least i with ``z[i]`` in ``points``, on
    bytes ``z.translate(mask).index(1)`` with the mask 1 at each point; None on tuples, where
    reading z from 0 up until a point is met costs less than any ``z.index`` per point."""
    if n > BYTES_DEGREE:
        return None
    mask = bytes(p in points for p in range(BYTES_DEGREE))
    return lambda z: z.translate(mask).index(1)


def _inverse_tbl(a: Table) -> Table:
    n = len(a)
    if n <= BYTES_DEGREE:
        return bytes.maketrans(a, _identity_tbl(n))[:n]
    inv = [0] * n
    for i, v in enumerate(a):
        inv[v] = i
    return _table(inv)


def _inverts_in_c(n: int) -> bool:
    """Whether degree-n tables are inverted by one C-level call, as bytes are; a tuple's
    inverse is a Python loop over its entries."""
    return n <= BYTES_DEGREE


@lru_cache(maxsize=32)
def _identity_tbl(n: int) -> Table:
    return _table(range(n))


def _is_identity_tbl(a: Table) -> bool:
    return a == _identity_tbl(len(a))
