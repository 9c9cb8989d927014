"""Exact arithmetic in GF(p) and GF(p^2).

A quadratic extension is represented on the basis {1, xi} where xi satisfies
xi^2 = u + v*xi for the first (u, v) in scan order (v outer, u inner, both
ascending) that makes X^2 - v*X - u irreducible over GF(p).  The scan order is
part of the public contract so that independent implementations agree on the
same extension.

Elements are kept canonically reduced: residues a0, a1 in [0, p), and a1 = 0
for prime fields.  All operations are pure; values are safe to share across
threads.

Bulk code works on element indices instead: a0*p + a1 in GF(p^2) and a0 in
GF(p), which is the order of `FieldSpec.elements()`.  `FieldSpec.tables()`
holds the add/mul/neg/inv tables over those indices, built on first use
from residue arithmetic on the indices, not from `Elt` objects.  Tables of
more than `TABLE_MAX_ENTRIES` (q^2) entries are refused unbuilt.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from .errors import DivisionByZero, NotPrime, SpecMismatch, TooLarge, UnsupportedField

# Most entries one add or mul table may hold: q^2.  GF(961) has 923,521;
# GF(1009) is refused.
TABLE_MAX_ENTRIES = 1_000_000


# Miller-Rabin to these bases is exact below PRIME_TEST_MAX (Sorenson and
# Webster 2017); larger n are refused.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_MAX = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality; TooLarge at n >= PRIME_TEST_MAX."""
    if n >= PRIME_TEST_MAX:
        raise TooLarge(f"{n} is past the primality test's budget of {PRIME_TEST_MAX:.2e}")
    if n < 2:
        return False
    for a in PRIME_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in PRIME_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << r, n) for r in range(s)):
            return False
    return True


class FieldTables(NamedTuple):
    """Arithmetic over element indices: add[a][b], mul[a][b], neg[a], inv[a].

    inv[0] is None.
    """

    add: list[list[int]]
    mul: list[list[int]]
    neg: list[int]
    inv: list[int | None]


class FieldSpec:
    """Immutable description of GF(p) (degree 1) or GF(p^2) (degree 2)."""

    __slots__ = ("p", "degree", "u", "v", "_tables")

    def __init__(self, p: int, degree: int, u: int = 0, v: int = 0):
        self.p = p
        self.degree = degree
        self.u = u
        self.v = v
        self._tables: FieldTables | None = None

    @property
    def size(self) -> int:
        return self.p**self.degree

    def elt(self, a0: int, a1: int = 0) -> "Elt":
        if self.degree == 1 and a1 % self.p != 0:
            raise SpecMismatch("prime field element cannot have an xi component")
        return Elt(self, a0 % self.p, a1 % self.p)

    def zero(self) -> "Elt":
        return Elt(self, 0, 0)

    def one(self) -> "Elt":
        return Elt(self, 1, 0)

    def xi(self) -> "Elt":
        if self.degree != 2:
            raise SpecMismatch("xi exists only in quadratic extensions")
        return Elt(self, 0, 1)

    def elements(self):
        """All field elements, ascending in the (a0, a1) residue order."""
        if self.degree == 1:
            for a0 in range(self.p):
                yield Elt(self, a0, 0)
        else:
            for a0 in range(self.p):
                for a1 in range(self.p):
                    yield Elt(self, a0, a1)

    def index(self, a: "Elt") -> int:
        """Position of `a` in `elements()`: a0*p + a1, or a0 in a prime field."""
        return a.a0 * self.p + a.a1 if self.degree == 2 else a.a0

    def element(self, index: int) -> "Elt":
        """The element at `index` in `elements()`; inverse of `index`."""
        if self.degree == 2:
            return Elt(self, *divmod(index, self.p))
        return Elt(self, index, 0)

    def tables(self) -> FieldTables:
        """Index-level add/mul/neg/inv tables, built on first use."""
        if self._tables is None:
            q = self.size
            if q * q > TABLE_MAX_ENTRIES:
                raise TooLarge(
                    f"GF({q}) tables need {q * q:,} entries each; "
                    f"the table budget is {TABLE_MAX_ENTRIES:,}"
                )
            self._tables = _index_tables(self.p, self.degree, self.u, self.v)
        return self._tables

    def to_json_dict(self) -> dict:
        return {"p": self.p, "degree": self.degree, "u": self.u, "v": self.v}

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.degree == other.degree
            and self.u == other.u
            and self.v == other.v
        )

    def __hash__(self):
        return hash((self.p, self.degree, self.u, self.v))

    def __repr__(self):
        if self.degree == 1:
            return f"FieldSpec(p={self.p}, degree=1)"
        return f"FieldSpec(p={self.p}, degree=2, u={self.u}, v={self.v})"


def _index_tables(p: int, degree: int, u: int, v: int) -> FieldTables:
    """The tables of GF(p) or GF(p^2) with xi^2 = u + v*xi, from residues.

    Every entry is one of the int objects of `range(q)`, so a table costs
    one pointer per entry.  In GF(p^2) an add row is p blocks of p indices,
    each a rotation of one block of `range(q)`; b*a = b0*a + b1*(a*xi),
    where a*xi = a1*u + (a0 + a1*v)*xi, so a mul row reads the add table;
    inv[a] is the b in a's mul row with a*b = 1.
    """
    q = p**degree
    ids = list(range(q))
    if degree == 1:
        add = [ids[a:] + ids[:a] for a in ids]
        mul = [[ids[a * b % p] for b in ids] for a in ids]
        neg = [ids[-a % p] for a in ids]
    else:
        rotated = [[ids[h * p + r:(h + 1) * p] + ids[h * p:h * p + r] for r in range(p)]
                   for h in range(p)]  # rotated[h][r][s] = h*p + (r + s) % p
        add = [list(chain.from_iterable(rotated[(a0 + b0) % p][a1] for b0 in range(p)))
               for a0 in range(p) for a1 in range(p)]
        mul = []
        for a0 in range(p):
            for a1 in range(p):
                c0, c1 = a1 * u % p, (a0 + a1 * v) % p  # a*xi
                first = [b * a0 % p * p + b * a1 % p for b in range(p)]
                second = [b * c0 % p * p + b * c1 % p for b in range(p)]
                mul.append([row[k] for row in map(add.__getitem__, first) for k in second])
        neg = [ids[-a0 % p * p + -a1 % p] for a0 in range(p) for a1 in range(p)]
    one = p ** (degree - 1)  # the index of 1
    inv = [None] + [ids[mul[a].index(one)] for a in ids[1:]]
    return FieldTables(add, mul, neg, inv)


@lru_cache(maxsize=None)
def build_field_spec(p: int, degree: int) -> FieldSpec:
    """Construct GF(p) or GF(p^2) with the deterministic (u, v) selection."""
    if degree not in (1, 2):
        raise UnsupportedField(f"degree must be 1 or 2, got {degree}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if degree == 1:
        return FieldSpec(p, 1)
    for v in range(p):
        for u in range(p):
            if _is_irreducible(p, u, v):
                return FieldSpec(p, 2, u, v)
    # A monic irreducible quadratic exists over every prime field.
    raise AssertionError(f"no irreducible X^2 - {v}X - u found over GF({p})")


def _is_irreducible(p: int, u: int, v: int) -> bool:
    """True iff X^2 - v*X - u has no root in GF(p): for odd p, iff its
    discriminant v^2 + 4u is a non-square (Euler's criterion)."""
    return u == v == 1 if p == 2 else pow(v * v + 4 * u, (p - 1) // 2, p) == p - 1


@lru_cache(maxsize=None)
def field_for_size(q: int) -> FieldSpec:
    """Resolve a field size q to GF(p) (q prime) or GF(p^2) (q = p^2, p prime)."""
    if q >= 2 and is_prime(q):
        return build_field_spec(q, 1)
    root = math.isqrt(q) if q >= 0 else 0
    if q >= 4 and root * root == q and is_prime(root):
        return build_field_spec(root, 2)
    raise UnsupportedField(f"q={q} is neither a prime nor the square of a prime")


class Elt:
    """Field element a0 + a1*xi, canonically reduced mod p."""

    __slots__ = ("spec", "a0", "a1")

    def __init__(self, spec: FieldSpec, a0: int, a1: int):
        self.spec = spec
        self.a0 = a0
        self.a1 = a1

    def is_zero(self) -> bool:
        return self.a0 == 0 and self.a1 == 0

    def _check(self, other: "Elt") -> None:
        if self.spec != other.spec:
            raise SpecMismatch(f"{self.spec!r} vs {other.spec!r}")

    def __add__(self, other: "Elt") -> "Elt":
        self._check(other)
        p = self.spec.p
        return Elt(self.spec, (self.a0 + other.a0) % p, (self.a1 + other.a1) % p)

    def __sub__(self, other: "Elt") -> "Elt":
        self._check(other)
        p = self.spec.p
        return Elt(self.spec, (self.a0 - other.a0) % p, (self.a1 - other.a1) % p)

    def __neg__(self) -> "Elt":
        p = self.spec.p
        return Elt(self.spec, -self.a0 % p, -self.a1 % p)

    def __mul__(self, other: "Elt") -> "Elt":
        self._check(other)
        spec = self.spec
        p = spec.p
        a0, a1, b0, b1 = self.a0, self.a1, other.a0, other.a1
        if a1 == 0 and b1 == 0:
            return Elt(spec, a0 * b0 % p, 0)
        # (a0 + a1 xi)(b0 + b1 xi) with xi^2 = u + v xi
        cross = a1 * b1
        return Elt(
            spec,
            (a0 * b0 + cross * spec.u) % p,
            (a0 * b1 + a1 * b0 + cross * spec.v) % p,
        )

    def inv(self) -> "Elt":
        """Multiplicative inverse via the conjugate/norm identity."""
        spec = self.spec
        p = spec.p
        if self.a0 == 0 and self.a1 == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        if self.a1 == 0:
            return Elt(spec, pow(self.a0, p - 2, p), 0)
        # conj(a) = (a0 + a1 v) - a1 xi;  N(a) = a * conj(a) = a0^2 + v a0 a1 - u a1^2
        a0, a1 = self.a0, self.a1
        norm = (a0 * a0 + spec.v * a0 * a1 - spec.u * a1 * a1) % p
        ninv = pow(norm, p - 2, p)
        return Elt(spec, (a0 + a1 * spec.v) * ninv % p, -a1 * ninv % p)

    def __truediv__(self, other: "Elt") -> "Elt":
        return self * other.inv()

    def __pow__(self, n: int) -> "Elt":
        if n < 0:
            return self.inv() ** (-n)
        result = self.spec.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Elt)
            and self.a0 == other.a0
            and self.a1 == other.a1
            and self.spec == other.spec
        )

    def __hash__(self):
        return hash((self.a0, self.a1))

    def __str__(self):
        return format_elt(self)

    def __repr__(self):
        return f"Elt({format_elt(self)!r} in GF({self.spec.size}))"


def format_elt(a: Elt) -> str:
    """Render on the textual syntax: '2', 'x', '2x', '1+2x', ..."""
    if a.a1 == 0:
        return str(a.a0)
    xi_part = "x" if a.a1 == 1 else f"{a.a1}x"
    if a.a0 == 0:
        return xi_part
    return f"{a.a0}+{xi_part}"

