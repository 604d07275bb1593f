"""GF(2^8) arithmetic under any of its 30 irreducible reduction polynomials.

Field elements are bytes (ints in 0..255) whose binary digits are the
coefficients of a polynomial over GF(2); bit i is the coefficient of x^i.
A concrete field representation is fixed by choosing an irreducible
degree-8 reduction polynomial, encoded the same way with bit 8 set.
For example 0x11B is x^8 + x^4 + x^3 + x + 1.

All 30 such polynomials yield isomorphic (but bitwise incompatible)
representations of GF(2^8).  They are enumerated in ascending order of
their integer encoding; a field's position in that list is its canonical
index.  Index 0 (0x11B) is the representation used for key splitting.

Everything in this module is a pure function of its inputs; FieldTables
values are immutable and safe to share across threads.
"""

import functools
from dataclasses import dataclass

FIELD_DEGREE = 8


def mobius(k: int) -> int:
    """Mobius function: 0 if k has a squared prime factor, else (-1)^(#prime factors)."""
    if k < 1:
        raise ValueError("mobius is defined for positive integers only")
    nfactors = 0
    d = 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            nfactors += 1
        d += 1
    if k > 1:
        nfactors += 1
    return -1 if nfactors % 2 else 1


def count_irreducible(degree: int) -> int:
    """Number of irreducible polynomials of the given degree over GF(2).

    Computed by inclusion-exclusion over the divisors of the degree:
    (1/degree) * sum over d | degree of mobius(degree/d) * 2^d.
    """
    if not 1 <= degree <= 30:
        raise ValueError("degree must be in 1..30")
    total = sum(
        mobius(degree // d) * (1 << d) for d in range(1, degree + 1) if degree % d == 0
    )
    assert total % degree == 0
    return total // degree


def _poly_mod(a: int, b: int) -> int:
    """Remainder of carryless division of a by b over GF(2)."""
    width = b.bit_length()
    while a.bit_length() >= width:
        a ^= b << (a.bit_length() - width)
    return a


def is_irreducible(poly: int) -> bool:
    """Whether poly has degree 8 and no factor of degree 1..4 (trial division)."""
    if poly.bit_length() != FIELD_DEGREE + 1:
        return False
    for d in range(2, 1 << (FIELD_DEGREE // 2 + 1)):
        if _poly_mod(poly, d) == 0:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """One GF(2^8) representation, identified by its reduction polynomial."""

    reduction_poly: int

    def __post_init__(self):
        if not 0x101 <= self.reduction_poly <= 0x1FF:
            raise ValueError(
                f"reduction polynomial 0x{self.reduction_poly:X} out of range"
            )
        if not is_irreducible(self.reduction_poly):
            raise ValueError(
                f"0x{self.reduction_poly:X} is not irreducible over GF(2)"
            )

    def poly_str(self) -> str:
        """Human-readable polynomial, e.g. 'x^8 + x^4 + x^3 + x + 1'."""
        terms = []
        for i in range(self.reduction_poly.bit_length() - 1, -1, -1):
            if self.reduction_poly >> i & 1:
                terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
        return " + ".join(terms)


@functools.lru_cache(maxsize=1)
def canonical_fields() -> tuple[FieldSpec, ...]:
    """All 30 degree-8 fields, ascending by reduction polynomial encoding."""
    fields = tuple(
        FieldSpec(p) for p in range(0x101, 0x200) if is_irreducible(p)
    )
    assert len(fields) == count_irreducible(FIELD_DEGREE)
    return fields


def enumerate_irreducible(degree: int = FIELD_DEGREE) -> list[FieldSpec]:
    """Ordered list of all irreducible degree-8 reduction polynomials as fields."""
    if degree != FIELD_DEGREE:
        raise ValueError("only degree 8 is supported")
    return list(canonical_fields())


def field_count() -> int:
    return len(canonical_fields())


def field_by_index(index: int) -> FieldSpec:
    """Field at the given canonical index (0-based, ascending polynomial order)."""
    fields = canonical_fields()
    if not 0 <= index < len(fields):
        raise ValueError(f"field index {index} out of range 0..{len(fields) - 1}")
    return fields[index]


def gf_mul(field: FieldSpec, a: int, b: int) -> int:
    """Shift-and-reduce product of a and b modulo the reduction polynomial."""
    poly = field.reduction_poly
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= poly
    return acc


def gf_pow(field: FieldSpec, a: int, e: int) -> int:
    """a raised to a non-negative integer power, by square and multiply."""
    if e < 0:
        raise ValueError("negative exponent")
    acc = 1
    while e:
        if e & 1:
            acc = gf_mul(field, acc, a)
        a = gf_mul(field, a, a)
        e >>= 1
    return acc


# The multiplicative group has 255 elements; its proper maximal subgroups
# have orders 255/3, 255/5 and 255/17.  An element is a generator iff none
# of these powers collapse to 1.
_SUBGROUP_ORDERS = (85, 51, 15)

#: Sentinel stored at log[0]: zero has no discrete logarithm.  Multiplication
#: must branch on zero operands before any table lookup.
LOG_UNDEFINED = None


@dataclass(frozen=True)
class FieldTables:
    """Discrete log/exp lookup tables for one field representation.

    exp[k] = g^k for k in 0..254; log[exp[k]] = k; log[0] is LOG_UNDEFINED.
    The generator g is the smallest element of multiplicative order 255,
    which makes the tables identical across conforming implementations.
    """

    field: FieldSpec
    exp: tuple[int, ...]
    log: tuple
    generator: int

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % 255]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.exp[(255 - self.log[a]) % 255]


def build_tables(field: FieldSpec) -> FieldTables:
    """Construct exp/log tables for a field.

    The group of units is cyclic of order 255, so a generator always
    exists; x (0x02) is not one in every representation, hence the search.
    """
    generator = 0
    for g in range(2, 256):
        if all(gf_pow(field, g, e) != 1 for e in _SUBGROUP_ORDERS):
            generator = g
            break
    exp = [0] * 255
    log: list = [LOG_UNDEFINED] * 256
    acc = 1
    for k in range(255):
        exp[k] = acc
        log[acc] = k
        acc = gf_mul(field, acc, generator)
    assert acc == 1  # g^255 wraps to the identity
    return FieldTables(field, tuple(exp), tuple(log), generator)


@functools.lru_cache(maxsize=None)
def tables_for(field: FieldSpec) -> FieldTables:
    """Cached tables; FieldTables is immutable so sharing is safe."""
    return build_tables(field)
