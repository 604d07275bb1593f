"""The field catalogue, and the library's arithmetic checked in every field.

A product in field f takes the library's route: into field 0 through
phi_f (_engine._TO0), one gather from field 0's _MUL, and back through
_FROM0; a quotient gathers from _DIV instead.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import gf_inv, ref_is_irreducible_octic, shift_reduce_mul
from sbshare import _engine, gf

# Published irreducible-polynomial counts for GF(2^d), d = 4..16.
TABLE_COUNTS = [3, 6, 9, 18, 30, 56, 99, 186, 335, 630, 1161, 2182, 4080]

words = st.integers(min_value=0, max_value=255)
field_indices = st.integers(min_value=0, max_value=29)
_TO0, _FROM0 = _engine._TO0.reshape(-1, 256), _engine._FROM0.reshape(-1, 256)


def mul(f: int, a: int, b: int) -> int:
    """a * b in field f, along the library's route."""
    return int(_FROM0[f, _engine._MUL[int(_TO0[f, a]) << 8 | int(_TO0[f, b])]])


def div(f: int, a: int, b: int) -> int:
    """a / b in field f, along the library's route."""
    return int(_FROM0[f, _engine._DIV[int(_TO0[f, a]) << 8 | int(_TO0[f, b])]])


class TestMobius:
    def test_examples(self):
        assert gf.mobius(1) == 1
        assert gf.mobius(6) == 1
        assert gf.mobius(4) == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gf.mobius(0)

    @given(st.integers(min_value=1, max_value=5000))
    def test_matches_naive_factorization(self, k):
        n, factors = k, []
        d = 2
        while d * d <= n:
            while n % d == 0:
                factors.append(d)
                n //= d
            d += 1
        if n > 1:
            factors.append(n)
        if len(set(factors)) != len(factors):
            assert gf.mobius(k) == 0
        else:
            assert gf.mobius(k) == (-1) ** len(factors)


class TestCountIrreducible:
    def test_published_counts(self):
        assert [gf.count_irreducible(d) for d in range(4, 17)] == TABLE_COUNTS

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            gf.count_irreducible(0)
        with pytest.raises(ValueError):
            gf.count_irreducible(31)

    def test_dimension_identity(self):
        # Every element of GF(2^n) has a minimal polynomial whose degree
        # divides n, so the counts must satisfy sum(d * N(d) for d | n) = 2^n.
        for n in range(1, 17):
            total = sum(d * gf.count_irreducible(d) for d in range(1, n + 1) if n % d == 0)
            assert total == 2**n


class TestEnumeration:
    def test_thirty_octics(self):
        fields = gf.canonical_fields()
        assert len(fields) == 30
        assert len(fields) == gf.count_irreducible(8)

    def test_matches_trial_division_scan(self):
        expected = [p for p in range(0x100, 0x200) if ref_is_irreducible_octic(p)]
        assert [f.reduction_poly for f in gf.canonical_fields()] == expected

    def test_sorted_ascending(self):
        polys = [f.reduction_poly for f in gf.canonical_fields()]
        assert polys == sorted(polys)

    def test_excludes_x8_plus_1(self):
        polys = {f.reduction_poly for f in gf.canonical_fields()}
        assert 0x101 not in polys  # x^8 + 1 has the root 1

    def test_canonical_index_zero(self):
        assert gf.field_by_index(0).reduction_poly == 0x11B

    def test_index_round_trip(self):
        for i, spec in enumerate(gf.canonical_fields()):
            assert gf.field_by_index(i) == spec
        with pytest.raises(ValueError):
            gf.field_by_index(30)
        with pytest.raises(ValueError):
            gf.field_by_index(-1)


class TestFieldSpec:
    def test_rejects_reducible(self):
        with pytest.raises(ValueError):
            gf.FieldSpec(0x101)

    def test_rejects_wrong_degree(self):
        with pytest.raises(ValueError):
            gf.FieldSpec(0xFF)
        with pytest.raises(ValueError):
            gf.FieldSpec(0x211)

    def test_poly_str(self):
        assert gf.field_by_index(0).poly_str() == "x^8 + x^4 + x^3 + x + 1"


class TestMul:
    def test_examples(self):
        # FIPS-197 (AES) known answers in 0x11B, field 0, whose phi is
        # the identity: on the engine's table and on the oracle
        for a, b, product in ((0x57, 0x83, 0xC1), (0x57, 0x13, 0xFE), (0x02, 0x80, 0x1B)):
            assert _engine._MUL[a << 8 | b] == product
            assert shift_reduce_mul(a, b, 0x11B) == product
        assert mul(0, 0x57, 0x00) == 0x00
        assert mul(0, 0x57, 0x01) == 0x57

    @given(field_indices, words, words)
    def test_matches_independent_oracle(self, f, a, b):
        assert mul(f, a, b) == int(shift_reduce_mul(a, b, gf.field_by_index(f).reduction_poly))

    @given(field_indices, words, words)
    def test_commutative(self, f, a, b):
        assert mul(f, a, b) == mul(f, b, a)

    @given(field_indices, words, words, words)
    def test_associative(self, f, a, b, c):
        assert mul(f, mul(f, a, b), c) == mul(f, a, mul(f, b, c))

    @given(field_indices, words, words, words)
    def test_distributive(self, f, a, b, c):
        assert mul(f, a, b ^ c) == mul(f, a, b) ^ mul(f, a, c)


class TestInv:
    def test_examples(self):
        # FIPS-197 (AES) known answer in 0x11B: {53}^-1 = {CA}
        f = gf.field_by_index(0)
        assert _engine._DIV[1 << 8 | 0x53] == 0xCA
        assert shift_reduce_mul(0x53, 0xCA, 0x11B) == 1
        assert gf_inv(f, 0x53) == 0xCA
        assert gf_inv(f, 0x01) == 0x01
        assert gf_inv(f, 0x02) == 0x8D

    def test_zero_rejected(self):
        for f in gf.canonical_fields():
            with pytest.raises(ZeroDivisionError):
                gf_inv(f, 0)

    @given(field_indices, st.integers(min_value=1, max_value=255))
    def test_mul_by_inverse_is_one(self, f, a):
        inverse = div(f, 1, a)
        assert mul(f, a, inverse) == 1
        assert inverse == gf_inv(gf.field_by_index(f), a)
