"""Field arithmetic, enumeration, and table tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gf_inv, ref_is_irreducible_octic, shift_reduce_mul
from sbshare import gf

# Published irreducible-polynomial counts for GF(2^d), d = 4..16.
TABLE_COUNTS = [3, 6, 9, 18, 30, 56, 99, 186, 335, 630, 1161, 2182, 4080]

words = st.integers(min_value=0, max_value=255)
field_specs = st.integers(min_value=0, max_value=29).map(gf.field_by_index)


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
        fields = gf.enumerate_irreducible(8)
        assert len(fields) == 30
        assert len(fields) == gf.count_irreducible(8)

    def test_matches_trial_division_scan(self):
        expected = [p for p in range(0x100, 0x200) if ref_is_irreducible_octic(p)]
        assert [f.reduction_poly for f in gf.enumerate_irreducible(8)] == expected

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

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            gf.enumerate_irreducible(9)


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
        f = gf.field_by_index(0)
        assert gf.gf_mul(f, 0x57, 0x00) == 0x00
        assert gf.gf_mul(f, 0x57, 0x01) == 0x57
        assert gf.gf_mul(f, 0x02, 0x80) == 0x1B

    @given(field_specs, words, words)
    def test_matches_independent_oracle(self, field, a, b):
        assert gf.gf_mul(field, a, b) == int(shift_reduce_mul(a, b, field.reduction_poly))

    @given(field_specs, words, words)
    def test_commutative(self, field, a, b):
        assert gf.gf_mul(field, a, b) == gf.gf_mul(field, b, a)

    @given(field_specs, words, words, words)
    def test_associative(self, field, a, b, c):
        left = gf.gf_mul(field, gf.gf_mul(field, a, b), c)
        right = gf.gf_mul(field, a, gf.gf_mul(field, b, c))
        assert left == right

    @given(field_specs, words, words, words)
    def test_distributive(self, field, a, b, c):
        left = gf.gf_mul(field, a, b ^ c)
        right = gf.gf_mul(field, a, b) ^ gf.gf_mul(field, a, c)
        assert left == right


class TestInv:
    def test_examples(self):
        f = gf.field_by_index(0)
        assert gf_inv(f, 0x01) == 0x01
        assert gf_inv(f, 0x02) == 0x8D

    def test_zero_rejected(self):
        for f in gf.canonical_fields():
            with pytest.raises(ZeroDivisionError):
                gf_inv(f, 0)

    @given(field_specs, st.integers(min_value=1, max_value=255))
    def test_mul_by_inverse_is_one(self, field, a):
        assert gf.gf_mul(field, a, gf_inv(field, a)) == 1


class TestTables:
    def test_exp_log_invariants(self):
        for spec in gf.canonical_fields():
            t = gf.tables_for(spec)
            assert t.exp[0] == 1
            assert t.log[t.generator] == 1
            assert t.log[0] is gf.LOG_UNDEFINED
            assert len(set(t.exp)) == 255  # generator order is exactly 255
            for a in range(1, 256):
                assert t.exp[t.log[a]] == a
            for k in range(255):
                assert t.log[t.exp[k]] == k

    def test_generator_is_smallest_order_255(self):
        for spec in gf.canonical_fields():
            t = gf.tables_for(spec)
            for g in range(2, t.generator):
                order = 1
                acc = g
                while acc != 1:
                    acc = gf.gf_mul(spec, acc, g)
                    order += 1
                assert order < 255

    @given(field_specs, words, words)
    def test_table_mul_matches_gf_mul(self, field, a, b):
        assert gf.tables_for(field).mul(a, b) == gf.gf_mul(field, a, b)

    @given(field_specs, st.integers(min_value=1, max_value=255))
    def test_table_inv(self, field, a):
        assert gf.tables_for(field).inv(a) == gf_inv(field, a)


@settings(max_examples=30)
@given(field_specs, st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=600))
def test_pow_matches_repeated_multiplication(field, a, e):
    acc = 1
    for _ in range(e):
        acc = gf.gf_mul(field, acc, a)
    assert gf.gf_pow(field, a, e) == acc


def test_vectorized_oracle_agrees_with_scalar():
    # Anchor the numpy shift-and-reduce oracle used by the exhaustive
    # acceptance check to the scalar library implementation.
    rng = np.random.default_rng(0)
    for _ in range(200):
        field = gf.field_by_index(int(rng.integers(30)))
        a, b = int(rng.integers(256)), int(rng.integers(256))
        assert int(shift_reduce_mul(a, b, field.reduction_poly)) == gf.gf_mul(field, a, b)
