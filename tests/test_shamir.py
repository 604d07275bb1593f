"""Block mathematics tests: masking, points, field pick, eval/interp, key split."""

import itertools
import random
import secrets

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    REF_FIELDS,
    BlockRandomness,
    InterpolationError,
    derive_eval_points,
    eval_block,
    interpolate_block,
    mask_words,
    mul_rows,
    select_field,
)
from sbshare import _engine
from sbshare.scheme import combine, split
from sbshare.shamir import FieldPolicy, SchemeParams, recover_key, split_key

field_polys = st.sampled_from(REF_FIELDS)


class TestSchemeParams:
    def test_bounds(self):
        SchemeParams(n=255, m=255)
        SchemeParams(n=1, m=1)
        for n, m in ((0, 0), (3, 0), (2, 3), (256, 2), (-1, -1)):
            with pytest.raises(ValueError):
                SchemeParams(n=n, m=m)

    def test_rejects_unknown_field_policy(self):
        for policy in (5, "fixed-canonical"):
            with pytest.raises(ValueError):
                SchemeParams(n=3, m=2, field_policy=policy)
        assert SchemeParams(n=3, m=2, field_policy=1).field_policy is FieldPolicy.FIXED_CANONICAL

    def test_words_per_block(self):
        assert SchemeParams(n=5, m=3).words_per_block == 12
        assert SchemeParams(n=1, m=1).words_per_block == 6

    def test_numpy_integers_become_ints(self):
        # a numpy n and m would overflow words_per_block or fail mid-split
        for n, m, width in ((np.uint8(255), np.uint8(128), 387), (np.int32(5), np.int32(3), 12)):
            params = SchemeParams(n=n, m=m)
            assert type(params.n) is int and type(params.m) is int
            assert params.words_per_block == width
            message = secrets.token_bytes(100)
            assert combine(split(message, params)[-params.m :]) == message

    def test_rejects_floats(self):
        for n, m in ((5.0, 3), (5, 3.0)):
            with pytest.raises(TypeError):
                SchemeParams(n=n, m=m)

    def test_dual_seed_is_a_bool(self):
        # bool("no") is True: converting any value, or keeping it, could make a two-seed split
        for value in ("no", None, 1):
            with pytest.raises(TypeError):
                SchemeParams(n=3, m=2, dual_seed=value)
        for value, want in ((np.True_, True), (np.False_, False), (True, True)):
            assert SchemeParams(n=3, m=2, dual_seed=value).dual_seed is want
        assert SchemeParams(n=3, m=2, dual_seed=np.True_) == SchemeParams(n=3, m=2, dual_seed=True)


class TestBlockRandomness:
    def test_partition(self):
        words = bytes(range(12))
        br = BlockRandomness.from_words(words, m=3, n=5)
        assert br.mask_words == bytes([0, 1, 2])
        assert br.point_words == bytes([3, 4, 5, 6, 7])
        assert br.field_words == bytes([8, 9, 10, 11])

    def test_length_enforced(self):
        with pytest.raises(ValueError):
            BlockRandomness.from_words(bytes(11), m=3, n=5)


class TestMaskWords:
    def test_examples(self):
        assert mask_words(b"\x12\x34", b"\x12\x34") == b"\x00\x00"
        assert mask_words(b"\x12\x34", b"\x00\x00") == b"\x12\x34"

    @given(st.binary(max_size=64))
    def test_involution(self, data):
        mask = secrets.token_bytes(len(data))
        assert mask_words(mask_words(data, mask), mask) == data

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mask_words(b"\x00", b"\x00\x00")


def engine_points(words: bytes) -> tuple[int, ...]:
    """_engine.derive_points on a single row."""
    return tuple(_engine.derive_points(np.frombuffer(words, np.uint8)[None, :])[:, 0].tolist())


def engine_field(words: bytes, policy: FieldPolicy) -> int:
    """_engine.field_indices on a single row."""
    index = _engine.field_indices(np.frombuffer(words, np.uint8)[None, :], policy)[0]
    return REF_FIELDS[index]


class DerivePointsCases:
    """Known answers for point derivation; derive is the implementation under test."""

    derive = staticmethod(derive_eval_points)

    def test_zero_words_probe_upward(self):
        assert self.derive(bytes(3)) == (1, 2, 3)

    def test_modulus_edges(self):
        assert self.derive(bytes([254])) == (255,)
        assert self.derive(bytes([255])) == (1,)

    def test_probe_wraps_255_to_1(self):
        assert self.derive(bytes([254, 254])) == (255, 1)

    def test_too_many_points(self):
        with pytest.raises(ValueError):
            self.derive(bytes(256))

    def test_full_saturation(self):
        points = self.derive(bytes(255))
        assert sorted(points) == list(range(1, 256))


class TestDeriveEvalPoints(DerivePointsCases):
    @given(st.binary(min_size=1, max_size=255))
    @settings(max_examples=200)
    def test_distinct_nonzero_deterministic(self, words):
        points = derive_eval_points(words)
        assert len(set(points)) == len(words)
        assert all(1 <= x <= 255 for x in points)
        assert derive_eval_points(words) == points


class TestEngineDerivePoints(DerivePointsCases):
    derive = staticmethod(engine_points)


class SelectFieldCases:
    """Known answers for field selection; select is the implementation under test."""

    select = staticmethod(select_field)

    def test_examples(self):
        assert self.select(bytes([0, 0, 0, 0x00]), FieldPolicy.RANDOM_PER_BLOCK) == REF_FIELDS[0]
        assert self.select(bytes([0, 0, 0, 0x1D]), FieldPolicy.RANDOM_PER_BLOCK) == REF_FIELDS[29]
        assert self.select(bytes([0, 0, 0, 0x1E]), FieldPolicy.RANDOM_PER_BLOCK) == REF_FIELDS[0]

    def test_big_endian(self):
        # 0x01000000 mod 30 = 16777216 mod 30 = 16
        assert self.select(bytes([1, 0, 0, 0]), FieldPolicy.RANDOM_PER_BLOCK) == REF_FIELDS[16]

    def test_fixed_policy_ignores_words(self):
        assert self.select(bytes([9, 9, 9, 9]), FieldPolicy.FIXED_CANONICAL) == REF_FIELDS[0]


class TestSelectField(SelectFieldCases):
    def test_word_count_enforced(self):
        with pytest.raises(ValueError):
            select_field(bytes(3), FieldPolicy.RANDOM_PER_BLOCK)

    @given(st.binary(min_size=4, max_size=4))
    def test_stable(self, words):
        a = select_field(words, FieldPolicy.RANDOM_PER_BLOCK)
        b = select_field(words, FieldPolicy.RANDOM_PER_BLOCK)
        assert a == b


class TestEngineSelectField(SelectFieldCases):
    select = staticmethod(engine_field)


class TestEvalBlock:
    def test_constant_polynomial(self):
        field = REF_FIELDS[3]
        assert eval_block(b"\xc2", (1, 7, 254), field) == b"\xc2\xc2\xc2"

    def test_point_one_sums_coefficients(self):
        field = REF_FIELDS[11]
        coeffs = b"\x10\x22\x35\x47"
        expected = 0
        for c in coeffs:
            expected ^= c
        assert eval_block(coeffs, (1,), field) == bytes([expected])

    @given(
        field_polys,
        st.binary(min_size=1, max_size=8),
        st.lists(st.integers(min_value=1, max_value=255), min_size=1, max_size=8),
    )
    def test_matches_power_sum_oracle(self, field, coeffs, points):
        got = eval_block(coeffs, points, field)
        mul = mul_rows(field)
        for x, y in zip(points, got):
            expected = 0
            for i, c in enumerate(coeffs):
                power = 1
                for _ in range(i):
                    power = mul[power][x]
                expected ^= mul[c][power]
            assert y == expected

    def test_rejects_bad_inputs(self):
        field = REF_FIELDS[0]
        with pytest.raises(ValueError):
            eval_block(b"", (1,), field)
        with pytest.raises(ValueError):
            eval_block(b"\x01", (0,), field)


class TestInterpolateBlock:
    def test_single_point(self):
        field = REF_FIELDS[5]
        assert interpolate_block((17,), b"\x99", field) == b"\x99"

    @given(
        field_polys,
        st.binary(min_size=1, max_size=8),
        st.binary(min_size=8, max_size=8),
    )
    def test_inverts_eval(self, field, coeffs, point_words):
        points = derive_eval_points(point_words)[: len(coeffs)]
        values = eval_block(coeffs, points, field)
        assert interpolate_block(points, values, field) == coeffs

    def test_duplicate_points_rejected(self):
        field = REF_FIELDS[0]
        with pytest.raises(InterpolationError):
            interpolate_block((5, 5), b"\x01\x02", field)

    def test_zero_point_rejected(self):
        field = REF_FIELDS[0]
        with pytest.raises(InterpolationError):
            interpolate_block((0, 3), b"\x01\x02", field)

    def test_length_mismatch(self):
        field = REF_FIELDS[0]
        with pytest.raises(ValueError):
            interpolate_block((1, 2), b"\x01", field)


class TestKeySplit:
    def test_threshold_one_copies_key(self):
        key = secrets.token_bytes(44)
        for share in split_key(key, SchemeParams(4, 1)):
            assert share == key

    def test_known_coefficient_example(self, monkeypatch):
        # With the random coefficient forced to 0x01 the polynomial is
        # f(x) = 0xAB ^ x, so f(1) = 0xAA and f(2) = 0xA9.
        monkeypatch.setattr("sbshare.shamir.secrets.token_bytes", lambda k: b"\x01" * k)
        shares = split_key(b"\xab", SchemeParams(2, 2))
        assert shares == [b"\xaa", b"\xa9"]

    def test_round_trip_all_subsets(self):
        key = secrets.token_bytes(20)
        for n in range(1, 7):
            for m in range(1, n + 1):
                shares = split_key(key, SchemeParams(n, m))
                assert all(len(s) == len(key) for s in shares)
                for subset in itertools.combinations(enumerate(shares), m):
                    assert recover_key(list(subset)) == key

    @pytest.mark.parametrize("m", [1, 2, 128, 255])
    def test_round_trip_n_255(self, m):
        key = secrets.token_bytes(44)
        pairs = list(enumerate(split_key(key, SchemeParams(255, m))))
        secrets.SystemRandom().shuffle(pairs)
        assert recover_key(pairs[:m]) == key

    def test_matches_scalar_evaluation(self, monkeypatch):
        entropy = secrets.token_bytes(88 * 15)
        monkeypatch.setattr("sbshare.shamir.secrets.token_bytes", lambda k: entropy[:k])
        key = secrets.token_bytes(88)
        shares = split_key(key, SchemeParams(32, 16))
        field = REF_FIELDS[0]
        for i, byte in enumerate(key):
            coeffs = bytes([byte]) + entropy[i * 15 : (i + 1) * 15]
            ys = eval_block(coeffs, range(1, 33), field)
            assert bytes(share[i] for share in shares) == ys

    @pytest.mark.parametrize("k", [1, 2, 3, 16, 255])
    def test_matches_scalar_interpolation_on_arbitrary_pairs(self, k):
        # random key shares at random distinct indices, not a split's: each index set
        # holds 0 or 254 (both once k > 1), whose points 1 and 255 are the range's ends
        rng = random.Random(k)
        field = REF_FIELDS[0]
        for ends in ([0], [254]) if k == 1 else ([0, 254],):
            rest = rng.sample(range(1, 254), k - len(ends))
            indices = rng.sample(ends + rest, k)
            length = 1 if k == 255 else 6  # the oracle's elimination is cubic in k
            shares = [rng.randbytes(length) for _ in indices]
            want = bytes(
                interpolate_block([i + 1 for i in indices], [s[b] for s in shares], field)[0]
                for b in range(length)
            )
            assert recover_key(list(zip(indices, shares))) == want

    def test_extra_shares_ignored_beyond_m(self):
        key = secrets.token_bytes(8)
        shares = split_key(key, SchemeParams(5, 2))
        # every pair given is interpolated: surplus pairs of one split lie on its polynomial
        pairs = list(enumerate(shares))
        assert recover_key(pairs) == key
        assert recover_key(pairs[:0:-1]) == key

