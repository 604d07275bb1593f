"""End-to-end pipeline tests, including the scalar reference cross-checks."""

import dataclasses
import hashlib
import itertools
import secrets

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from sbshare._engine import _SLICE_WORDS, EXTRA_WORDS
from sbshare.rrsg import Algorithm
from sbshare.scheme import (
    PaddingError,
    Share,
    ShareSetError,
    combine,
    pad,
    recover_range,
    split,
    unpad,
)
from sbshare.shamir import FieldPolicy, SchemeParams
from sbshare.share_format import encode_share

ALL_MODES = [
    (algorithm, policy, dual)
    for algorithm in (Algorithm.CHACHA20, Algorithm.TEST_LCG)
    for policy in (FieldPolicy.RANDOM_PER_BLOCK, FieldPolicy.FIXED_CANONICAL)
    for dual in (False, True)
]


class TestPadding:
    def test_aligned_message_gets_full_block(self):
        assert pad(b"", 4) == b"\x04\x04\x04\x04"
        assert pad(b"abcd", 4) == b"abcd\x04\x04\x04\x04"

    def test_partial_block(self):
        assert pad(b"abc", 4) == b"abc\x01"
        assert pad(b"a", 4) == b"a\x03\x03\x03"

    @given(st.binary(max_size=600), st.integers(min_value=1, max_value=255))
    def test_round_trip(self, message, m):
        padded = pad(message, m)
        assert len(padded) % m == 0
        assert len(padded) > len(message)
        assert len(padded) - len(message) <= m
        assert unpad(padded, m) == message

    def test_unpad_rejects_malformed(self):
        with pytest.raises(PaddingError):
            unpad(b"", 3)
        with pytest.raises(PaddingError):
            unpad(b"ab", 3)  # not a multiple of m
        with pytest.raises(PaddingError):
            unpad(b"abc\x00", 4)  # pad byte below range
        with pytest.raises(PaddingError):
            unpad(b"abc\x05", 4)  # pad byte above m
        with pytest.raises(PaddingError):
            unpad(b"ab\x01\x02", 4)  # trailing bytes disagree


class TestSplitStructure:
    def test_share_fields(self):
        params = SchemeParams(n=4, m=2)
        shares = split(b"hello", params)
        assert [s.share_index for s in shares] == [0, 1, 2, 3]
        assert all(s.params == params for s in shares)
        assert all(s.params.algorithm == Algorithm.CHACHA20 for s in shares)
        assert all(len(s.key_share) == 44 for s in shares)
        assert len({len(s.payload) for s in shares}) == 1

    def test_dual_seed_key_share_length(self):
        shares = split(b"hello", SchemeParams(n=3, m=2, dual_seed=True))
        assert all(len(s.key_share) == 88 for s in shares)

    def test_empty_message_one_block(self):
        shares = split(b"", SchemeParams(n=3, m=2))
        assert all(len(s.payload) == 1 for s in shares)

    def test_aligned_message_adds_padding_block(self):
        shares = split(b"ab", SchemeParams(n=3, m=2))
        assert all(len(s.payload) == 2 for s in shares)

    def test_payload_length_formula(self):
        for s_len, m in ((0, 1), (1, 1), (10, 3), (12, 3), (257, 5)):
            message = secrets.token_bytes(s_len)
            shares = split(message, SchemeParams(n=m, m=m))
            p = m - (s_len % m)
            assert all(len(sh.payload) == (s_len + p) // m for sh in shares)

    def test_share_index_validation(self):
        params = SchemeParams(n=2, m=2)
        for index in (2, -1):
            with pytest.raises(ValueError):
                Share(params, index, b"", b"")

    def test_share_index_is_an_int(self):
        # a float index would fail only later, slicing in combine or packing in encode_share
        params = SchemeParams(n=2, m=2)
        with pytest.raises(TypeError):
            Share(params, 1.0, bytes(44), b"")
        share = Share(params, np.int64(1), bytes(44), b"")
        assert type(share.share_index) is int and share.share_index == 1


class TestRoundTrip:
    @pytest.mark.parametrize("algorithm,policy,dual", ALL_MODES)
    def test_all_modes(self, algorithm, policy, dual):
        params = SchemeParams(n=4, m=2, field_policy=policy, dual_seed=dual, algorithm=algorithm)
        message = secrets.token_bytes(301)
        shares = split(message, params)
        for subset in itertools.combinations(shares, 2):
            assert combine(list(subset)) == message

    def test_order_insensitive(self):
        message = secrets.token_bytes(77)
        # a message may come in any bytes-like buffer
        for data in (message, bytearray(message), memoryview(message)):
            shares = split(data, SchemeParams(n=5, m=3))
            assert combine([shares[4], shares[0], shares[2]]) == message
            assert combine(list(reversed(shares))) == message

    @given(st.binary(max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_random_messages(self, message):
        shares = split(message, SchemeParams(n=3, m=2))
        assert combine(shares[1:]) == message


class TestReferencePipeline:
    """The vectorized engine must agree with the scalar per-block route."""

    @pytest.mark.parametrize("algorithm,policy,dual", ALL_MODES)
    def test_split_matches_scalar_reference(self, algorithm, policy, dual):
        params = SchemeParams(n=5, m=3, field_policy=policy, dual_seed=dual, algorithm=algorithm)
        message = secrets.token_bytes(200)
        shares = split(message, params)
        key_material = helpers.recovered_key_material(shares)
        expected = helpers.reference_payloads(key_material, params, pad(message, params.m))
        assert [s.payload for s in shares] == expected

    @pytest.mark.parametrize("algorithm,policy,dual", ALL_MODES)
    def test_combine_matches_scalar_reference(self, algorithm, policy, dual):
        params = SchemeParams(n=4, m=3, field_policy=policy, dual_seed=dual, algorithm=algorithm)
        message = secrets.token_bytes(149)
        shares = split(message, params)
        subset = [shares[3], shares[1], shares[0]]
        assert helpers.reference_padded(subset) == pad(message, params.m)
        assert combine(subset) == message

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (6, 6), (9, 4), (32, 16), (40, 2)])
    @pytest.mark.parametrize("algorithm,policy,dual", ALL_MODES)
    def test_combine_and_range_match_scalar_reference(self, algorithm, policy, dual, n, m):
        params = SchemeParams(n=n, m=m, field_policy=policy, dual_seed=dual, algorithm=algorithm)
        message = secrets.token_bytes(97)
        shares = split(message, params)
        subset = secrets.SystemRandom().sample(shares, m)
        expected = helpers.reference_padded(subset)
        assert expected == pad(message, m)
        assert combine(subset) == message
        nblocks = len(expected) // m
        for start, count in ((0, nblocks), (nblocks - 1, 1), (nblocks // 3, nblocks // 2)):
            got = recover_range(subset, start, count)
            assert got == expected[start * m : (start + count) * m]

    def test_wide_parameter_sample(self):
        for n, m in ((1, 1), (2, 1), (6, 6), (9, 4), (40, 2)):
            params = SchemeParams(n=n, m=m)
            message = secrets.token_bytes(97)
            shares = split(message, params)
            key_material = helpers.recovered_key_material(shares)
            expected = helpers.reference_payloads(key_material, params, pad(message, m))
            assert [s.payload for s in shares] == expected


class TestSliceSeams:
    """Whole pipelines over messages that run past the engine's slice seams."""

    @pytest.mark.parametrize("n,m", [(5, 3), (32, 16)])
    def test_combine_and_ranges_across_seams(self, n, m):
        step = _SLICE_WORDS // m
        nblocks = 2 * step + 5
        params = SchemeParams(n=n, m=m, dual_seed=True)
        message = secrets.token_bytes(nblocks * m - 1)
        shares = split(message, params)
        assert shares[0].block_count == nblocks
        subset = secrets.SystemRandom().sample(shares, m)
        while sorted(s.share_index for s in subset) == list(range(m)):
            subset = secrets.SystemRandom().sample(shares, m)
        assert combine(subset) == message
        padded = pad(message, m)
        for start, count in ((step - 3, 7), (1, nblocks - 2), (2 * step - 1, 3)):
            got = recover_range(subset, start, count)
            assert got == padded[start * m : (start + count) * m]


#: SHA-256 over the encoded shares, a combine and a range read of every
#: configuration of TestKnownAnswer, with its fixed entropy stream.
KNOWN_ANSWER_SHA256 = "b2635fb5cd65524a5ddea975422ea759106c82dfdb53cc87953ad80e99d39ba6"


class TestKnownAnswer:
    """Shares and recovered bytes are pinned for fixed entropy.

    Block counts end one before, on or one after the second slice seam
    of the evaluation (2 * (2^15 // n) blocks) and the first of the
    interpolation (2^15 // m blocks) at the engine's 2^15-word slices,
    so a change of slicing or array layout that alters a single share
    or recovered byte fails here.
    """

    def test_shares_combine_and_range(self, monkeypatch):
        calls = itertools.count()
        monkeypatch.setattr(
            secrets,
            "token_bytes",
            lambda k: hashlib.shake_256(b"sbshare known answer %d" % next(calls)).digest(k),
        )
        digest = hashlib.sha256()
        for n, m in ((1, 1), (5, 3), (32, 16), (255, 128)):
            for k, (algorithm, policy, dual) in enumerate(ALL_MODES):
                params = SchemeParams(
                    n=n, m=m, field_policy=policy, dual_seed=dual, algorithm=algorithm
                )
                offset = k % 3 - 1
                seams = {2 * ((1 << 15) // n), (1 << 15) // m}
                for nblocks in sorted(seam + offset for seam in seams):
                    message = secrets.token_bytes(nblocks * m - 1)
                    shares = split(message, params)
                    subset = (shares[1::2] + shares[::2])[:m]
                    recovered = combine(subset)
                    assert recovered == message
                    for share in shares:
                        digest.update(encode_share(share))
                    digest.update(recovered)
                    digest.update(recover_range(subset, nblocks // 3, nblocks // 2))
        assert digest.hexdigest() == KNOWN_ANSWER_SHA256


class TestShareSetValidation:
    def test_below_threshold(self):
        shares = split(b"secret", SchemeParams(n=5, m=3))
        with pytest.raises(ShareSetError):
            combine(shares[:2])
        with pytest.raises(ShareSetError):
            combine([])

    def test_duplicate_indices(self):
        shares = split(b"secret", SchemeParams(n=3, m=2))
        with pytest.raises(ShareSetError):
            combine([shares[0], shares[0]])

    def test_mixed_parameters(self):
        a = split(b"secret", SchemeParams(n=3, m=2))
        b = split(b"secret", SchemeParams(n=3, m=2, dual_seed=True))
        with pytest.raises(ShareSetError):
            combine([a[0], b[1]])

    def test_mixed_algorithms(self):
        a = split(b"secret", SchemeParams(n=3, m=2))
        b = split(b"secret", SchemeParams(n=3, m=2, algorithm=Algorithm.TEST_LCG))
        with pytest.raises(ShareSetError):
            combine([a[0], b[1]])

    def test_mixed_payload_lengths(self):
        a = split(b"short", SchemeParams(n=3, m=2))
        b = split(b"a much longer message body", SchemeParams(n=3, m=2))
        with pytest.raises(ShareSetError):
            combine([a[0], b[1]])

    @pytest.mark.parametrize("dual, key_len", [(True, 44), (False, 88)])
    def test_key_share_length_must_match_seeds(self, dual, key_len):
        # one seed's key shares in a dual-seed set, or two seeds' in a single-seed one
        shares = split(b"secret", SchemeParams(n=3, m=2, dual_seed=dual))
        wrong = [dataclasses.replace(s, key_share=s.key_share[:key_len].ljust(key_len, b"\0")) for s in shares]
        with pytest.raises(ShareSetError, match="key share length"):
            combine(wrong)
        with pytest.raises(ShareSetError, match="key share length"):
            recover_range(wrong, 0, 1)
        # one share of the wrong length among right ones
        with pytest.raises(ShareSetError, match="key share length"):
            combine([shares[0], wrong[1]])

    def test_mixed_splits_do_not_recover(self):
        # There is no integrity protection: combining shares of two
        # different splits of equal shape either trips the padding check
        # or yields bytes unrelated to the original message.
        message = secrets.token_bytes(50)
        a = split(message, SchemeParams(n=3, m=2))
        b = split(message, SchemeParams(n=3, m=2))
        try:
            out = combine([a[0], b[1]])
        except PaddingError:
            pass
        else:
            assert out != message

    def test_tampered_key_share_detected_or_garbage(self):
        message = secrets.token_bytes(50)
        shares = split(message, SchemeParams(n=3, m=2))
        bad = Share(
            shares[0].params,
            shares[0].share_index,
            bytes(44),
            shares[0].payload,
        )
        try:
            out = combine([bad, shares[1]])
        except PaddingError:
            pass
        else:
            assert out != message


class TestRecoverRange:
    def test_full_range_is_padded_plaintext(self):
        message = secrets.token_bytes(100)
        params = SchemeParams(n=4, m=3)
        shares = split(message, params)
        padded = pad(message, 3)
        assert recover_range(shares, 0, len(padded) // 3) == padded

    def test_middle_block(self):
        message = secrets.token_bytes(30)
        params = SchemeParams(n=3, m=3)
        shares = split(message, params)
        padded = pad(message, 3)
        assert recover_range(shares, 1, 1) == padded[3:6]

    @pytest.mark.parametrize("algorithm,policy,dual", ALL_MODES)
    def test_every_single_block_matches(self, algorithm, policy, dual):
        # Stride invariant: per-block seek recovery equals the full pass.
        params = SchemeParams(n=4, m=2, field_policy=policy, dual_seed=dual, algorithm=algorithm)
        message = secrets.token_bytes(41)
        shares = split(message, params)
        padded = pad(message, 2)
        for k in range(len(padded) // 2):
            assert recover_range(shares[1:3], k, 1) == padded[2 * k : 2 * k + 2]

    def test_zero_count(self):
        shares = split(b"data", SchemeParams(n=3, m=2))
        assert recover_range(shares, 1, 0) == b""

    def test_out_of_range_rejected(self):
        shares = split(b"0123456789", SchemeParams(n=3, m=2))
        blocks = len(shares[0].payload)
        with pytest.raises(ValueError):
            recover_range(shares, blocks, 1)
        with pytest.raises(ValueError):
            recover_range(shares, 0, blocks + 1)
        with pytest.raises(ValueError):
            recover_range(shares, -1, 1)


class TestPayloadUniformity:
    def test_chi_square_on_payload_bytes(self):
        message = secrets.token_bytes(120_000)
        shares = split(message, SchemeParams(n=3, m=3))
        blob = b"".join(s.payload for s in shares)
        assert len(blob) >= 100_000
        assert helpers.chi_square_256(blob) < helpers.CHI2_THRESHOLD_255_P999


class TestConsistencyCounts:
    def test_single_seed_counts_equal(self):
        # m=2, fixed field, one observed word: every plaintext pair is
        # explained by exactly 256*255 (r0, r1, x) assignments.
        message = bytes([0x42, 0x24])
        params = SchemeParams(n=2, m=2, field_policy=FieldPolicy.FIXED_CANONICAL)
        shares = split(message, params)
        y_obs = shares[0].payload[0]
        field = helpers.REF_FIELDS[0]
        counts = {
            helpers.single_seed_consistency_count(field, y_obs, d0, d1)
            for d0, d1 in [(0x42, 0x24), (0, 0), (255, 255), (7, 200)]
        }
        assert counts == {256 * 255}

    def test_dual_seed_counts_equal(self):
        counts, expected = helpers.dual_seed_counts(pairs=4)
        assert len(set(counts)) == 1
        assert counts[0] == expected
