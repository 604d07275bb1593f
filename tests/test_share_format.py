"""Serialization tests: round trips, layout, and malformed-input handling."""

import random
import secrets
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbshare.rrsg import Algorithm
from sbshare.scheme import Share
from sbshare.shamir import FieldPolicy, SchemeParams
from sbshare.share_format import (
    HEADER_LEN,
    MAGIC,
    BadMagicError,
    ChecksumError,
    FormatError,
    HeaderError,
    TruncatedError,
    VersionError,
    decode_share,
    encode_share,
)


@st.composite
def shares(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=n))
    params = SchemeParams(
        n=n,
        m=m,
        field_policy=draw(st.sampled_from(list(FieldPolicy))),
        dual_seed=draw(st.booleans()),
    )
    return Share(
        params=params,
        share_index=draw(st.integers(min_value=0, max_value=n - 1)),
        rrsg_algorithm=draw(st.sampled_from(list(Algorithm))),
        key_share=draw(st.binary(max_size=100)),
        payload=draw(st.binary(max_size=200)),
    )


def patched(blob: bytes, offset: int, value: bytes, fix_crc: bool = True) -> bytes:
    """Rewrite header bytes and, by default, recompute the CRC to match."""
    data = bytearray(blob)
    data[offset : offset + len(value)] = value
    if fix_crc:
        data[20:24] = struct.pack(">I", zlib.crc32(bytes(data[:20])))
    return bytes(data)


def make_blob() -> bytes:
    share = Share(
        params=SchemeParams(n=5, m=3),
        share_index=1,
        rrsg_algorithm=Algorithm.CHACHA20,
        key_share=secrets.token_bytes(44),
        payload=secrets.token_bytes(9),
    )
    return encode_share(share)


class TestRoundTrip:
    @given(shares())
    def test_identity(self, share):
        assert decode_share(encode_share(share)) == share

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_buffer_inputs_decode_to_bytes_fields(self, wrap):
        blob = make_blob()
        share = decode_share(wrap(blob))
        assert share == decode_share(blob)
        assert type(share.key_share) is bytes and type(share.payload) is bytes

    def test_total_length(self):
        blob = make_blob()
        assert len(blob) == HEADER_LEN + 44 + 9

    def test_header_field_bytes(self):
        share = Share(
            params=SchemeParams(n=3, m=2),
            share_index=0,
            rrsg_algorithm=Algorithm.TEST_LCG,
            key_share=b"",
            payload=b"",
        )
        blob = encode_share(share)
        assert blob[:4] == MAGIC
        assert blob[4] == 1
        assert blob[6:10] == bytes([3, 2, 0, 1])

    def test_declared_lengths_match_actual(self):
        blob = make_blob()
        key_len = struct.unpack_from(">H", blob, 10)[0]
        payload_len = struct.unpack_from(">Q", blob, 12)[0]
        assert key_len == 44
        assert payload_len == 9

    def test_flag_bits(self):
        for dual, fixed, expected in (
            (False, False, 0x00),
            (True, False, 0x01),
            (False, True, 0x02),
            (True, True, 0x03),
        ):
            share = Share(
                params=SchemeParams(
                    n=2,
                    m=1,
                    field_policy=FieldPolicy.FIXED_CANONICAL if fixed else FieldPolicy.RANDOM_PER_BLOCK,
                    dual_seed=dual,
                ),
                share_index=0,
                rrsg_algorithm=Algorithm.CHACHA20,
                key_share=b"",
                payload=b"",
            )
            assert encode_share(share)[5] == expected

    def test_key_share_too_long(self):
        share = Share(
            params=SchemeParams(n=1, m=1),
            share_index=0,
            rrsg_algorithm=Algorithm.CHACHA20,
            key_share=bytes(0x10000),
            payload=b"",
        )
        with pytest.raises(FormatError):
            encode_share(share)


class TestMalformedInputs:
    def test_short_input(self):
        with pytest.raises(TruncatedError):
            decode_share(b"")
        with pytest.raises(TruncatedError):
            decode_share(make_blob()[:23])

    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            decode_share(patched(make_blob(), 0, b"XBS1", fix_crc=False))

    def test_flipped_header_bit(self):
        blob = bytearray(make_blob())
        blob[7] ^= 0x04
        with pytest.raises(ChecksumError):
            decode_share(bytes(blob))

    def test_corrupt_crc_itself(self):
        blob = bytearray(make_blob())
        blob[21] ^= 0xFF
        with pytest.raises(ChecksumError):
            decode_share(bytes(blob))

    def test_unsupported_version(self):
        with pytest.raises(VersionError):
            decode_share(patched(make_blob(), 4, b"\x02"))

    def test_unknown_flags(self):
        with pytest.raises(HeaderError):
            decode_share(patched(make_blob(), 5, b"\x80"))

    def test_m_greater_than_n(self):
        with pytest.raises(HeaderError):
            decode_share(patched(make_blob(), 6, bytes([2, 3])))

    def test_zero_m(self):
        with pytest.raises(HeaderError):
            decode_share(patched(make_blob(), 7, b"\x00"))

    def test_index_out_of_range(self):
        with pytest.raises(HeaderError):
            decode_share(patched(make_blob(), 8, b"\x05"))

    def test_unknown_algorithm(self):
        with pytest.raises(HeaderError):
            decode_share(patched(make_blob(), 9, b"\x7f"))

    def test_truncated_body(self):
        with pytest.raises(TruncatedError):
            decode_share(make_blob()[:-1])

    def test_trailing_bytes(self):
        with pytest.raises(FormatError):
            decode_share(make_blob() + b"\x00")

    def test_error_hierarchy(self):
        for cls in (BadMagicError, ChecksumError, VersionError, TruncatedError, HeaderError):
            assert issubclass(cls, FormatError)
        assert issubclass(FormatError, ValueError)

    def test_crc_checked_before_semantics(self):
        # A wild m byte without a matching CRC must read as corruption,
        # not as a semantic header problem.
        with pytest.raises(ChecksumError):
            decode_share(patched(make_blob(), 7, b"\xff", fix_crc=False))


class TestQuickFuzz:
    def test_random_and_mutated_inputs(self):
        # Short deterministic sweep; the long wall-clock fuzz lives in
        # the acceptance suite.
        rng = random.Random(20260814)
        base = make_blob()
        for i in range(3000):
            choice = rng.randrange(3)
            if choice == 0:
                data = rng.randbytes(rng.randrange(0, 120))
            elif choice == 1:
                data = bytearray(base)
                for _ in range(rng.randrange(1, 6)):
                    data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
                data = bytes(data)
            else:
                cut = rng.randrange(len(base) + 20)
                data = (base + rng.randbytes(20))[:cut]
            try:
                share = decode_share(data)
            except FormatError:
                continue
            assert decode_share(encode_share(share)) == share
