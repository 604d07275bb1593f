"""Serialization tests: round trips, layout, malformed-input handling, and shares in files."""

import dataclasses
import os
import random
import secrets
import struct
import zlib
from contextlib import ExitStack
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbshare.rrsg import Algorithm
from sbshare.scheme import Share, combine, pad, recover_range, split
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
    open_share,
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
        algorithm=draw(st.sampled_from(list(Algorithm))),
    )
    return Share(
        params=params,
        share_index=draw(st.integers(min_value=0, max_value=n - 1)),
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
            params=SchemeParams(n=3, m=2, algorithm=Algorithm.TEST_LCG),
            share_index=0,
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
                key_share=b"",
                payload=b"",
            )
            assert encode_share(share)[5] == expected

    def test_key_share_too_long(self):
        share = Share(
            params=SchemeParams(n=1, m=1),
            share_index=0,
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


class TestParamsCache:
    """Shares decoded from one set hold one SchemeParams object."""

    def test_shares_of_one_split_hold_one_params(self, tmp_path):
        params = SchemeParams(7, 4, FieldPolicy.FIXED_CANONICAL, dual_seed=True)
        blobs = [encode_share(s) for s in split(secrets.token_bytes(50), params)]
        decoded = [decode_share(b) for b in blobs]
        path = tmp_path / "share.sbs1"
        path.write_bytes(blobs[2])
        with open(path, "rb") as file:
            decoded.append(open_share(file))
        assert all(s.params is decoded[0].params for s in decoded)
        assert decoded[0].params == SchemeParams(7, 4, FieldPolicy.FIXED_CANONICAL, True)

    @pytest.mark.parametrize("offset, value", [(6, bytes([2, 3])), (9, b"\x7f")])
    def test_rejected_header_raises_on_every_decode(self, offset, value):
        # m > n, then an unknown algorithm id: a rejected header is never cached
        blob = patched(make_blob(), offset, value)
        for _ in range(2):
            with pytest.raises(HeaderError):
                decode_share(blob)


class TestOpenShare:
    """open_share reads the header and key share and leaves the payload in the file."""

    def test_matches_decode_share(self, tmp_path):
        blob = make_blob()
        path = tmp_path / "share.sbs1"
        path.write_bytes(blob)
        expected = decode_share(blob)
        with open(path, "rb") as file:
            share = open_share(file)
            assert dataclasses.replace(share, payload=b"") == dataclasses.replace(expected, payload=b"")
            assert len(share.payload) == share.block_count == 9
            assert share.payload[2:7] == expected.payload[2:7]
            assert share.payload[:] == expected.payload

    def test_encodes_back_to_the_file(self, tmp_path):
        blob = make_blob()
        path = tmp_path / "share.sbs1"
        path.write_bytes(blob)
        with open(path, "rb") as file:
            assert encode_share(open_share(file)) == blob

    @pytest.mark.parametrize(
        "case",
        [name for name in vars(TestMalformedInputs) if name.startswith("test_")
         and name != "test_error_hierarchy"],  # the one case that decodes nothing
    )
    def test_malformed_file_keeps_the_class_and_names_the_file(self, case, tmp_path, monkeypatch):
        # each TestMalformedInputs case, run with decode_share replaced by a
        # check that opening its data from a file raises the same class,
        # with the path in front of the same message
        path = tmp_path / "share.sbs1"
        direct, calls = decode_share, []

        def through_a_file(data):
            calls.append(data)
            with pytest.raises(FormatError) as want:
                direct(data)
            path.write_bytes(data)
            with open(path, "rb") as file, pytest.raises(FormatError) as got:
                open_share(file)
            assert got.type is want.type
            assert str(got.value) == f"{path}: {want.value}"
            raise got.value

        monkeypatch.setitem(globals(), "decode_share", through_a_file)
        getattr(TestMalformedInputs(), case)()
        assert calls

    def test_file_cut_after_opening_is_named_when_a_read_reaches_the_cut(self, tmp_path):
        # the header matched the file's size when it was opened, so only a
        # payload read that reaches the cut can see it.  Each slice is read
        # with os.pread, so neither case may see the file as it was when
        # opened: the 297-byte message makes 168-byte files that one
        # buffered read would have held whole, and the 60,000-byte message
        # payloads of 20,001 bytes, longer than such a buffer.
        params = SchemeParams(n=5, m=3)
        for size in (60_000, 297):
            message = secrets.token_bytes(size)
            padded = pad(message, params.m)
            paths = []
            for share in split(message, params)[1:4]:
                paths.append(tmp_path / f"{size}.{share.share_index}.sbs1")
                paths[-1].write_bytes(encode_share(share))
            cut = paths[1]
            with ExitStack() as stack:
                shares = [open_share(stack.enter_context(open(p, "rb"))) for p in paths]
                os.truncate(cut, cut.stat().st_size - 3)
                nblocks = shares[0].block_count
                assert nblocks == size // 3 + 1
                assert recover_range(shares, 0, nblocks - 3) == padded[: (nblocks - 3) * 3]
                for op in (lambda: combine(shares), lambda: recover_range(shares, nblocks - 3, 1)):
                    with pytest.raises(TruncatedError) as err:
                        op()
                    assert str(err.value).startswith(f"{cut}: payload ends before block ")

    def test_shares_opened_after_a_read_combine(self, tmp_path):
        # header, key share and payload are each read at their own offset,
        # wherever the file's position stands when it is opened
        params = SchemeParams(n=5, m=3)
        message = secrets.token_bytes(1000)
        paths = []
        for share in split(message, params)[1:4]:
            paths.append(tmp_path / f"msg.{share.share_index}.sbs1")
            paths[-1].write_bytes(encode_share(share))
        with ExitStack() as stack:
            files = [stack.enter_context(open(p, "rb")) for p in paths]
            for file in files:
                assert file.read(3) == MAGIC[:3]
            assert combine([open_share(file) for file in files]) == message

    def test_key_share_cut_after_the_size_was_read_is_named(self, tmp_path, monkeypatch):
        # the header matched the size that fstat gave, but the file ends
        # 2 bytes into its 44-byte key share
        blob = make_blob()
        path = tmp_path / "share.sbs1"
        path.write_bytes(blob[: HEADER_LEN + 2])
        with open(path, "rb") as file:
            monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(blob)))
            with pytest.raises(TruncatedError) as err:
                open_share(file)
            monkeypatch.undo()
        assert str(err.value) == f"{path}: key share ends after 2 of 44 bytes"


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
