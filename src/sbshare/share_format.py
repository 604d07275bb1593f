"""Serialization of shares to the .sbs1 container.

Layout (all integers big-endian):

    offset 0   magic "SBS1"
    offset 4   version (0x01)
    offset 5   flags: bit0 dual_seed, bit1 fixed canonical field
    offset 6   n
    offset 7   m
    offset 8   share_index
    offset 9   rrsg algorithm id
    offset 10  key_share length (u16)
    offset 12  payload length (u64)
    offset 20  CRC32 of bytes 0..19 (IEEE polynomial, reflected)
    offset 24  key_share bytes, then payload bytes

The CRC covers only the header: it flags accidental corruption for
diagnostics and implies nothing about integrity of the body.
encode_header and decode_header are the one header codec: the share
codecs use them, and so does the CLI, which streams payloads to and
from files around them.
"""

import struct
import zlib
from typing import NamedTuple

from .rrsg import Algorithm
from .scheme import Share
from .shamir import FieldPolicy, SchemeParams

MAGIC = b"SBS1"
VERSION = 1
HEADER_LEN = 24

_FLAG_DUAL_SEED = 0x01
_FLAG_FIXED_FIELD = 0x02
_KNOWN_FLAGS = _FLAG_DUAL_SEED | _FLAG_FIXED_FIELD

_HEADER = struct.Struct(">4sBBBBBBHQ")


class FormatError(ValueError):
    """Base class for malformed .sbs1 data."""


class BadMagicError(FormatError):
    """Data does not start with the SBS1 magic."""


class VersionError(FormatError):
    """Unsupported format version."""


class ChecksumError(FormatError):
    """Header CRC32 mismatch."""


class TruncatedError(FormatError):
    """Data ends before the declared header or body does."""


class HeaderError(FormatError):
    """Header fields are internally inconsistent."""


class Header(NamedTuple):
    """The fields of a .sbs1 header: a share's metadata and its two lengths."""

    params: SchemeParams
    share_index: int
    rrsg_algorithm: Algorithm
    key_len: int
    payload_len: int


def encode_header(head: Header) -> bytes:
    """The HEADER_LEN bytes that start a share's .sbs1 data."""
    params = head.params
    if head.key_len > 0xFFFF:
        raise FormatError("key share too long for u16 length field")
    flags = 0
    if params.dual_seed:
        flags |= _FLAG_DUAL_SEED
    if params.field_policy == FieldPolicy.FIXED_CANONICAL:
        flags |= _FLAG_FIXED_FIELD
    packed = _HEADER.pack(
        MAGIC,
        VERSION,
        flags,
        params.n,
        params.m,
        head.share_index,
        int(head.rrsg_algorithm),
        head.key_len,
        head.payload_len,
    )
    return packed + struct.pack(">I", zlib.crc32(packed))


def decode_header(data: bytes, size: int) -> Header:
    """Parse the header at the start of data, the first bytes of size bytes of .sbs1 data."""
    if len(data) < HEADER_LEN:
        raise TruncatedError(f"need at least {HEADER_LEN} bytes, got {len(data)}")
    if data[:4] != MAGIC:
        raise BadMagicError("bad magic")
    (stored_crc,) = struct.unpack_from(">I", data, 20)
    if stored_crc != zlib.crc32(data[:20]):
        raise ChecksumError("header CRC32 mismatch")
    magic, version, flags, n, m, index, alg, key_len, payload_len = _HEADER.unpack_from(
        data
    )
    if version != VERSION:
        raise VersionError(f"unsupported version {version}")
    if flags & ~_KNOWN_FLAGS:
        raise HeaderError(f"unknown flag bits 0x{flags:02x}")
    if not 1 <= m <= n:
        raise HeaderError(f"invalid threshold m={m} for n={n}")
    if index >= n:
        raise HeaderError(f"share_index {index} out of range for n={n}")
    try:
        algorithm = Algorithm(alg)
    except ValueError:
        raise HeaderError(f"unknown rrsg algorithm id {alg}") from None
    expected = HEADER_LEN + key_len + payload_len
    if size < expected:
        raise TruncatedError(f"declared {expected} bytes, got {size}")
    if size > expected:
        raise FormatError(f"{size - expected} trailing bytes after payload")
    policy = (
        FieldPolicy.FIXED_CANONICAL
        if flags & _FLAG_FIXED_FIELD
        else FieldPolicy.RANDOM_PER_BLOCK
    )
    params = SchemeParams(
        n=n, m=m, field_policy=policy, dual_seed=bool(flags & _FLAG_DUAL_SEED)
    )
    return Header(params, index, algorithm, key_len, payload_len)


def encode_share(share: Share) -> bytes:
    key_len, payload_len = len(share.key_share), len(share.payload)
    head = Header(share.params, share.share_index, share.rrsg_algorithm, key_len, payload_len)
    return encode_header(head) + share.key_share + share.payload


def decode_share(data: bytes) -> Share:
    head = decode_header(data, len(data))
    return Share(
        params=head.params,
        share_index=head.share_index,
        rrsg_algorithm=head.rrsg_algorithm,
        key_share=bytes(data[HEADER_LEN : HEADER_LEN + head.key_len]),
        payload=bytes(data[HEADER_LEN + head.key_len :]),
    )
