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

This module is the only one that reads or writes the layout.
encode_share and decode_share convert a whole share; encode_header
gives the bytes before a payload, for a writer that appends the payload
itself; open_share reads a share from an open file and leaves its
payload there, to be read a slice at a time.
"""

import functools
import os
import struct
import zlib
from typing import BinaryIO

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


def encode_header(params: SchemeParams, share_index: int, key_share: bytes, payload_len: int) -> bytes:
    """The bytes before a payload_len-byte payload: the header, then the key share."""
    if len(key_share) > 0xFFFF:
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
        share_index,
        int(params.algorithm),
        len(key_share),
        payload_len,
    )
    return packed + struct.pack(">I", zlib.crc32(packed)) + key_share


@functools.lru_cache(maxsize=32)
def _params(n: int, m: int, flags: int, alg: int) -> SchemeParams:
    """The params that a header's fields give, one object for every share of a set.

    lru_cache stores no exception, so a header that SchemeParams rejects
    raises again on every call.
    """
    policy = FieldPolicy.FIXED_CANONICAL if flags & _FLAG_FIXED_FIELD else FieldPolicy.RANDOM_PER_BLOCK
    return SchemeParams(n, m, policy, bool(flags & _FLAG_DUAL_SEED), alg)


def _decode_header(data: bytes, size: int) -> tuple[SchemeParams, int, int]:
    """Check the header at the start of size bytes of .sbs1 data.

    Returns its params, share index and key share length.
    """
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
    try:
        params = _params(n, m, flags, alg)
    except ValueError as exc:
        raise HeaderError(str(exc)) from None
    if index >= n:
        raise HeaderError(f"share_index {index} out of range for n={n}")
    expected = HEADER_LEN + key_len + payload_len
    if size < expected:
        raise TruncatedError(f"declared {expected} bytes, got {size}")
    if size > expected:
        raise FormatError(f"{size - expected} trailing bytes after payload")
    return params, index, key_len


def encode_share(share: Share) -> bytes:
    head = encode_header(share.params, share.share_index, share.key_share, len(share.payload))
    return head + share.payload[:]  # a payload left in its file is read here; bytes stay as they are


def decode_share(data: bytes) -> Share:
    params, index, key_len = _decode_header(data, len(data))
    body = HEADER_LEN + key_len
    return Share(params, index, bytes(data[HEADER_LEN:body]), bytes(data[body:]))


class _FilePayload:
    """A payload left in its open file: len() is its length, and a slice reads it from the file.

    A slice is read with os.pread, past the file object's buffer, so a
    file cut after it was opened is seen by the first read that reaches
    the cut.
    """

    def __init__(self, file: BinaryIO, offset: int, length: int):
        self.file, self.offset, self.length = file, offset, length

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, blocks: slice) -> bytes:
        start, stop, _ = blocks.indices(self.length)
        parts, at, end = [], self.offset + start, self.offset + stop
        while at < end:
            data = os.pread(self.file.fileno(), end - at, at)
            if not data:
                raise TruncatedError(f"{self.file.name}: payload ends before block {stop}")
            parts.append(data)
            at += len(data)
        return b"".join(parts)


def open_share(file: BinaryIO) -> Share:
    """The share in an open .sbs1 file, read from its start; the payload stays in the file.

    The header is checked against the file's size and the key share is
    read, both with os.pread at their offsets, so the file's position
    does not matter.  The payload is read a slice at a time, so the file
    must stay open while the share is used.  A FormatError, here or from
    a read that comes up short, keeps its class and names the file.
    """
    fd = file.fileno()
    size = os.fstat(fd).st_size
    try:
        params, index, key_len = _decode_header(os.pread(fd, HEADER_LEN, 0), size)
    except FormatError as exc:
        raise type(exc)(f"{file.name}: {exc}") from exc
    key_share = os.pread(fd, key_len, HEADER_LEN)
    if len(key_share) != key_len:
        raise TruncatedError(f"{file.name}: key share ends after {len(key_share)} of {key_len} bytes")
    body = HEADER_LEN + key_len  # the header check makes size - body its payload length
    return Share(params, index, key_share, _FilePayload(file, body, size - body))
