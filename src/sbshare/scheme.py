"""Top-level split and combine operations.

A message is padded to a whole number of m-word blocks, each block is
masked with keystream words and treated as the coefficient vector of a
degree m-1 polynomial, and share i stores that polynomial's value at
the i-th derived point of every block.  The keystream words come from
one seed, or with dual_seed two, read together as the op's one stream
of params.algorithm.  The seeds are themselves split with a classic
per-word threshold scheme and one key share travels with each data
share, so any m shares first rebuild the seeds, then replay the
randomness, then invert the blocks.

Each direction has one chunk walk: split_stream takes the message a
chunk at a time from a caller's read function, recover_stream slices the
share payloads a chunk at a time, and each yields each chunk's output.
split, combine and recover_range are those walks run over data in
memory, with the chunks' outputs joined.
"""

import operator
from dataclasses import dataclass

from . import _engine
from .rrsg import SEED_LEN, RrsgStream, Seed, check_capacity, new_stream
from .shamir import SchemeParams, recover_key, split_key


class PaddingError(ValueError):
    """Recovered plaintext does not end in well-formed padding."""


class ShareSetError(ValueError):
    """The presented shares cannot be combined."""


@dataclass(frozen=True)
class Share:
    """One participant's share: metadata, key share, and payload column.

    The payload is a buffer, or with share_format.open_share one left in
    its file, read a slice at a time.
    """

    params: SchemeParams
    share_index: int
    key_share: bytes
    payload: bytes

    def __post_init__(self):
        object.__setattr__(self, "share_index", operator.index(self.share_index))
        if not 0 <= self.share_index < self.params.n:
            raise ValueError("share_index out of range for params")

    @property
    def block_count(self) -> int:
        return len(self.payload)


def pad(message: bytes, m: int) -> bytes:
    """Append 1..m bytes of value p so the result is a multiple of m."""
    p = m - (len(message) % m)
    return bytes(message) + bytes([p]) * p


def unpad(padded: bytes, m: int) -> bytes:
    if not padded or len(padded) % m:
        raise PaddingError("padded length is not a positive multiple of m")
    p = padded[-1]
    if not 1 <= p <= m:
        raise PaddingError("padding byte out of range")
    if padded[-p:] != bytes([p]) * p:
        raise PaddingError("padding bytes disagree")
    return padded[:-p]


def padded_blocks(size: int, m: int) -> int:
    """Blocks of m words in a size-byte message once padded."""
    return size // m + 1


def _open_stream(params: SchemeParams, key_material: bytes, nblocks: int) -> RrsgStream:
    """The op's one stream over its seeds, once it is known to hold its first nblocks blocks."""
    widths = _engine.stream_widths(params)
    check_capacity(params.algorithm, nblocks, widths)
    offsets = range(0, len(key_material), SEED_LEN)
    seeds = [Seed.from_bytes(key_material[i : i + SEED_LEN]) for i in offsets]
    return new_stream(seeds, params.algorithm, widths)


def split(message: bytes, params: SchemeParams) -> list[Share]:
    """Split message into params.n shares, any params.m of which recover it.

    message may be any contiguous buffer; its bytes are read in place.
    """
    view = memoryview(message).cast("B")
    end = 0

    def read(k: int) -> memoryview:  # no copy: only the padded last chunk is copied, by pad
        nonlocal end
        end += k
        return view[end - k : end]

    key_shares, chunks = split_stream(read, len(view), params)
    payloads = list(zip(*chunks))  # share i's rows, one per chunk
    for i, rows in enumerate(payloads):  # one share at a time, so its rows go as it is joined
        payloads[i] = b"".join(rows)
    return [Share(params, i, key_shares[i], payloads[i]) for i in range(params.n)]


def split_stream(read, size: int, params: SchemeParams):
    """split for a size-byte message that read(k) returns k bytes at a time.

    Returns the n key shares and an iterator over the payloads, one
    chunk at a time: a list of n rows, row i continuing share i's
    payload.  Payloads hold padded_blocks(size, params.m) words.  A
    message too long for the keystream raises ValueError here, before
    any word is read; one that ends before or runs past size bytes
    raises OSError on the chunk where that shows.
    """
    m = params.m
    nblocks = padded_blocks(size, m)
    key_material = b"".join(Seed.generate().to_bytes() for _ in _engine.stream_widths(params))
    stream = _open_stream(params, key_material, nblocks)

    def chunks():
        for start, count in _engine.chunks(params, 0, nblocks):
            want = min(count * m, size - start * m)
            data = read(want)
            # the last chunk, and only it, ends in padding
            if len(data) != want or (want < count * m and read(1)):
                raise OSError(f"input is not {size} bytes long; did it change while being split?")
            padded = data if want == count * m else pad(data, m)
            yield _engine.split_payloads(padded, params, stream, start)

    return split_key(key_material, params), chunks()


def _validate_set(shares: list) -> list:
    """Check a recovery set and return its first m shares by index.

    Reads only the metadata of each share and its block_count, so it
    serves shares whose payloads are still in files.
    """
    if not shares:
        raise ShareSetError("no shares given")
    first = shares[0]
    params = first.params
    key_len = SEED_LEN * len(_engine.stream_widths(params))
    for s in shares:
        # decoded shares of one set hold one params object: identity settles most sets
        if s.params is not params and s.params != params:
            raise ShareSetError("shares disagree on scheme parameters")
        if s.block_count != first.block_count:
            raise ShareSetError("shares disagree on payload length")
        if len(s.key_share) != key_len:
            raise ShareSetError("key share length does not match parameters")
    if not first.block_count:
        raise ShareSetError("shares carry no payload blocks")
    indices = [s.share_index for s in shares]
    if len(set(indices)) != len(indices):
        raise ShareSetError("duplicate share indices")
    if len(shares) < params.m:
        raise ShareSetError(
            f"need at least {params.m} shares, got {len(shares)}"
        )
    return sorted(shares, key=lambda s: s.share_index)[: params.m]


def recover_range(shares: list[Share], block_start: int, block_count: int) -> bytes:
    """Recover block_count blocks of padded plaintext starting at block_start.

    Returns raw block bytes; padding is not stripped, so the caller sees
    exactly block_count * m bytes regardless of where the range falls.
    """
    return b"".join(recover_stream(shares, (block_start, block_count)))


def combine(shares: list[Share]) -> bytes:
    """Recover the original message from any m or more consistent shares."""
    return b"".join(recover_stream(shares))


def recover_stream(shares: list[Share], block_range: tuple[int, int] | None = None):
    """combine, or with block_range (start, count) recover_range, one chunk at a time.

    Each chosen share's payload is sliced once per chunk, so a payload
    left in its file by share_format.open_share is read a chunk at a
    time.  The set and the range are checked here; the returned iterator
    yields each chunk's plaintext as a buffer of its own.  Without a
    range, the padding is checked and stripped on the last chunk.
    """
    chosen = _validate_set(shares)
    params, total = chosen[0].params, chosen[0].block_count
    block_start, block_count = (0, total) if block_range is None else block_range
    if block_start < 0 or block_count < 0 or block_start + block_count > total:
        raise ValueError("block range outside the share payload")
    key_material = recover_key([(s.share_index, s.key_share) for s in chosen])
    stream = _open_stream(params, key_material, block_start + block_count)
    indices = [s.share_index for s in chosen]
    # slices of a view are not copies; a payload left in its file reads its slices
    payloads = [s.payload for s in chosen]
    payloads = [memoryview(p) if isinstance(p, (bytes, bytearray)) else p for p in payloads]

    def chunks():
        for start, count in _engine.chunks(params, block_start, block_count):
            rows = [p[start : start + count] for p in payloads]
            blocks = _engine.recover_padded(rows, indices, params, stream, start)
            if block_range is None and start + count == total:
                yield unpad(blocks.tobytes(), params.m)
            else:
                yield blocks

    return chunks()
