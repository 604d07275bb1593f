"""Top-level split and combine operations.

A message is padded to a whole number of m-word blocks, each block is
masked with keystream words and treated as the coefficient vector of a
degree m-1 polynomial, and share i stores that polynomial's value at
the i-th derived point of every block.  The seed material that drives
the keystream is itself split with a classic per-word threshold scheme
and one key share travels with each data share, so any m shares first
rebuild the seed, then replay the randomness, then invert the blocks.
split, combine and recover_range take and return whole messages;
split_stream and recover_stream run the same chunk loop over data that
a caller reads and writes a chunk at a time.
"""

from dataclasses import dataclass

from . import _engine
from .rrsg import SEED_LEN, Algorithm, RrsgStream, Seed, check_capacity, new_stream
from .shamir import SchemeParams, recover_key, split_key


class PaddingError(ValueError):
    """Recovered plaintext does not end in well-formed padding."""


class ShareSetError(ValueError):
    """The presented shares cannot be combined."""


@dataclass(frozen=True)
class Share:
    """One participant's share: metadata, key share, and payload column."""

    params: SchemeParams
    share_index: int
    rrsg_algorithm: Algorithm
    key_share: bytes
    payload: bytes

    def __post_init__(self):
        if not 0 <= self.share_index < self.params.n:
            raise ValueError("share_index out of range for params")
        object.__setattr__(self, "rrsg_algorithm", Algorithm(self.rrsg_algorithm))

    @property
    def block_count(self) -> int:
        return len(self.payload)


def pad(message: bytes, m: int) -> bytes:
    """Append 1..m bytes of value p so the result is a multiple of m."""
    p = m - (len(message) % m)
    return message + bytes([p]) * p


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


def _seed_count(params: SchemeParams) -> int:
    return 2 if params.dual_seed else 1


def _open_streams(
    params: SchemeParams, key_material: bytes, algorithm: Algorithm, nblocks: int
) -> tuple[RrsgStream, RrsgStream | None]:
    """The op's streams, once they are known to hold its first nblocks blocks."""
    check_capacity(algorithm, nblocks, _engine.stream_widths(params))
    main = new_stream(Seed.from_bytes(key_material[:SEED_LEN]), algorithm)
    if not params.dual_seed:
        return main, None
    aux = new_stream(Seed.from_bytes(key_material[SEED_LEN:]), algorithm)
    return main, aux


def _start_split(
    params: SchemeParams, algorithm: Algorithm, nblocks: int
) -> tuple[list[bytes], RrsgStream, RrsgStream | None]:
    """Key shares of fresh seeds, and their streams for nblocks blocks."""
    seeds = [Seed.generate() for _ in range(_seed_count(params))]
    key_material = b"".join(s.to_bytes() for s in seeds)
    main, aux = _open_streams(params, key_material, algorithm, nblocks)
    return split_key(key_material, params.n, params.m), main, aux


def split(
    message: bytes,
    params: SchemeParams,
    *,
    algorithm: Algorithm = Algorithm.CHACHA20,
) -> list[Share]:
    """Split message into params.n shares, any params.m of which recover it."""
    algorithm = Algorithm(algorithm)
    nblocks = padded_blocks(len(message), params.m)
    key_shares, main, aux = _start_split(params, algorithm, nblocks)
    payloads = _engine.split_payloads(pad(message, params.m), params, main, aux)
    return [
        Share(params, i, algorithm, key_shares[i], payloads[i])
        for i in range(params.n)
    ]


def split_stream(
    read, size: int, params: SchemeParams, *, algorithm: Algorithm = Algorithm.CHACHA20
):
    """split for a size-byte message that read(k) returns k bytes at a time.

    Returns the n key shares and an iterator over the payloads, one
    chunk at a time: an (n, count) array whose row i continues share i's
    payload, overwritten by the next chunk.  Payloads hold
    padded_blocks(size, params.m) words.  A message too long for the
    keystream raises ValueError here, before any word is read; one that
    ends before or runs past size bytes raises OSError on the chunk where
    that shows.
    """
    m, algorithm = params.m, Algorithm(algorithm)
    nblocks = padded_blocks(size, m)
    key_shares, main, aux = _start_split(params, algorithm, nblocks)

    def padded(start: int, count: int) -> bytes:
        want = min(count * m, size - start * m)
        data = read(want)
        # the last chunk, and only it, ends in padding
        if len(data) != want or (want < count * m and read(1)):
            raise OSError(f"input is not {size} bytes long; did it change while being split?")
        return data if want == count * m else pad(data, m)

    chunks = _engine.transform_chunks(params, main, aux, 0, nblocks, padded)
    return key_shares, (values for _, values in chunks)


def _validate_set(shares: list) -> list:
    """Check a recovery set and return its first m shares by index.

    Reads only the metadata of each share and its block_count, so it
    serves shares whose payloads are still in files.
    """
    if not shares:
        raise ShareSetError("no shares given")
    first = shares[0]
    params = first.params
    for s in shares[1:]:
        if s.params != params:
            raise ShareSetError("shares disagree on scheme parameters")
        if s.rrsg_algorithm != first.rrsg_algorithm:
            raise ShareSetError("shares disagree on keystream algorithm")
        if s.block_count != first.block_count:
            raise ShareSetError("shares disagree on payload length")
        if len(s.key_share) != len(first.key_share):
            raise ShareSetError("shares disagree on key share length")
    if len(first.key_share) != SEED_LEN * _seed_count(params):
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


def _start_recovery(chosen: list, block_start: int, block_count: int):
    """Streams of a validated set, once the block range is known to lie in its payloads."""
    params = chosen[0].params
    if block_start < 0 or block_count < 0 or block_start + block_count > chosen[0].block_count:
        raise ValueError("block range outside the share payload")
    key_material = recover_key([(s.share_index, s.key_share) for s in chosen], params.m)
    return _open_streams(params, key_material, chosen[0].rrsg_algorithm, block_start + block_count)


def recover_range(shares: list[Share], block_start: int, block_count: int) -> bytes:
    """Recover block_count blocks of padded plaintext starting at block_start.

    Returns raw block bytes; padding is not stripped, so the caller sees
    exactly block_count * m bytes regardless of where the range falls.
    """
    return _recover_blocks(_validate_set(shares), block_start, block_count)


def _recover_blocks(chosen: list[Share], block_start: int, block_count: int) -> bytes:
    main, aux = _start_recovery(chosen, block_start, block_count)
    if block_count == 0:
        return b""
    end = block_start + block_count
    payloads = [memoryview(s.payload)[block_start:end] for s in chosen]
    indices = [s.share_index for s in chosen]
    return _engine.recover_padded(payloads, indices, chosen[0].params, main, aux, block_start)


def combine(shares: list[Share]) -> bytes:
    """Recover the original message from any m or more consistent shares."""
    chosen = _validate_set(shares)
    padded = _recover_blocks(chosen, 0, chosen[0].block_count)
    return unpad(padded, chosen[0].params.m)


def recover_stream(shares: list, read, block_range: tuple[int, int] | None = None):
    """combine, or with block_range (start, count) recover_range, one chunk at a time.

    shares need Share's metadata and block_count, not its payload:
    read(share, start, count) returns count payload words of one of them
    from block start.  The set and the range are checked here; the
    returned iterator yields the output in buffers that the next chunk
    may overwrite.  Without a range, the padding is checked and stripped
    on the last chunk.
    """
    chosen = _validate_set(shares)
    params, total = chosen[0].params, chosen[0].block_count
    block_start, block_count = (0, total) if block_range is None else block_range
    main, aux = _start_recovery(chosen, block_start, block_count)
    indices = [s.share_index for s in chosen]

    def payloads(start: int, count: int) -> list[bytes]:
        return [read(s, start, count) for s in chosen]

    def chunks():
        for start, blocks in _engine.transform_chunks(
            params, main, aux, block_start, block_count, payloads, indices
        ):
            if block_range is None and start + len(blocks) == total:
                yield unpad(blocks.tobytes(), params.m)
            else:
                yield blocks

    return chunks()
