"""Top-level split and combine operations.

A message is padded to a whole number of m-word blocks, each block is
masked with keystream words and treated as the coefficient vector of a
degree m-1 polynomial, and share i stores that polynomial's value at
the i-th derived point of every block.  The seed material that drives
the keystream is itself split with a classic per-word threshold scheme
and one key share travels with each data share, so any m shares first
rebuild the seed, then replay the randomness, then invert the blocks.
"""

from dataclasses import dataclass

from . import _engine
from .rrsg import SEED_LEN, Algorithm, RrsgStream, Seed, new_stream
from .shamir import EXTRA_WORDS, SchemeParams, recover_key, split_key


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


def _seed_count(params: SchemeParams) -> int:
    return 2 if params.dual_seed else 1


def _open_streams(
    params: SchemeParams, key_material: bytes, algorithm: Algorithm
) -> tuple[RrsgStream, RrsgStream | None]:
    main = new_stream(Seed.from_bytes(key_material[:SEED_LEN]), algorithm)
    if not params.dual_seed:
        return main, None
    aux = new_stream(Seed.from_bytes(key_material[SEED_LEN:]), algorithm)
    return main, aux


def _read_randomness(
    params: SchemeParams,
    main: RrsgStream,
    aux: RrsgStream | None,
    block_start: int,
    nblocks: int,
) -> tuple[bytes, bytes | None]:
    n, m = params.n, params.m
    if aux is None:
        main.seek(block_start * params.words_per_block)
        return main.read(nblocks * params.words_per_block), None
    main.seek(block_start * m)
    aux.seek(block_start * (n + EXTRA_WORDS))
    return main.read(nblocks * m), aux.read(nblocks * (n + EXTRA_WORDS))


def split(
    message: bytes,
    params: SchemeParams,
    *,
    algorithm: Algorithm = Algorithm.CHACHA20,
) -> list[Share]:
    """Split message into params.n shares, any params.m of which recover it."""
    algorithm = Algorithm(algorithm)
    seeds = [Seed.generate() for _ in range(_seed_count(params))]
    key_material = b"".join(s.to_bytes() for s in seeds)
    key_shares = split_key(key_material, params.n, params.m)

    padded = pad(message, params.m)
    nblocks = len(padded) // params.m
    main, aux = _open_streams(params, key_material, algorithm)
    main_ks, aux_ks = _read_randomness(params, main, aux, 0, nblocks)
    payloads = _engine.split_payloads(padded, params, main_ks, aux_ks)
    return [
        Share(params, i, algorithm, key_shares[i], payloads[i])
        for i in range(params.n)
    ]


def _validate_set(shares: list[Share]) -> list[Share]:
    """Check a recovery set and return its first m shares by index."""
    if not shares:
        raise ShareSetError("no shares given")
    first = shares[0]
    params = first.params
    for s in shares[1:]:
        if s.params != params:
            raise ShareSetError("shares disagree on scheme parameters")
        if s.rrsg_algorithm != first.rrsg_algorithm:
            raise ShareSetError("shares disagree on keystream algorithm")
        if len(s.payload) != len(first.payload):
            raise ShareSetError("shares disagree on payload length")
        if len(s.key_share) != len(first.key_share):
            raise ShareSetError("shares disagree on key share length")
    if len(first.key_share) != SEED_LEN * _seed_count(params):
        raise ShareSetError("key share length does not match parameters")
    if not first.payload:
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
    return _recover_blocks(_validate_set(shares), block_start, block_count)


def _recover_blocks(chosen: list[Share], block_start: int, block_count: int) -> bytes:
    params = chosen[0].params
    total = chosen[0].block_count
    if block_start < 0 or block_count < 0 or block_start + block_count > total:
        raise ValueError("block range outside the share payload")
    if block_count == 0:
        return b""
    key_material = recover_key([(s.share_index, s.key_share) for s in chosen], params.m)
    main, aux = _open_streams(params, key_material, chosen[0].rrsg_algorithm)
    main_ks, aux_ks = _read_randomness(params, main, aux, block_start, block_count)
    payloads = [s.payload[block_start : block_start + block_count] for s in chosen]
    indices = [s.share_index for s in chosen]
    return _engine.recover_padded(payloads, indices, params, main_ks, aux_ks)


def combine(shares: list[Share]) -> bytes:
    """Recover the original message from any m or more consistent shares."""
    chosen = _validate_set(shares)
    padded = _recover_blocks(chosen, 0, chosen[0].block_count)
    return unpad(padded, chosen[0].params.m)
