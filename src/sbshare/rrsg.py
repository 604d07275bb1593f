"""Deterministic, seekable keystream generators.

A stream is an unbounded sequence of words (one word = one byte) that
is a function of its 44-byte seeds and algorithm alone, so ``seek``
reaches any position without regenerating the prefix; with two seeds,
each gives its own words of every block.  ``RrsgStream.read`` alone
checks the count, moves the position and joins the seeds' words; each
generator maps an offset and a count per seed to that seed's words.

Two algorithms are provided:

* ``Algorithm.CHACHA20`` - the ChaCha20 keystream (20 rounds, 32-byte
  key, 12-byte nonce, 32-bit block counter starting at 0).  This is the
  production choice; seeking costs one block computation.
* ``Algorithm.TEST_LCG`` - a 64-bit linear congruential generator kept
  for portable golden tests.  It is trivially predictable and MUST NOT
  be used to protect real data.  A read jumps to its offset in O(log
  offset), then steps 4096 words at a time by tables built at import.

ChaCha20 runs in numpy in the row layout of SIMD implementations: the
state of a batch of B blocks is four (4, B) row sets a, b, c, d, so one
in-place numpy call does a step of four quarter rounds on every block,
and the diagonal rounds rotate the rows of b, c and d.  That is about
460 numpy calls per batch of up to 16384 blocks, so short reads are
cheap, and one batch serves every seed of a read.  OpenSSL's ChaCha20
(``cryptography``) is ten times faster on megabyte reads, but importing
it costs every fresh process about 7 MiB of resident memory and 12 ms;
it stays a test-only oracle.
"""

import secrets
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

KEY_LEN = 32
NONCE_LEN = 12
SEED_LEN = KEY_LEN + NONCE_LEN


class Algorithm(IntEnum):
    """Keystream algorithm ids as stored in share headers."""

    CHACHA20 = 0
    TEST_LCG = 1


@dataclass(frozen=True)
class Seed:
    """Key material for one stream: 32 key bytes plus a 12-byte nonce."""

    key: bytes
    nonce: bytes

    def __post_init__(self):
        if len(self.key) != KEY_LEN:
            raise ValueError(f"key must be {KEY_LEN} bytes")
        if len(self.nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")

    @classmethod
    def generate(cls) -> "Seed":
        """Fresh seed from system entropy."""
        return cls(secrets.token_bytes(KEY_LEN), secrets.token_bytes(NONCE_LEN))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Seed":
        if len(data) != SEED_LEN:
            raise ValueError(f"serialized seed must be {SEED_LEN} bytes")
        return cls(bytes(data[:KEY_LEN]), bytes(data[KEY_LEN:]))

    def to_bytes(self) -> bytes:
        return self.key + self.nonce


class RrsgStream:
    """Base contract: read consecutive words, seek to any word offset.

    A stream runs over one or more seeds, seed j giving widths[j] words
    per block: block b is seed 0's words [b*w_0, (b+1)*w_0), then seed
    1's [b*w_1, (b+1)*w_1), and so on.  One seed's stream is its own
    keystream, whatever its width.
    """

    algorithm: Algorithm

    def __init__(self, widths: tuple[int, ...]):
        self._widths = widths
        self._pos = 0

    @property
    def position(self) -> int:
        """Current word offset from the start of the stream."""
        return self._pos

    def seek(self, word_offset: int) -> None:
        """Reposition so the next read starts at the given absolute offset."""
        if word_offset < 0:
            raise ValueError("cannot seek before the start of the stream")
        self._pos = word_offset

    def read(self, count: int) -> bytes:
        """The next count words; the position advances only if they exist."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return b""
        width = sum(self._widths)
        block, skip = divmod(self._pos, width)
        nblocks = -(-(skip + count) // width)
        runs = self._runs([(block * w, nblocks * w) for w in self._widths])
        # one seed's words are in stream order already; more are joined block by block
        if len(runs) > 1:
            runs = [np.concatenate([r.reshape(nblocks, -1) for r in runs], axis=1)]
        self._pos += count
        return runs[0].reshape(-1)[skip : skip + count].tobytes()

    def _runs(self, runs: list[tuple[int, int]]) -> list[np.ndarray]:
        """Seed j's words [start, start + count) for runs[j] = (start, count), count > 0, as uint8."""
        raise NotImplementedError


# -- ChaCha20 ----------------------------------------------------------

_CHACHA_BLOCK = 64
_CHACHA_CONST = np.array([0x61707865, 0x3320646E, 0x79622D32, 0x6B206574], dtype=np.uint32)
# Cap working-set size when generating long runs: 16384 blocks = 1 MiB.
_MAX_BATCH_BLOCKS = 16384
# _LANES[k][i] = (i + k) % 4: row i of a rotated row set is old row i + k.
_LANES = [np.roll(np.arange(4), -k) for k in range(4)]
# Left rotations of the quarter round's four steps, as (r, 32 - r).
_ROTATIONS = [(np.uint32(r), np.uint32(32 - r)) for r in (16, 12, 8, 7)]


def _round(a, b, c, d, t):
    """One ChaCha round: the quarter round of lane i on rows a[i], b[i], c[i], d[i]."""
    for (x, y, z), (left, right) in zip(((a, b, d), (c, d, b)) * 2, _ROTATIONS):
        x += y
        z ^= x
        np.right_shift(z, right, out=t)
        z <<= left
        z |= t


def _chacha20_into(out: np.ndarray, init: np.ndarray, counts, counter: np.ndarray) -> None:
    """Fill out, (B, 16) words, with counts[0] blocks of seed 0, then counts[1] of seed 1, ...

    init holds each seed's 16 input words as a column, with a zero
    counter; block k's is counter[k].  Each of a, b, c, d is a (4, B)
    set of rows of the state, so one numpy call serves four quarter
    rounds; rotating the rows of b, c and d by 1, 2 and 3 lines up the
    diagonals as columns, and rotating back restores them.  The four
    are separate arrays, rotated one at a time, so a batch holds one
    spare row set while it rotates, not the state and three more.
    """
    a, b, c, d = (np.repeat(init[4 * k : 4 * k + 4], counts, axis=1) for k in range(4))
    d[0] = counter
    t = np.empty_like(a)
    for _ in range(10):
        _round(a, b, c, d, t)
        b = b[_LANES[1]]
        c = c[_LANES[2]]
        d = d[_LANES[3]]
        _round(a, b, c, d, t)
        b = b[_LANES[3]]
        c = c[_LANES[2]]
        d = d[_LANES[1]]
    rows = out.T
    for k, v in enumerate((a, b, c, d)):
        rows[4 * k : 4 * k + 4] = v
    start = 0
    for column, count in zip(init.T, counts):
        out[start : start + count] += column
        start += count
    rows[12] += counter


class _ChaCha20Stream(RrsgStream):
    """ChaCha20 as in RFC 8439.

    Input words: 4 constants, 8 key words, the 32-bit block counter and
    3 nonce words, all little-endian.  A read computes every seed's
    blocks in the same batches.
    """

    algorithm = Algorithm.CHACHA20

    def __init__(self, seeds: list[Seed], widths: tuple[int, ...]):
        super().__init__(widths)
        words = [np.frombuffer(s.key + bytes(4) + s.nonce, dtype="<u4") for s in seeds]
        self._init = np.stack([np.concatenate((_CHACHA_CONST, w)) for w in words], axis=1)

    def _runs(self, runs: list[tuple[int, int]]) -> list[np.ndarray]:
        spans, total = [], 0  # each seed's first block, block count and first row of out
        for start, count in runs:
            block, offset = divmod(start, _CHACHA_BLOCK)
            nblocks = (offset + count + _CHACHA_BLOCK - 1) // _CHACHA_BLOCK
            if block + nblocks > 1 << 32:
                raise ValueError("block counter space exhausted")
            spans.append((block, nblocks, total))
            total += nblocks
        counter = np.concatenate([np.arange(b, b + k, dtype=np.uint64) for b, k, _ in spans])
        counter = counter.astype(np.uint32)
        out = np.empty((total, 16), dtype="<u4")
        for i in range(0, total, _MAX_BATCH_BLOCKS):
            j = min(i + _MAX_BATCH_BLOCKS, total)
            counts = [max(0, min(j, first + k) - max(i, first)) for _, k, first in spans]
            _chacha20_into(out[i:j], self._init, counts, counter[i:j])
        words = out.reshape(-1).view(np.uint8)
        return [
            words[first * _CHACHA_BLOCK + start % _CHACHA_BLOCK :][:count]
            for (_, _, first), (start, count) in zip(spans, runs)
        ]


# -- Test LCG ----------------------------------------------------------

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1
_LCG_BATCH = 4096


def _lcg_jump(state: int, steps: int) -> int:
    """State after applying the recurrence `steps` times, in O(log steps)."""
    a, c = _LCG_MUL, _LCG_INC
    a_acc, c_acc = 1, 0
    while steps:
        if steps & 1:
            a_acc = a_acc * a & _MASK64
            c_acc = (c_acc * a + c) & _MASK64
        c = c * (a + 1) & _MASK64
        a = a * a & _MASK64
        steps >>= 1
    return (state * a_acc + c_acc) & _MASK64


# s_{k+i+1} = _LCG_A[i] * s_k + _LCG_C[i] (mod 2^64), with _LCG_A[i] = a^(i+1)
# and _LCG_C[i] = c * (1 + a + ... + a^i); uint64 products and sums wrap.
_LCG_A = np.multiply.accumulate(np.full(_LCG_BATCH, _LCG_MUL, dtype=np.uint64))
_LCG_C = np.cumsum(np.concatenate((np.ones(1, np.uint64), _LCG_A[:-1]))) * np.uint64(_LCG_INC)


class _TestLcgStream(RrsgStream):
    """64-bit LCG emitting one byte per step: s <- s*a + c; output (s >> 33) & 0xFF.

    Seeded from the first 8 key bytes, big-endian; the nonce is unused.
    Here for cross-implementation golden tests only - NOT secure.
    """

    algorithm = Algorithm.TEST_LCG

    def __init__(self, seeds: list[Seed], widths: tuple[int, ...]):
        super().__init__(widths)
        self._initials = [int.from_bytes(s.key[:8], "big") for s in seeds]

    def _runs(self, runs: list[tuple[int, int]]) -> list[np.ndarray]:
        words = []
        for initial, (start, count) in zip(self._initials, runs):
            out = np.empty(count, dtype=np.uint8)
            state = np.uint64(_lcg_jump(initial, start))
            for i in range(0, count, _LCG_BATCH):
                states = _LCG_A[: count - i] * state + _LCG_C[: count - i]
                out[i : i + _LCG_BATCH] = (states >> np.uint64(33)).astype(np.uint8)
                state = states[-1]
            words.append(out)
        return words


_STREAM_CLASSES = {
    Algorithm.CHACHA20: _ChaCha20Stream,
    Algorithm.TEST_LCG: _TestLcgStream,
}


def new_stream(seed: Seed | list[Seed], algorithm: Algorithm | int, widths=(1,)) -> RrsgStream:
    """Stream positioned at word 0 for the given seed, or seeds, and algorithm.

    Seed j gives widths[j] words per block of the stream (RrsgStream);
    one seed's stream is its own keystream.
    """
    try:
        alg = Algorithm(algorithm)
    except ValueError:
        raise ValueError(f"unknown keystream algorithm id {algorithm!r}") from None
    seeds = [seed] if isinstance(seed, Seed) else list(seed)
    if len(widths) != len(seeds) or min(widths) < 1:
        raise ValueError("need one positive width per seed")
    return _STREAM_CLASSES[alg](seeds, tuple(widths))


def check_capacity(algorithm: Algorithm | int, nblocks: int, widths: tuple[int, ...]) -> None:
    """Raise ValueError unless each stream of an op holds nblocks blocks from word 0.

    widths are the words per block that each stream gives.  ChaCha20's
    32-bit block counter ends a stream after 2^38 words; the test LCG
    never ends.  Ops call this before reading any word, so a message too
    long for its keystream fails before any work; _ChaCha20Stream._runs
    keeps its own check as the last guard.
    """
    if algorithm != Algorithm.CHACHA20:
        return
    for width in widths:
        if nblocks * width > _CHACHA_BLOCK << 32:
            raise ValueError(
                f"{nblocks} blocks need {nblocks * width} keystream words from one seed; "
                "ChaCha20 gives at most 2^38"
            )
