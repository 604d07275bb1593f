"""Deterministic, seekable keystream generators.

A stream is an unbounded sequence of words (one word = one byte) that
is a function of its 44-byte seeds and algorithm alone, so ``seek``
reaches any position without regenerating the prefix; with two seeds,
each gives its own words of every block.  ``RrsgStream.read`` checks
the blocks it needs, moves the position and joins the seeds' words;
each algorithm is a function of (seed, start, count) alone.

Two algorithms are provided:

* ``Algorithm.CHACHA20`` - the ChaCha20 keystream (20 rounds, 32-byte
  key, 12-byte nonce, 32-bit block counter starting at 0).  This is the
  production choice; seeking costs one block computation.
* ``Algorithm.TEST_LCG`` - a 64-bit linear congruential generator kept
  for portable golden tests.  It is trivially predictable and MUST NOT
  be used to protect real data.  A read jumps to its offset in O(log
  offset), then steps 4096 words at a time by tables built at import.

ChaCha20 is OpenSSL's, called through ctypes in the libcrypto that
CPython's ``hashlib`` already maps, so it costs no import; a seed's
run encrypts zeros in place under its own cipher context.  At import,
RFC 8439's test block checks the binding.  The ``cryptography``
package's ChaCha20 stays a test oracle: importing it costs every fresh
process about 7 MiB of resident memory.
"""

import _hashlib
import ctypes
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
        """The seed that to_bytes gave as data; a length other than SEED_LEN raises ValueError."""
        return cls(bytes(data[:KEY_LEN]), bytes(data[KEY_LEN:]))

    def to_bytes(self) -> bytes:
        return self.key + self.nonce


class RrsgStream:
    """Read consecutive words, seek to any word offset.

    A stream runs over one or more seeds, seed j giving widths[j] words
    per block: block b is seed 0's words [b*w_0, (b+1)*w_0), then seed
    1's [b*w_1, (b+1)*w_1), and so on.  One seed's stream is its own
    keystream, whatever its width.
    """

    def __init__(self, seeds: list[Seed], algorithm: Algorithm, widths: tuple[int, ...]):
        self.algorithm, self._seeds, self._widths = algorithm, seeds, widths
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
        check_capacity(self.algorithm, block + nblocks, self._widths)
        words = _GENERATORS[self.algorithm]
        runs = [words(seed, block * w, nblocks * w) for seed, w in zip(self._seeds, self._widths)]
        # one seed's words are in stream order already; more are joined block by block
        joined = runs[0] if len(runs) == 1 else np.concatenate([r.reshape(nblocks, -1) for r in runs], axis=1)
        self._pos += count
        return joined.reshape(-1)[skip : skip + count].tobytes()


# -- ChaCha20 ----------------------------------------------------------

_CHACHA_BLOCK = 64
# EVP_EncryptUpdate takes a C int length, so a run is fed to it in
# pieces of at most this many blocks (1 MiB).
_UPDATE_BLOCKS = 16384
# dlsym on _hashlib's handle also searches the libcrypto it links
_CRYPTO = ctypes.CDLL(_hashlib.__file__)


def _bind(name: str, restype, *argtypes):
    try:
        function = getattr(_CRYPTO, name)
    except AttributeError:
        raise ImportError(f"no {name} in the libcrypto that {_hashlib.__file__} links") from None
    function.restype, function.argtypes = restype, argtypes
    return function


_ptr, _int, _bytes = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
_CHACHA20 = _bind("EVP_chacha20", _ptr)()
_EVP_CIPHER_CTX_new = _bind("EVP_CIPHER_CTX_new", _ptr)
_EVP_CIPHER_CTX_free = _bind("EVP_CIPHER_CTX_free", None, _ptr)
_EVP_EncryptInit_ex = _bind("EVP_EncryptInit_ex", _int, _ptr, _ptr, _ptr, _bytes, _bytes)
_EVP_EncryptUpdate = _bind("EVP_EncryptUpdate", _int, _ptr, _ptr, ctypes.POINTER(_int), _ptr, _int)
_LIBCRYPTO = _bind("OpenSSL_version", _bytes, _int)(0).decode()


def _evp_failed(name: str) -> RuntimeError:
    return RuntimeError(f"{name} failed in {_LIBCRYPTO}; no keystream was produced")


def _chacha20_words(seed: Seed, start: int, count: int) -> np.ndarray:
    """ChaCha20 as in RFC 8439: zeros encrypted in place, under this call's own cipher context."""
    block, offset = divmod(start, _CHACHA_BLOCK)
    iv = block.to_bytes(4, "little") + seed.nonce  # OpenSSL's IV: the 32-bit block counter, the nonce
    ctx = _EVP_CIPHER_CTX_new()
    if not ctx:
        raise _evp_failed("EVP_CIPHER_CTX_new")
    try:
        if _EVP_EncryptInit_ex(ctx, _CHACHA20, None, seed.key, iv) != 1:
            raise _evp_failed("EVP_EncryptInit_ex")
        buf = np.zeros(offset + count, dtype=np.uint8)
        address, written, step = buf.ctypes.data, ctypes.c_int(), _UPDATE_BLOCKS * _CHACHA_BLOCK
        for i in range(0, len(buf), step):
            piece = min(step, len(buf) - i)
            ok = _EVP_EncryptUpdate(ctx, address + i, ctypes.byref(written), address + i, piece)
            if ok != 1 or written.value != piece:
                raise _evp_failed("EVP_EncryptUpdate")
        return buf[offset:]
    finally:
        _EVP_CIPHER_CTX_free(ctx)


# -- Test LCG ----------------------------------------------------------

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1
_LCG_BATCH = 4096


def _lcg_jump(state: int, steps: int) -> int:
    """State after k = steps steps of the recurrence: a^k s + c (a^k - 1) / (a - 1), mod 2^64.

    a^k is taken mod (a - 1) 2^64, so the division is exact, as
    a^k = 1 mod (a - 1), and its quotient right mod 2^64.
    """
    power = pow(_LCG_MUL, steps, (_LCG_MUL - 1) << 64)
    return (state * power + _LCG_INC * ((power - 1) // (_LCG_MUL - 1))) & _MASK64


# s_{k+i+1} = _LCG_A[i] * s_k + _LCG_C[i] (mod 2^64), with _LCG_A[i] = a^(i+1)
# and _LCG_C[i] = c * (1 + a + ... + a^i); uint64 products and sums wrap.
_LCG_A = np.multiply.accumulate(np.full(_LCG_BATCH, _LCG_MUL, dtype=np.uint64))
_LCG_C = np.cumsum(np.concatenate((np.ones(1, np.uint64), _LCG_A[:-1]))) * np.uint64(_LCG_INC)


def _lcg_words(seed: Seed, start: int, count: int) -> np.ndarray:
    """64-bit LCG emitting one byte per step: s <- s*a + c; output (s >> 33) & 0xFF.

    Seeded from the first 8 key bytes, big-endian; the nonce is unused.
    Here for cross-implementation golden tests only - NOT secure.
    """
    out = np.empty(count, dtype=np.uint8)
    state = np.uint64(_lcg_jump(int.from_bytes(seed.key[:8], "big"), start))
    for i in range(0, count, _LCG_BATCH):
        states = _LCG_A[: count - i] * state + _LCG_C[: count - i]
        out[i : i + _LCG_BATCH] = (states >> np.uint64(33)).astype(np.uint8)
        state = states[-1]
    return out


# each algorithm maps (seed, start, count), count > 0, to seed's words [start, start + count) as uint8
_GENERATORS = {
    Algorithm.CHACHA20: _chacha20_words,
    Algorithm.TEST_LCG: _lcg_words,
}
# the words one seed gives, where an algorithm ends: past ChaCha20's last
# block counter, OpenSSL would carry into the nonce
_WORD_LIMITS = {Algorithm.CHACHA20: _CHACHA_BLOCK << 32}


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
    if not seeds or len(widths) != len(seeds) or min(widths) < 1:
        raise ValueError("need one positive width per seed")
    return RrsgStream(seeds, alg, tuple(widths))


def check_capacity(algorithm: Algorithm, nblocks: int, widths: tuple[int, ...]) -> None:
    """Raise ValueError unless each stream of an op holds nblocks blocks from word 0.

    widths are the words per block that each seed gives; _WORD_LIMITS
    holds where a seed's stream ends.  Every read checks its blocks
    here, and ops call it before reading any word, so a message too long
    for its keystream fails before any work.
    """
    limit = _WORD_LIMITS.get(algorithm)
    if limit is not None and nblocks * max(widths) > limit:
        raise ValueError(
            f"keystream exhausted: {nblocks} blocks need {nblocks * max(widths)} words from one seed; "
            f"{algorithm.name} gives at most 2^{limit.bit_length() - 1}"
        )


def _check_libcrypto() -> None:
    """Raise ImportError unless the bound ChaCha20 gives RFC 8439's test block (section 2.3.2)."""
    seed = Seed(bytes(range(KEY_LEN)), bytes.fromhex("000000090000004a00000000"))
    stream = new_stream(seed, Algorithm.CHACHA20)
    stream.seek(_CHACHA_BLOCK)
    try:
        words = stream.read(_CHACHA_BLOCK).hex()
    except RuntimeError as exc:
        raise ImportError(f"ChaCha20 is unusable: {exc}") from None
    if words != (
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    ):
        # another IV layout: masks would be other words than the format's
        raise ImportError(f"ChaCha20 in {_LIBCRYPTO} does not give the RFC 8439 test block")


_check_libcrypto()
