"""Block-level share mathematics.

Two layers live here: classic Shamir splitting of key material, run by
the vectorized engine, and the scalar block transform used for bulk
data - masking words with keystream words, deriving distinct evaluation
points, selecting the working field, and evaluating/interpolating the
block polynomial whose coefficients all carry data.

Everything operates on words (bytes).  All functions are pure.
"""

import secrets
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Sequence

import numpy as np

from . import _engine
from .gf import FieldSpec, field_by_index, field_count, tables_for

#: Words drawn per block beyond the data mask: one evaluation point word
#: per share plus four field-selection words.
EXTRA_WORDS = 4


class FieldPolicy(IntEnum):
    """How the working field is chosen for each block."""

    RANDOM_PER_BLOCK = 0
    FIXED_CANONICAL = 1


@dataclass(frozen=True)
class SchemeParams:
    """Split parameters: n shares, threshold m, word size fixed at 8 bits."""

    n: int
    m: int
    field_policy: FieldPolicy = FieldPolicy.RANDOM_PER_BLOCK
    dual_seed: bool = False
    word_bits: int = 8

    def __post_init__(self):
        if self.word_bits != 8:
            raise ValueError("only 8-bit words are supported")
        if not 1 <= self.m <= self.n <= 255:
            # n distinct nonzero evaluation points must exist in GF(2^8)
            raise ValueError(
                f"invalid parameters n={self.n}, m={self.m}: need 1 <= m <= n <= 255"
            )

    @property
    def words_per_block(self) -> int:
        return self.m + self.n + EXTRA_WORDS


class BlockRandomness(NamedTuple):
    """The fixed-size randomness slice consumed for one block."""

    mask_words: bytes
    point_words: bytes
    field_words: bytes

    @classmethod
    def from_words(cls, words: bytes, m: int, n: int) -> "BlockRandomness":
        if len(words) != m + n + EXTRA_WORDS:
            raise ValueError(f"expected {m + n + EXTRA_WORDS} words, got {len(words)}")
        return cls(words[:m], words[m : m + n], words[m + n :])


class InterpolationError(ValueError):
    """Raised when an interpolation system is singular (duplicate points)."""


def mask_words(data: bytes, mask: bytes) -> bytes:
    """Element-wise XOR; applying the same mask twice restores the input."""
    if len(data) != len(mask):
        raise ValueError("data and mask lengths differ")
    return bytes(d ^ r for d, r in zip(data, mask))


def derive_eval_points(point_words: bytes) -> tuple[int, ...]:
    """Map n keystream words to n distinct evaluation points in 1..255.

    Candidate i is 1 + (word_i mod 255); a candidate that collides with
    an already-assigned point is probed upward (wrapping 255 -> 1) until
    it lands on a free value.  The probe consumes no extra randomness, so
    block consumption stays at a fixed stride and streams stay seekable.
    """
    n = len(point_words)
    if n > 255:
        raise ValueError("cannot derive more than 255 distinct nonzero points")
    taken: set[int] = set()
    points = []
    for w in point_words:
        x = 1 + (w % 255)
        while x in taken:
            x = 1 + (x % 255)
        taken.add(x)
        points.append(x)
    return tuple(points)


def select_field(field_words: bytes, policy: FieldPolicy) -> FieldSpec:
    """Pick the block's working field from four keystream words.

    The words form a big-endian 32-bit integer taken modulo the number of
    fields.  Under FIXED_CANONICAL the words are still consumed (keeping
    the stream aligned) but index 0 is returned regardless.
    """
    if len(field_words) != EXTRA_WORDS:
        raise ValueError(f"expected {EXTRA_WORDS} field words")
    if policy == FieldPolicy.FIXED_CANONICAL:
        return field_by_index(0)
    index = int.from_bytes(field_words, "big") % field_count()
    return field_by_index(index)


def eval_block(coeffs: bytes | Sequence[int], points: Sequence[int], field: FieldSpec) -> bytes:
    """Evaluate the polynomial sum(coeffs[i] * x^i) at each point, by Horner."""
    if len(coeffs) == 0:
        raise ValueError("empty coefficient vector")
    if any(x == 0 for x in points):
        raise ValueError("evaluation points must be nonzero")
    t = tables_for(field)
    out = bytearray(len(points))
    for j, x in enumerate(points):
        acc = coeffs[-1]
        for k in range(len(coeffs) - 2, -1, -1):
            acc = t.mul(acc, x) ^ coeffs[k]
        out[j] = acc
    return bytes(out)


def interpolate_block(
    points: Sequence[int], values: bytes | Sequence[int], field: FieldSpec
) -> bytes:
    """Coefficients of the unique degree-(m-1) polynomial through m points.

    Solves the Vandermonde system by Gauss-Jordan elimination; the whole
    coefficient vector is recovered because every coefficient carries
    data, not just the constant term.
    """
    m = len(points)
    if m == 0 or len(values) != m:
        raise ValueError("need equally many points and values, at least one")
    if any(x == 0 for x in points):
        raise InterpolationError("evaluation points must be nonzero")
    if len(set(points)) != m:
        raise InterpolationError("duplicate evaluation points make the system singular")
    t = tables_for(field)
    # rows: [x^0, x^1, .., x^(m-1) | y]
    aug = []
    for x, y in zip(points, values):
        row = [1] * m + [y]
        for j in range(1, m):
            row[j] = t.mul(row[j - 1], x)
        aug.append(row)
    for k in range(m):
        if aug[k][k] == 0:
            for r in range(k + 1, m):
                if aug[r][k]:
                    aug[k], aug[r] = aug[r], aug[k]
                    break
            else:
                raise InterpolationError("singular interpolation system")
        inv = t.inv(aug[k][k])
        aug[k] = [t.mul(v, inv) for v in aug[k]]
        for r in range(m):
            if r != k and aug[r][k]:
                f = aug[r][k]
                aug[r] = [v ^ t.mul(w, f) for v, w in zip(aug[r], aug[k])]
    return bytes(row[m] for row in aug)


def split_key(key: bytes, n: int, m: int) -> list[bytes]:
    """Split key material into n classic Shamir shares of equal length.

    Each byte is the constant term of its own degree-(m-1) polynomial
    whose remaining coefficients come from system entropy; share j holds
    the evaluations at x = j+1 over the canonical field.
    """
    if not 1 <= m <= n <= 255:
        raise ValueError(f"invalid parameters n={n}, m={m}")
    entropy = secrets.token_bytes(len(key) * (m - 1))
    rest = np.frombuffer(entropy, dtype=np.uint8).reshape(len(key), m - 1)
    coeffs = np.column_stack((np.frombuffer(key, dtype=np.uint8), rest))
    xs = np.broadcast_to(np.arange(1, n + 1, dtype=np.uint8), (len(key), n))
    ys = _engine.eval_blocks(coeffs, xs, np.zeros(len(key), dtype=np.intp))
    return [ys[:, j].tobytes() for j in range(n)]


def recover_key(shares: Sequence[tuple[int, bytes]], m: int) -> bytes:
    """Rebuild key material from m (share_index, key_share) pairs.

    Interpolation over the canonical field, read at coefficient 0;
    share_index j corresponds to evaluation point j+1.
    """
    shares = list(shares)
    if len(shares) < m:
        raise ValueError(f"need at least {m} key shares, got {len(shares)}")
    indices = [idx for idx, _ in shares]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate share indices")
    if not all(0 <= idx < 255 for idx in indices):
        raise ValueError("share index out of range 0..254")
    chosen = shares[:m]
    length = len(chosen[0][1])
    if any(len(data) != length for _, data in chosen):
        raise ValueError("key shares have inconsistent lengths")
    xs = np.broadcast_to(np.array(indices[:m], dtype=np.uint8) + 1, (length, m))
    ys = np.frombuffer(b"".join(data for _, data in chosen), dtype=np.uint8).reshape(m, length).T
    return _engine.interpolate_blocks(xs, ys, np.zeros(length, dtype=np.intp))[:, 0].tobytes()
