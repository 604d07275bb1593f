"""Scheme parameters and classic Shamir sharing of key material.

SchemeParams fixes a split: n shares, threshold m, how each block's
working field is chosen, and whether one seed or two drive the
keystream.  Each block consumes m + n + EXTRA_WORDS keystream words;
_engine.keystream_blocks lays them out, and the per-block transform
they drive lives in _engine.

split_key and recover_key share the keystream seeds themselves with
classic per-byte Shamir over the canonical field, run by the same
vectorized engine.
"""

import secrets
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from . import _engine

#: Field-selection words drawn per block, after its m mask words and
#: n point words.
EXTRA_WORDS = 4


class FieldPolicy(IntEnum):
    """How the working field is chosen for each block."""

    RANDOM_PER_BLOCK = 0
    FIXED_CANONICAL = 1


@dataclass(frozen=True)
class SchemeParams:
    """Split parameters: n shares, threshold m, over 8-bit words."""

    n: int
    m: int
    field_policy: FieldPolicy = FieldPolicy.RANDOM_PER_BLOCK
    dual_seed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "field_policy", FieldPolicy(self.field_policy))
        if not 1 <= self.m <= self.n <= 255:
            # n distinct nonzero evaluation points must exist in GF(2^8)
            raise ValueError(
                f"invalid parameters n={self.n}, m={self.m}: need 1 <= m <= n <= 255"
            )

    @property
    def words_per_block(self) -> int:
        return self.m + self.n + EXTRA_WORDS


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
