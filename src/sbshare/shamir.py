"""Scheme parameters and classic Shamir sharing of key material.

SchemeParams fixes a split: n shares, threshold m, how each block's
working field is chosen, whether one seed or two drive the keystream,
and which algorithm generates it.  _engine states the keystream words
each block consumes (stream_widths) and the transform they drive.

split_key and recover_key share the keystream seeds themselves with
classic per-byte Shamir over the canonical field, run by the same
vectorized engine: each key byte is a block, so key share j is row j of
its (n, len(key)) values.  Neither checks its inputs again:
SchemeParams checks n and m, and scheme._validate_set and Share check
a recovery set's pairs.
"""

import operator
import secrets
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _engine
from ._engine import FieldPolicy
from .rrsg import Algorithm


@dataclass(frozen=True)
class SchemeParams:
    """Split parameters: n shares, threshold m, over 8-bit words, and the keystream algorithm."""

    n: int
    m: int
    field_policy: FieldPolicy = FieldPolicy.RANDOM_PER_BLOCK
    dual_seed: bool = False
    algorithm: Algorithm = Algorithm.CHACHA20

    def __post_init__(self):
        # plain ints: a numpy n or m would overflow in words_per_block
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "m", operator.index(self.m))
        object.__setattr__(self, "field_policy", FieldPolicy(self.field_policy))
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        if not isinstance(self.dual_seed, (bool, np.bool_)):
            raise TypeError(f"dual_seed must be a bool, not {type(self.dual_seed).__name__}")
        object.__setattr__(self, "dual_seed", bool(self.dual_seed))
        if not 1 <= self.m <= self.n <= 255:
            # n distinct nonzero evaluation points must exist in GF(2^8)
            raise ValueError(f"n={self.n}, m={self.m}: need 1 <= m <= n <= 255")

    @property
    def words_per_block(self) -> int:
        return sum(_engine.stream_widths(self))


def split_key(key: bytes, params: SchemeParams) -> list[bytes]:
    """Split key material into params.n classic Shamir shares of equal length.

    Each byte is the constant term of its own degree-(m-1) polynomial
    whose remaining coefficients come from system entropy; share j holds
    the evaluations at x = j+1 over the canonical field.
    """
    n, m = params.n, params.m
    entropy = secrets.token_bytes(len(key) * (m - 1))
    rest = np.frombuffer(entropy, dtype=np.uint8).reshape(len(key), m - 1)
    coeffs = np.vstack((np.frombuffer(key, dtype=np.uint8), rest.T))
    xs = np.broadcast_to(np.arange(1, n + 1, dtype=np.uint8)[:, None], (n, len(key)))
    ys = _engine.eval_blocks(coeffs, xs, np.zeros(len(key), dtype=np.uint8))
    return [row.tobytes() for row in ys]


def recover_key(pairs: Sequence[tuple[int, bytes]]) -> bytes:
    """Rebuild key material from (share_index, key_share) pairs.

    Lagrange interpolation at zero over the canonical field through
    every pair given; share_index j corresponds to evaluation point j+1.
    Any m or more pairs of one split give its key.  The pairs are not
    checked here: on every library path Share keeps each index in
    0..n-1 and scheme._validate_set keeps them distinct, at least m of
    them, and their key shares one length.
    """
    xs = np.array([idx for idx, _ in pairs], dtype=np.uint8) + 1
    ys = np.frombuffer(b"".join(data for _, data in pairs), dtype=np.uint8).reshape(len(pairs), -1)
    return _engine.interpolate_at_zero(xs, ys).tobytes()
