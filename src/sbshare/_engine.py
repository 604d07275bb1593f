"""Vectorized block transforms used by the split and recovery pipelines.

Operates on whole runs of blocks at once with numpy; this is the only
implementation of the block transform in the library.  Its per-block
semantics are defined by the scalar oracle in tests/helpers.py, and the
test suite holds the two equal.  keystream_blocks is the one place that
knows how a block's keystream words are laid out and at what stride.

A product in field f is one gather, a * b = _MUL[f << 16 | a << 8 | b];
each field's 256x256 table is built from its exp/log tables when the
field is first used, since building all 30 would add tens of
milliseconds to a first small operation.  Interpolation is barycentric
Lagrange (Berrut and Trefethen, SIAM Review 2004), O(m^2) per block.
Both transforms work point-major, in slices of _SLICE_WORDS words that
keep their intp index temporaries (eight bytes per word) a fixed size
rather than a multiple of the message.
"""

from __future__ import annotations

import numpy as np

from . import gf, shamir
from .rrsg import RrsgStream

_SLICE_WORDS = 1 << 15
_FIELDS = gf.count_irreducible(gf.FIELD_DEGREE)
_MUL = np.zeros(_FIELDS << 16, dtype=np.uint8)
_INV = np.zeros((_FIELDS, 256), dtype=np.uint8)  # [f, 0] stays 0; [f, 1] is 1 once built


def _build_tables(f: np.ndarray) -> None:
    """Build the tables of every field index in f that are not built yet."""
    for i in np.flatnonzero((np.bincount(f, minlength=_FIELDS) > 0) & (_INV[:, 1] == 0)):
        t = gf.tables_for(gf.field_by_index(int(i)))
        exp, log = np.array(t.exp * 2, dtype=np.uint8), np.array(t.log[1:], dtype=np.intp)
        _MUL[i << 16 : (i + 1) << 16].reshape(256, 256)[1:, 1:] = exp[log[:, None] + log]
        _INV[i, 1:] = exp[255 - log]  # last, as it marks the field built


def _rows(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Offsets into _MUL of the rows 'times a' in fields f (broadcast)."""
    return np.left_shift(a, 8, dtype=np.intp) | (f << 16)


def _slices(nblocks: int, width: int):
    step = max(1, _SLICE_WORDS // width)
    return (slice(i, i + step) for i in range(0, nblocks, step))


def _horner(coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] * x^k at each point x whose row offsets are rows."""
    acc = np.broadcast_to(coeffs[-1], rows.shape)
    for k in range(len(coeffs) - 2, -1, -1):
        acc = _MUL[rows + acc] ^ coeffs[k]
    return acc


def derive_points(point_words: np.ndarray) -> np.ndarray:
    """(B, n) words -> (B, n) points, distinct and nonzero within each row.

    Point i is 1 + (word_i mod 255), probed upward (255 wraps to 1)
    past the points already taken in its row; the probe reads no more
    words, so every block consumes the same number.
    """
    nblocks, n = point_words.shape
    if n > 255:
        raise ValueError("cannot derive more than 255 distinct nonzero points")
    x = np.empty((nblocks, n), dtype=np.uint8)
    for i in range(n):
        cand = (point_words[:, i] % 255) + 1
        if i:
            coll = (x[:, :i] == cand[:, None]).any(axis=1)
            while coll.any():
                rows = np.flatnonzero(coll)
                cand[rows] = (cand[rows] % 255) + 1
                coll[rows] = (x[rows, :i] == cand[rows, None]).any(axis=1)
        x[:, i] = cand
    return x


def field_indices(field_words: np.ndarray, policy: shamir.FieldPolicy) -> np.ndarray:
    """(B, 4) words -> (B,) canonical field indices."""
    if policy == shamir.FieldPolicy.FIXED_CANONICAL:
        return np.zeros(field_words.shape[0], dtype=np.intp)
    w = field_words.astype(np.uint32)
    packed = (w[:, 0] << 24) | (w[:, 1] << 16) | (w[:, 2] << 8) | w[:, 3]
    return (packed % np.uint32(gf.field_count())).astype(np.intp)


def eval_blocks(coeffs: np.ndarray, points: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Horner evaluation: (B, m) coeffs at (B, n) points -> (B, n) words."""
    _build_tables(f)
    out = np.empty(points.shape[::-1], dtype=np.uint8)
    for s in _slices(len(points), points.shape[1]):
        out[:, s] = _horner(coeffs[s].T.copy(), _rows(f[s], points[s].T.copy()))
    return out.T


def interpolate_blocks(points: np.ndarray, values: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange: (B, m) points and values -> (B, m) coeffs.

    Points within a row must be distinct and nonzero (guaranteed by
    derive_points).  With the master polynomial P(z) = prod_j (z + x_j)
    and q_i(z) = P(z) / (z + x_i), the coefficients are
    sum_i y_i * w_i * q_i(z), where w_i = 1 / prod_{j != i} (x_i + x_j).
    """
    _build_tables(f)
    nblocks, m = points.shape
    out = np.empty((m, nblocks), dtype=np.uint8)
    for s in _slices(nblocks, m):
        fs, x = f[s], points[s].T.copy()
        xrows = _rows(fs, x)
        # P low degree first; degree j fills the top j + 1 rows, so z * P moves nothing
        master = np.zeros((m + 1, len(fs)), dtype=np.uint8)
        master[m] = 1
        for j in range(m):
            master[m - j - 1 : m] ^= _MUL[xrows[j] + master[m - j :]]
        # prod_{j != i} (x_i + x_j) is P'(x_i); in characteristic 2 the
        # derivative keeps the odd terms of P, a polynomial in z^2
        slope = _horner(master[1::2], _rows(fs, _MUL[xrows + x]))
        ywrows = _rows(fs, _MUL[_rows(fs, values[s].T) + _INV[fs, slope]])
        # synthetic division by every (z + x_i) at once, top coefficient
        # first: q_i[k-1] = P[k] + x_i * q_i[k], starting from q_i[m] = 0
        q = np.zeros_like(x)
        for k in range(m, 0, -1):
            q = _MUL[xrows + q] ^ master[k]
            out[k - 1, s] = np.bitwise_xor.reduce(_MUL[ywrows + q], axis=0)
    return out.T


def _read_rows(stream: RrsgStream, block_start: int, nblocks: int, width: int) -> np.ndarray:
    """Blocks block_start.. of a stream that holds width words per block."""
    stream.seek(block_start * width)
    return np.frombuffer(stream.read(nblocks * width), dtype=np.uint8).reshape(nblocks, width)


def keystream_blocks(
    params: shamir.SchemeParams,
    main: RrsgStream,
    aux: RrsgStream | None,
    block_start: int,
    nblocks: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks (B, m), points (B, n) and field indices (B,) of a block run.

    A block's words are its m mask words, then n point words, then
    EXTRA_WORDS field words.  With one seed all of them come from main,
    words_per_block per block; with two, main holds only the masks and
    aux the point and field words.  The masks are views of the read
    keystream, not copies.
    """
    n, m = params.n, params.m
    if aux is None:
        words = _read_rows(main, block_start, nblocks, params.words_per_block)
        mask, rest = words[:, :m], words[:, m:]
    else:
        mask = _read_rows(main, block_start, nblocks, m)
        rest = _read_rows(aux, block_start, nblocks, n + shamir.EXTRA_WORDS)
    return mask, derive_points(rest[:, :n]), field_indices(rest[:, n:], params.field_policy)


def split_payloads(
    padded: bytes, params: shamir.SchemeParams, main: RrsgStream, aux: RrsgStream | None
) -> list[bytes]:
    """Transform padded plaintext into n per-share payload columns."""
    data = np.frombuffer(padded, dtype=np.uint8).reshape(-1, params.m)
    mask, x, f = keystream_blocks(params, main, aux, 0, len(data))
    y = eval_blocks(data ^ mask, x, f)
    return [y[:, i].tobytes() for i in range(params.n)]


def recover_padded(
    payloads: list[bytes],
    indices: list[int],
    params: shamir.SchemeParams,
    main: RrsgStream,
    aux: RrsgStream | None,
    block_start: int,
) -> bytes:
    """Invert split_payloads for m payload columns from block_start on.

    indices are the share indices of the columns, in the same order.
    """
    mask, x, f = keystream_blocks(params, main, aux, block_start, len(payloads[0]))
    ys = np.stack([np.frombuffer(p, dtype=np.uint8) for p in payloads], axis=1)
    coeffs = interpolate_blocks(x[:, indices], ys, f)
    return (coeffs ^ mask).tobytes()
