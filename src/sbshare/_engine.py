"""Vectorized block transforms used by the split and recovery pipelines.

Operates on whole runs of blocks at once with numpy; this is the only
implementation of the block transform in the library.  Its per-block
semantics are defined by the scalar oracle in tests/helpers.py, and the
test suite holds the two equal.  Every array it computes is word-major,
one column per block: points and values (n, B), coefficients (m, B), so
row i of the values is share i's payload.  Only the keystream words are
block-major, (B, words), in the layout keystream_blocks alone knows;
split_payloads and recover_padded transpose the plaintext at the edge.

A product in field f is one gather, a * b = _MUL[f << 16 | a << 8 | b],
and so is a quotient, a / b = _DIV[f << 16 | a << 8 | b].  A field's two
256x256 tables are built together from its exp/log tables on its first
use, since building all 30 would add tens of milliseconds to a first
small operation.  Interpolation is Newton's divided differences (Knuth,
TAOCP Vol. 2, 4.6.4), m(m - 1) gathers per block.
Both transforms work in slices of _SLICE_WORDS words that keep their
intp index temporaries (eight bytes per word) a fixed size rather than
a multiple of the message.  Point derivation works over the whole run:
each new point is compared with the earlier points of every block at
once, and only the blocks where it collides are probed further.
"""

from __future__ import annotations

import numpy as np

from . import gf, shamir
from .rrsg import RrsgStream

_SLICE_WORDS = 1 << 15
_FIELDS = gf.count_irreducible(gf.FIELD_DEGREE)
_MUL = np.zeros(_FIELDS << 16, dtype=np.uint8)
_DIV = np.zeros(_FIELDS << 16, dtype=np.uint8)  # a / 0 stays 0
_BUILT = _DIV[0x101 :: 1 << 16]  # each field's 1 / 1, written last by _build_tables


def _build_tables(f: np.ndarray) -> None:
    """Build the tables of every field index in f that are not built yet."""
    for i in np.flatnonzero((np.bincount(f, minlength=_FIELDS) > 0) & (_BUILT == 0)):
        t = gf.tables_for(gf.field_by_index(int(i)))
        exp, log = np.array(t.exp * 2, dtype=np.uint8), np.array(t.log[1:], dtype=np.intp)
        _MUL[i << 16 : (i + 1) << 16].reshape(256, 256)[1:, 1:] = exp[log[:, None] + log]
        _DIV[i << 16 : (i + 1) << 16].reshape(256, 256)[1:, 1:] = exp[log[:, None] + (255 - log)]


def _rows(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Offsets into _MUL or _DIV of the rows of a in fields f (broadcast)."""
    return np.left_shift(a, 8, dtype=np.intp) | (f << 16)


def _slices(nblocks: int, width: int):
    step = max(1, _SLICE_WORDS // width)
    return (slice(i, i + step) for i in range(0, nblocks, step))


def derive_points(point_words: np.ndarray) -> np.ndarray:
    """(B, n) words -> (n, B) points, distinct and nonzero within each column.

    Point i is 1 + (word_i mod 255), probed upward (255 wraps to 1)
    past the points already taken in its block; the probe reads no more
    words, so every block consumes the same number.  The points are
    built in one (n, B) copy of the words, so point i is checked against
    the earlier points of every block by one contiguous compare, and
    only the blocks where it collides are probed.  The input is never
    written: it may be a read-only keystream view.
    """
    nblocks, n = point_words.shape
    if n > 255:
        raise ValueError("cannot derive more than 255 distinct nonzero points")
    x = np.array(point_words.T, dtype=np.uint8, order="C")
    # 1 + (w mod 255) without a modulo: w + 1 wraps 255 to 0, raised to 1
    x += 1
    np.maximum(x, 1, out=x)
    for i in range(1, n):
        cols = np.flatnonzero((x[:i] == x[i]).any(axis=0))
        taken, cand = x[:i, cols], x[i, cols]
        while len(cols):
            cand += 1
            np.maximum(cand, 1, out=cand)
            x[i, cols] = cand
            keep = (taken == cand).any(axis=0)
            cols, cand, taken = cols[keep], cand[keep], taken[:, keep]
    return x


def field_indices(field_words: np.ndarray, policy: shamir.FieldPolicy) -> np.ndarray:
    """(B, 4) words -> (B,) canonical field indices.

    A block's four words are one big-endian 32-bit integer, taken
    modulo the number of fields.
    """
    if policy == shamir.FieldPolicy.FIXED_CANONICAL:
        return np.zeros(field_words.shape[0], dtype=np.intp)
    packed = np.ascontiguousarray(field_words).view(">u4")[:, 0]
    return (packed % np.uint32(_FIELDS)).astype(np.intp)


def eval_blocks(coeffs: np.ndarray, points: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Horner evaluation: (m, B) coeffs at (n, B) points -> (n, B) words."""
    _build_tables(f)
    out = np.empty(points.shape, dtype=np.uint8)
    for s in _slices(points.shape[1], len(points)):
        c, rows = coeffs[:, s], _rows(f[s], points[:, s])
        acc = np.broadcast_to(c[-1], rows.shape)
        for k in range(len(c) - 2, -1, -1):
            acc = _MUL[rows + acc] ^ c[k]
        out[:, s] = acc
    return out


def interpolate_blocks(points: np.ndarray, values: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Newton's divided differences: (m, B) points and values -> (m, B) coeffs.

    Points within a column must be distinct and nonzero (guaranteed by
    derive_points).  Level l turns d_i into f[x_{i-l} .. x_i]; Horner's
    rule on the Newton form d_0 + (z + x_0)(d_1 + (z + x_1)(d_2 + ...)),
    innermost first, then turns d into the monomial coefficients.
    """
    _build_tables(f)
    m, nblocks = points.shape
    out = np.empty((m, nblocks), dtype=np.uint8)
    for s in _slices(nblocks, m):
        fs, x, d = f[s], points[:, s], values[:, s].copy()
        for l in range(1, m):
            d[l:] = _DIV[_rows(fs, d[l:] ^ d[l - 1 : -1]) | (x[l:] ^ x[: m - l])]
        # c holds z^j at row k + j: multiplying by z moves no row
        c = out[:, s]
        c[m - 1] = d[m - 1]
        for k in range(m - 2, -1, -1):
            prod = _MUL[_rows(fs, x[k]) | c[k + 1 :]]
            c[k] = prod[0] ^ d[k]
            c[k + 1 : m - 1] ^= prod[1:]
    return out


def interpolate_at_zero(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Values at 0, over field 0, of the polynomials through shared points.

    points (m,) distinct and nonzero, values (m, L): column k holds the
    values of polynomial k.  The Lagrange weights at zero,
    l_i(0) = prod_{j != i} x_j / (x_i + x_j), are the same for every
    column, so each result word costs m products and one XOR reduction.
    """
    _build_tables(np.zeros(1, dtype=np.intp))
    x = points.astype(np.intp)
    frac = _DIV[_rows(0, x) | (x[:, None] ^ x)]  # [i, j] = x_j / (x_i + x_j)
    np.fill_diagonal(frac, 1)
    while frac.shape[1] > 1:  # multiply the columns together, halving each pass
        half = frac.shape[1] // 2
        pairs = _MUL[_rows(0, frac[:, :half]) | frac[:, half : 2 * half]]
        frac = np.concatenate((pairs, frac[:, 2 * half :]), axis=1)
    return np.bitwise_xor.reduce(_MUL[_rows(0, frac) | values], axis=0)


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
    """Masks (B, m), points (n, B) and field indices (B,) of a block run.

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
    """Transform padded plaintext into n per-share payloads, one per row of values."""
    data = np.frombuffer(padded, dtype=np.uint8).reshape(-1, params.m)
    mask, x, f = keystream_blocks(params, main, aux, 0, len(data))
    coeffs = np.bitwise_xor(data.T, mask.T, order="C")
    return [row.tobytes() for row in eval_blocks(coeffs, x, f)]


def recover_padded(
    payloads: list[bytes],
    indices: list[int],
    params: shamir.SchemeParams,
    main: RrsgStream,
    aux: RrsgStream | None,
    block_start: int,
) -> bytes:
    """Invert split_payloads from block_start on; indices name the payloads' shares."""
    mask, x, f = keystream_blocks(params, main, aux, block_start, len(payloads[0]))
    ys = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(len(payloads), -1)
    coeffs = interpolate_blocks(x[indices], ys, f)
    return np.bitwise_xor(coeffs.T, mask, order="C").tobytes()
