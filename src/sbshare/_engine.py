"""Vectorized block transforms used by the split and recovery pipelines.

Operates on whole runs of blocks at once with numpy; this is the only
implementation of the block transform in the library.  Its per-block
semantics are defined by the scalar oracle in tests/helpers.py, and the
test suite holds the two equal.  Every array it computes is word-major,
one column per block: points and values (n, B), coefficients (m, B), so
row i of the values is share i's payload.  Only the keystream words are
block-major, (B, words), in the layout keystream_blocks alone knows;
transform_chunks transposes each chunk's plaintext at the edge.

All arithmetic runs in field 0, one gather from a 64 KiB table per
product, a * b = _MUL[a << 8 | b], or quotient, a / b = _DIV[a << 8 | b].
The 30 fields are isomorphic (Lidl & Niederreiter, Finite Fields, Thm
2.5), so a kernel maps each block's words into field 0 through its
field's GF(2)-linear isomorphism, _TO0[f << 8 | a] = phi_f(a), and its
results back through _FROM0.  Interpolation is Newton's divided
differences (Knuth, TAOCP Vol. 2, 4.6.4), m(m - 1) gathers per block.
Both transforms work in slices of _SLICE_WORDS words that keep their
uint16 index temporaries a fixed size.

Every split and recovery runs through one chunk loop, transform_chunks,
which takes about _CHUNK_WORDS keystream words' worth of blocks at a
time, so its working set does not grow with the message.  A block's
transform reads only its own keystream words, which a seekable stream
gives for any block, so chunks are independent and their outputs are
the whole run's, cut at the seams.
"""

from __future__ import annotations

import numpy as np

from . import gf, shamir
from .rrsg import RrsgStream

_SLICE_WORDS = 1 << 15
_CHUNK_WORDS = 1 << 18


def _rows(a: np.ndarray) -> np.ndarray:
    """Offsets into _MUL or _DIV of the rows of a."""
    return np.left_shift(a, 8, dtype=np.uint16)


def _field0_tables() -> tuple[np.ndarray, ...]:
    """_MUL, _DIV (a / 0 is 0), _TO0 and _FROM0; phi_f(t) is the least root of p_f."""
    word = np.arange(256, dtype=np.uint16)
    prod = np.zeros((256, 256), dtype=np.uint16)
    for i in range(8):  # carry-less product: a << i wherever bit i of b is set
        prod ^= (word[:, None] << i) * (word >> i & 1)
    for i in range(14, 7, -1):  # clear bits 14..8 with field 0's polynomial
        prod ^= (prod >> i & 1) * np.uint16(gf.field_by_index(0).reduction_poly << (i - 8))
    mul = prod.astype(np.uint8)
    div = mul[:, (mul == 1).argmax(axis=0)]  # column 0 has no 1: row 0 gives a / 0 = a * 0
    power = np.ones(256, dtype=np.uint8)
    at = np.zeros((256, 512), dtype=np.uint8)  # [b, a] = a, a polynomial in t, at t = b
    for i in range(9):
        at[:, 1 << i : 2 << i] = at[:, : 1 << i] ^ power[:, None]
        power = mul[power, word]
    polys = [g.reduction_poly for g in gf.canonical_fields()]  # p_f, field f's polynomial
    to0 = at[(at[:, polys] == 0).argmax(axis=0), :256]
    return mul.ravel(), div.ravel(), to0.ravel(), to0.argsort(axis=1).astype(np.uint8).ravel()


_MUL, _DIV, _TO0, _FROM0 = _field0_tables()


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
    """(B, 4) words -> (B,) canonical field indices, as uint8.

    A block's four words are one big-endian 32-bit integer, taken
    modulo the number of fields.
    """
    if policy == shamir.FieldPolicy.FIXED_CANONICAL:
        return np.zeros(field_words.shape[0], dtype=np.uint8)
    w = field_words  # 2^8, 2^16 and 2^24 are all 16 modulo 30: sum the columns in place
    total = (np.add(w[:, 0], w[:, 1], dtype=np.uint16) + w[:, 2] << 4) + w[:, 3]
    return (total % gf.field_count()).astype(np.uint8)


def eval_blocks(
    coeffs: np.ndarray, points: np.ndarray, f: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Horner evaluation: (m, B) coeffs at (n, B) points -> (n, B) words, into out if given."""
    if out is None:
        out = np.empty(points.shape, dtype=np.uint8)
    for s in _slices(points.shape[1], len(points)):
        fs = f[s].astype(np.uint16) << 8
        # a C-order index makes F-order coeffs cost one copy, not a strided row per step
        c = _TO0.take(np.bitwise_or(fs, coeffs[:, s], order="C"))
        x = _rows(_TO0.take(fs | points[:, s]))
        acc = c[-1]
        for k in range(len(c) - 2, -1, -1):
            acc = _MUL.take(x | acc)
            acc ^= c[k]
        out[:, s] = _FROM0.take(fs | acc)
    return out


def interpolate_blocks(points: np.ndarray, values: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Newton's divided differences: (m, B) points and values -> (m, B) coeffs.

    Points within a column must be distinct and nonzero (guaranteed by
    derive_points).  Level l turns d_i into f[x_{i-l} .. x_i]; Horner's
    rule on the Newton form d_0 + (z + x_0)(d_1 + (z + x_1)(d_2 + ...)),
    innermost first, then turns d in place into the monomial coefficients,
    z^j at row k + j, so multiplying by z moves no row.
    """
    m, nblocks = points.shape
    out = np.empty((m, nblocks), dtype=np.uint8)
    for s in _slices(nblocks, m):
        fs = f[s].astype(np.uint16) << 8
        x, d = _TO0.take(fs | points[:, s]), _TO0.take(fs | values[:, s])
        for l in range(1, m):
            d[l:] = _DIV.take(_rows(d[l:] ^ d[l - 1 : -1]) | (x[l:] ^ x[: m - l]))
        for k in range(m - 2, -1, -1):
            prod = _MUL.take(_rows(x[k]) | d[k + 1 :])
            d[k] ^= prod[0]
            d[k + 1 : m - 1] ^= prod[1:]
        out[:, s] = _FROM0.take(fs | d)
    return out


def interpolate_at_zero(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Values at 0, over field 0, of the polynomials through shared points.

    points (m,) distinct and nonzero, values (m, L): column k holds the
    values of polynomial k.  The Lagrange weights at zero,
    l_i(0) = prod_{j != i} x_j / (x_i + x_j), are the same for every
    column, so each result word costs m products and one XOR reduction.
    """
    frac = _DIV.take(_rows(points) | (points[:, None] ^ points))  # [i, j] = x_j / (x_i + x_j)
    np.fill_diagonal(frac, 1)
    while frac.shape[1] > 1:  # multiply the columns together, halving each pass
        half = frac.shape[1] // 2
        pairs = _MUL.take(_rows(frac[:, :half]) | frac[:, half : 2 * half])
        frac = np.concatenate((pairs, frac[:, 2 * half :]), axis=1)
    return np.bitwise_xor.reduce(_MUL.take(_rows(frac) | values), axis=0)


def _read_rows(stream: RrsgStream, block_start: int, nblocks: int, width: int) -> np.ndarray:
    """Blocks block_start.. of a stream that holds width words per block."""
    stream.seek(block_start * width)
    return np.frombuffer(stream.read(nblocks * width), dtype=np.uint8).reshape(nblocks, width)


def stream_widths(params: shamir.SchemeParams) -> tuple[int, ...]:
    """Words per block that each stream gives: main's, then with two seeds aux's."""
    if params.dual_seed:
        return params.m, params.n + shamir.EXTRA_WORDS
    return (params.words_per_block,)


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
    widths = stream_widths(params)
    if aux is None:
        words = _read_rows(main, block_start, nblocks, *widths)
        mask, rest = words[:, :m], words[:, m:]
    else:
        mask = _read_rows(main, block_start, nblocks, widths[0])
        rest = _read_rows(aux, block_start, nblocks, widths[1])
    return mask, derive_points(rest[:, :n]), field_indices(rest[:, n:], params.field_policy)


def transform_chunks(
    params: shamir.SchemeParams,
    main: RrsgStream,
    aux: RrsgStream | None,
    block_start: int,
    nblocks: int,
    read,
    indices: list[int] | None = None,
    out: np.ndarray | None = None,
):
    """Split, or with indices recover, blocks block_start.. of a run, one chunk at a time.

    A chunk is max(1, _CHUNK_WORDS // words_per_block) blocks.  For each,
    read(start, count) gives its input, and the loop yields (start, its
    output):
    - split: count * m bytes of padded plaintext in any buffer -> (n, count)
      share words, row i for share i;
    - recovery, indices naming the shares read: m buffers of count payload
      words, one per share -> the (count, m) padded plaintext.
    Each output is written into its place in out, the whole run's output
    array if given, or else into one chunk-sized buffer that the next
    chunk overwrites.
    """
    step = max(1, _CHUNK_WORDS // params.words_per_block)
    split, whole = indices is None, out is not None
    if not whole:
        shape = (params.n, min(step, nblocks)) if split else (min(step, nblocks), params.m)
        out = np.empty(shape, dtype=np.uint8)
    for start in range(block_start, block_start + nblocks, step):
        count = min(step, block_start + nblocks - start)
        at = start - block_start if whole else 0
        mask, x, f = keystream_blocks(params, main, aux, start, count)
        if split:
            data = np.frombuffer(read(start, count), dtype=np.uint8).reshape(count, params.m)
            coeffs = np.bitwise_xor(data.T, mask.T, order="C")
            yield start, eval_blocks(coeffs, x, f, out=out[:, at : at + count])
        else:
            xs = x[indices]
            del x  # the chunk's largest array: free it before interpolating
            ys = np.frombuffer(b"".join(read(start, count)), dtype=np.uint8).reshape(-1, count)
            coeffs = interpolate_blocks(xs, ys, f)
            yield start, np.bitwise_xor(coeffs.T, mask, out=out[at : at + count])


def split_payloads(
    padded: bytes, params: shamir.SchemeParams, main: RrsgStream, aux: RrsgStream | None
) -> list[bytes]:
    """Transform padded plaintext into n per-share payloads, one per row of values."""
    m, plain = params.m, memoryview(padded)
    out = np.empty((params.n, len(padded) // m), dtype=np.uint8)
    def read(start, count):
        return plain[start * m : (start + count) * m]

    for _ in transform_chunks(params, main, aux, 0, out.shape[1], read, out=out):
        pass
    return [row.tobytes() for row in out]


def recover_padded(
    payloads: list[bytes],
    indices: list[int],
    params: shamir.SchemeParams,
    main: RrsgStream,
    aux: RrsgStream | None,
    block_start: int,
) -> bytes:
    """Invert split_payloads from block_start on; indices name the payloads' shares."""
    out = np.empty((len(payloads[0]), params.m), dtype=np.uint8)

    def read(start, count):
        at = start - block_start
        return [p[at : at + count] for p in payloads]

    for _ in transform_chunks(params, main, aux, block_start, len(out), read, indices, out):
        pass
    return out.tobytes()
