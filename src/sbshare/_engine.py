"""Vectorized block transforms used by the split and recovery pipelines.

Operates on whole runs of blocks at once with numpy; this is the only
implementation of the block transform in the library.  Its per-block
semantics are defined by the scalar oracle in tests/helpers.py, and the
test suite holds the two equal.  Every array it computes is word-major,
one column per block: points and values (n, B), coefficients (m, B), so
row i of the values is share i's payload.  Only the keystream words are
block-major, (B, words), in the layout stream_widths alone states: an
op reads one stream, which gives a block's words in the same order
whatever the number of seeds.  split_payloads and recover_padded
transpose the plaintext at the edge, in its XOR with the masks.

Field elements are bytes, bit i the coefficient of x^i.  Field 0,
FIELD0_POLY = x^8 + x^4 + x^3 + x + 1, is read off one walk of the
powers of its generator 3 (Lidl & Niederreiter, Finite Fields, Thm 2.8),
which gives the antilog and log tables _EXP and _LOG; every other table
comes from those two.  FIELDS holds the 30 irreducible degree-8
reduction polynomials, encoded the same way with bit 8 set, in ascending
order: a field's index is its position.  They too are read off field 0,
since an octic is irreducible exactly when it has a root in GF(2^8)
outside GF(2^4) (ibid., ch. 3).

Bulk data runs in field 0, one gather from a 64 KiB table per product,
a * b = _MUL[a << 8 | b], or quotient, a / b = _DIV[a << 8 | b].  The 30
fields are isomorphic (ibid., Thm 2.5), so a kernel maps each block's
words into field 0 through its field's GF(2)-linear isomorphism,
_TO0[f << 8 | a] = phi_f(a), and its results back through _FROM0.  Key
recovery's Lagrange weights, many factors of one product, are
multiplied in one step in the log domain (Plank, SP&E 1997).
Interpolation is Newton's divided differences (Knuth, TAOCP Vol. 2,
4.6.4), m(m - 1) gathers per block, each level and each Newton step
written in place.  Both transforms work in slices of _SLICE_WORDS words
that keep their uint16 index temporaries a fixed size.  Points are
linear probing (ibid., Vol. 3, 6.4, Algorithm L): on runs of at most
n^2 blocks in sorted rounds, as many as the longest probe (a median of
3-6 at n=32), on wider runs in n - 1 passes; recovery derives them only
up to the highest share index it reads.

split_payloads and recover_padded transform one run of blocks from any
block_start: a block's transform reads only its own keystream words,
which a seekable stream gives, so consecutive runs give the whole
message's outputs, cut at the seams.  chunks cuts a message into runs of
about _CHUNK_WORDS keystream words, which scheme's chunk walks transform
one at a time, so their working set does not grow with the message.
Of sbshare's modules it imports only rrsg: shamir imports it, so the
params it takes, shamir.SchemeParams, are named in annotations alone.
"""

from enum import IntEnum

import numpy as np

from .rrsg import RrsgStream

FIELD0_POLY = 0x11B
_SLICE_WORDS = 1 << 15
_CHUNK_WORDS = 1 << 18


def _rows(a: np.ndarray) -> np.ndarray:
    """Offsets into _MUL or _DIV of the rows of a."""
    return np.left_shift(a, 8, dtype=np.uint16)


def _field0_tables() -> tuple:
    """FIELDS, _MUL, _DIV (a / 0 is 0), _TO0, _FROM0, _LOG (log 0 read as 0) and _EXP."""
    power = [1] * 255
    for k in range(1, 255):  # a Python list: a numpy call per power cost more at import
        a = power[k - 1]
        power[k] = a ^ a << 1 ^ (a >> 7) * FIELD0_POLY  # 3a = a + 2a, 2a reduced
    exp = np.array(power, dtype=np.uint8)
    log = np.zeros(256, dtype=np.uint8)
    log[exp] = np.arange(255, dtype=np.uint8)
    logs = log.astype(np.uint16)  # intp sums left 0.7 MiB more resident after import
    antilog = np.tile(exp, 2)  # 3^k for k < 510: sums and differences of logs need no % 255
    mul = antilog[logs[:, None] + logs]
    div = antilog[logs[:, None] + 255 - logs]
    mul[0] = mul[:, 0] = 0
    div[0] = div[:, 0] = 0
    at = np.zeros((255, 512), dtype=np.uint8)  # [b - 1, a] = a, a polynomial in t, at t = b
    for i in range(9):  # b^i = 3^(i log b)
        at[:, 1 << i : 2 << i] = at[:, : 1 << i] ^ exp[logs[1:] * i % 255, None]
    deg8 = logs[1:] % 17 != 0  # b^15 != 1: b lies outside GF(2^4)
    polys = 256 + np.flatnonzero((at[deg8, 256:] == 0).any(axis=0))  # p_f, field f's polynomial
    to0 = at[(at[:, polys] == 0).argmax(axis=0), :256]  # phi_f(t), the least root of p_f
    tables = mul.ravel(), div.ravel(), to0.ravel(), to0.argsort(axis=1).astype(np.uint8).ravel()
    return (tuple(polys.tolist()), *tables, log, exp)


FIELDS, _MUL, _DIV, _TO0, _FROM0, _LOG, _EXP = _field0_tables()


def _slices(nblocks: int, width: int):
    step = max(1, _SLICE_WORDS // width)
    return (slice(i, i + step) for i in range(0, nblocks, step))


def derive_points(point_words: np.ndarray) -> np.ndarray:
    """(B, n) words -> (n, B) points, distinct and nonzero within each column.

    Point i is 1 + (word_i mod 255), probed upward (255 wraps to 1)
    past the points already taken in its block; the probe reads no more
    words, so every block consumes the same number, and the first k
    words of a block give its first k points.  Runs of at most n^2
    blocks take sorted rounds, wider ones the probe itself.  A round
    moves a point only past a cell that a lower index holds, and a held
    cell stays held by a lower index, so both give the probe's points.
    The input is never written: it may be a read-only keystream view.
    """
    nblocks, n = point_words.shape
    if n > 255:
        raise ValueError("cannot derive more than 255 distinct nonzero points")
    # rounds sort every block, passes touch only the colliding ones: at n=32 rounds
    # ran 10x as fast on 3 blocks, 1.6x on 1,024 and 0.64x on 4,097 (2-vCPU Xeon)
    return (_points_in_rounds if nblocks <= n * n else _points_by_probing)(point_words)


def _points_by_probing(point_words: np.ndarray) -> np.ndarray:
    """derive_points in n - 1 passes, pass i probing point i where it collides."""
    x = np.array(point_words.T, dtype=np.uint8, order="C")
    x += 1  # 1 + (w mod 255) without a modulo: w + 1 wraps 255 to 0, raised to 1
    x += (x == 0).view(np.uint8)  # np.maximum(x, 1) takes numpy's slow scalar loop
    for i in range(1, len(x)):
        cols = np.flatnonzero((x[:i] == x[i]).any(axis=0))
        taken, cand = x[:i, cols], x[i, cols]
        while len(cols):
            cand += 1
            np.maximum(cand, 1, out=cand)
            x[i, cols] = cand
            keep = (taken == cand).any(axis=0)
            cols, cand, taken = cols[keep], cand[keep], taken[:, keep]
    return x


def _points_in_rounds(point_words: np.ndarray) -> np.ndarray:
    """derive_points in rounds on keys cell << 8 | i, until no point moves."""
    index = np.arange(256, 256 + point_words.shape[1], dtype=np.uint16)
    keys = np.left_shift(point_words, 8, dtype=np.uint16)
    keys += index  # cell w + 1 beside index i: w = 255 wraps to cell 0, raised to 1
    np.maximum(keys, index, out=keys)
    # resolved blocks stay in the sort, where nothing moves: dropping them each
    # round cost more than sorting them again at n <= 32 (1.7-2x on 3 blocks)
    while True:
        keys.sort(axis=1)  # a point whose cell its sorted predecessor holds moves up one
        cells = keys >> 8
        moved = cells[:, 1:] == cells[:, :-1]
        if not moved.any():
            break
        keys[:, 1:] += np.left_shift(moved, 8, dtype=np.uint16)
        keys[keys < 256] += 256  # 255 wrapped to cell 0: on to 1
    keys.byteswap(inplace=True)  # i << 8 | cell, sorted again, puts the points in index order
    keys.sort(axis=1)
    return keys.astype(np.uint8).T


#: Field-selection words per block, after its points: one big-endian uint32.
EXTRA_WORDS = 4


class FieldPolicy(IntEnum):
    """How the working field is chosen for each block."""

    RANDOM_PER_BLOCK = 0
    FIXED_CANONICAL = 1


def field_indices(field_words: np.ndarray, policy: FieldPolicy) -> np.ndarray:
    """(B, EXTRA_WORDS) words -> (B,) canonical field indices, as uint8.

    A block's four words are read in place as one big-endian 32-bit
    integer, taken modulo the number of fields; numpy raises unless
    they are contiguous, as they are in a keystream view.
    """
    if policy == FieldPolicy.FIXED_CANONICAL:
        return np.zeros(field_words.shape[0], dtype=np.uint8)
    return (field_words.view(">u4")[:, 0] % len(FIELDS)).astype(np.uint8)


def eval_blocks(coeffs: np.ndarray, points: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Horner evaluation: (m, B) coeffs at (n, B) points -> (n, B) words."""
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
            _DIV.take(_rows(d[l:] ^ d[l - 1 : -1]) | (x[l:] ^ x[: m - l]), out=d[l:])
        for k in range(m - 2, -1, -1):
            d[k : m - 1] ^= _MUL.take(_rows(x[k]) | d[k + 1 :])
        out[:, s] = _FROM0.take(fs | d)
    return out


def interpolate_at_zero(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Values at 0, over field 0, of the polynomials through shared points.

    points (m,) distinct and nonzero, values (m, L): column k holds the
    values of polynomial k.  The Lagrange weights at zero,
    l_i(0) = prod_{j != i} x_j / (x_i + x_j), are the same for every
    column, so each result word costs m products and one XOR reduction.
    Each weight is one product in the log domain: 3 to the sum of its
    factors' logs to the base 3, mod 255.  Off the diagonal every factor
    is nonzero; the diagonal reads x_i / 0 = 0, and log 0 reads 0, as
    log 1 does, so it adds nothing to the sum.
    """
    frac = _DIV.take(_rows(points) | (points[:, None] ^ points))  # [i, j] = x_j / (x_i + x_j)
    weights = _EXP.take(_LOG.take(frac).sum(axis=1, keepdims=True) % 255)
    return np.bitwise_xor.reduce(_MUL.take(_rows(weights) | values), axis=0)


def stream_widths(params: "SchemeParams") -> tuple[int, ...]:
    """Words per block from each seed: m mask words, then n point and EXTRA_WORDS field words."""
    widths = params.m, params.n + EXTRA_WORDS
    return widths if params.dual_seed else (sum(widths),)


def keystream_blocks(
    params: "SchemeParams", stream: RrsgStream, block_start: int, nblocks: int, npoints=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks (m, B), points (npoints, B; n by default) and field indices (B,) of a block run.

    stream is the op's one stream, which gives a block's m mask words,
    n point words and EXTRA_WORDS field words in that order, from one
    seed or two (stream_widths).  The masks are copied out, so the read
    goes once the points and fields are made.
    """
    m, n, width = params.m, params.n, params.words_per_block
    stream.seek(block_start * width)
    words = np.frombuffer(stream.read(nblocks * width), dtype=np.uint8).reshape(nblocks, width)
    points = derive_points(words[:, m : m + (n if npoints is None else npoints)])
    return words[:, :m].T.copy(), points, field_indices(words[:, m + n :], params.field_policy)


def chunks(params: "SchemeParams", block_start: int, nblocks: int):
    """(start, count) of each chunk of blocks block_start.. of an nblocks run.

    A chunk is max(1, _CHUNK_WORDS // words_per_block) blocks, the last
    one what remains.
    """
    step = max(1, _CHUNK_WORDS // params.words_per_block)
    end = block_start + nblocks
    return ((start, min(step, end - start)) for start in range(block_start, end, step))


def split_payloads(
    padded: bytes,
    params: "SchemeParams",
    stream: RrsgStream,
    block_start: int,
) -> list[bytes]:
    """Padded plaintext of blocks block_start.. -> n payloads, share i's words of those blocks."""
    data = np.frombuffer(padded, dtype=np.uint8).reshape(-1, params.m)
    mask, x, f = keystream_blocks(params, stream, block_start, len(data))
    coeffs = np.bitwise_xor(data.T, mask, order="C")
    return [row.tobytes() for row in eval_blocks(coeffs, x, f)]


def recover_padded(
    payloads: list,
    indices: list[int],
    params: "SchemeParams",
    stream: RrsgStream,
    block_start: int,
) -> np.ndarray:
    """Invert split_payloads: m payload slices of blocks block_start.. -> (count, m) plaintext.

    indices name the payloads' shares; the result is C-contiguous, so it
    is one run of padded plaintext bytes.
    """
    count = len(payloads[0])
    mask, x, f = keystream_blocks(params, stream, block_start, count, max(indices) + 1)
    xs = x[indices]
    del x  # the chunk's largest array: free it before interpolating
    ys = np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(-1, count)
    coeffs = interpolate_blocks(xs, ys, f)
    out = np.empty((count, params.m), dtype=np.uint8)
    np.bitwise_xor(coeffs, mask, out=out.T)
    return out
