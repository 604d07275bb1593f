"""Vectorized block transforms used by the split and recovery pipelines.

Operates on whole runs of blocks at once with numpy.  The per-block
semantics are defined by the scalar operations in `shamir`; the test
suite holds the two implementations equal.

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
    """Row-wise derive_eval_points: (B, n) words -> (B, n) distinct points."""
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


def _randomness(
    params: shamir.SchemeParams, main_ks: bytes, aux_ks: bytes | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split raw keystream bytes into (mask, point, field) word arrays."""
    n, m = params.n, params.m
    if aux_ks is None:
        arr = np.frombuffer(main_ks, dtype=np.uint8).reshape(-1, params.words_per_block)
        return arr[:, :m], arr[:, m : m + n], arr[:, m + n :]
    mask = np.frombuffer(main_ks, dtype=np.uint8).reshape(-1, m)
    aux = np.frombuffer(aux_ks, dtype=np.uint8).reshape(-1, n + shamir.EXTRA_WORDS)
    return mask, aux[:, :n], aux[:, n:]


def split_payloads(
    padded: bytes, params: shamir.SchemeParams, main_ks: bytes, aux_ks: bytes | None
) -> list[bytes]:
    """Transform padded plaintext into n per-share payload columns."""
    m = params.m
    data = np.frombuffer(padded, dtype=np.uint8).reshape(-1, m)
    mask, pw, fw = _randomness(params, main_ks, aux_ks)
    coeffs = data ^ mask
    x = derive_points(pw)
    f = field_indices(fw, params.field_policy)
    y = eval_blocks(coeffs, x, f)
    return [y[:, i].tobytes() for i in range(params.n)]


def recover_padded(
    payloads: list[bytes],
    indices: list[int],
    params: shamir.SchemeParams,
    main_ks: bytes,
    aux_ks: bytes | None,
) -> bytes:
    """Invert split_payloads for m payload columns with the given share indices."""
    mask, pw, fw = _randomness(params, main_ks, aux_ks)
    x = derive_points(pw)
    f = field_indices(fw, params.field_policy)
    xs = x[:, indices]
    ys = np.stack([np.frombuffer(p, dtype=np.uint8) for p in payloads], axis=1)
    coeffs = interpolate_blocks(xs, ys, f)
    return (coeffs ^ mask).tobytes()
