"""Shared test utilities.

Holds the scalar block oracle - one block at a time, in plain Python,
the specification that the library's vectorized engine must match -
the reference pipelines built from it, independent arithmetic oracles,
and the brute-force consistency counters used by the secrecy checks.
The oracle multiplies by shift_reduce_mul, carry-less multiplication
reduced by each field's own polynomial, and solves by Gauss-Jordan
elimination, so it shares no arithmetic or algorithm with the library,
which computes every field in field 0 through isomorphisms.  Of
sbshare.gf it reads only the catalogue of fields.
"""

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from sbshare.gf import FieldSpec, canonical_fields, field_by_index, field_count
from sbshare.rrsg import SEED_LEN, Algorithm, Seed, new_stream
from sbshare.scheme import Share
from sbshare.shamir import EXTRA_WORDS, FieldPolicy, SchemeParams


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
    mul = mul_rows(field)
    out = bytearray(len(points))
    for j, x in enumerate(points):
        acc = coeffs[-1]
        for k in range(len(coeffs) - 2, -1, -1):
            acc = mul[acc][x] ^ coeffs[k]
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
    mul = mul_rows(field)
    # rows: [x^0, x^1, .., x^(m-1) | y]
    aug = []
    for x, y in zip(points, values):
        row = [1] * m + [y]
        for j in range(1, m):
            row[j] = mul[row[j - 1]][x]
        aug.append(row)
    for k in range(m):
        if aug[k][k] == 0:
            for r in range(k + 1, m):
                if aug[r][k]:
                    aug[k], aug[r] = aug[r], aug[k]
                    break
            else:
                raise InterpolationError("singular interpolation system")
        inv = gf_inv(field, aug[k][k])
        aug[k] = [mul[v][inv] for v in aug[k]]
        for r in range(m):
            if r != k and aug[r][k]:
                f = aug[r][k]
                aug[r] = [v ^ mul[w][f] for v, w in zip(aug[r], aug[k])]
    return bytes(row[m] for row in aug)


# 0.999 quantile of the chi-square distribution with 255 degrees of
# freedom (0.001 significance threshold for a 256-bin uniformity test).
CHI2_THRESHOLD_255_P999 = 330.51974363400586


def chi_square_256(data: bytes) -> float:
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    expected = len(data) / 256
    return float(((counts - expected) ** 2 / expected).sum())


def shift_reduce_mul(a, b, poly: int) -> np.ndarray:
    """Vectorized carryless multiply-and-reduce, independent of any tables."""
    a = np.asarray(a, dtype=np.uint32)
    b = np.asarray(b, dtype=np.uint32)
    prod = np.zeros(np.broadcast(a, b).shape, dtype=np.uint32)
    for bit in range(8):
        prod ^= np.where((b >> bit) & 1, a << bit, np.uint32(0))
    for bit in range(15, 7, -1):
        prod ^= np.where((prod >> bit) & 1, np.uint32(poly << (bit - 8)), np.uint32(0))
    return prod.astype(np.uint8)


@lru_cache(maxsize=None)
def mul_table(field: FieldSpec) -> np.ndarray:
    """Full 256x256 product table of a field, [a, b] = a * b, from shift_reduce_mul."""
    a = np.arange(256)
    return shift_reduce_mul(a[:, None], a, field.reduction_poly)


@lru_cache(maxsize=None)
def mul_rows(field: FieldSpec) -> list[list[int]]:
    """mul_table as nested lists, which scalar code indexes fastest."""
    return mul_table(field).tolist()


def gf_inv(field: FieldSpec, a: int) -> int:
    """Multiplicative inverse, the b whose product with a is 1; zero has none."""
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return mul_rows(field)[a].index(1)


def ref_poly_mod(a: int, b: int) -> int:
    """Carryless remainder of a by b, written independently of the library."""
    while a.bit_length() >= b.bit_length():
        a ^= b << (a.bit_length() - b.bit_length())
    return a


def ref_is_irreducible_octic(poly: int) -> bool:
    """Trial division by every polynomial of degree 1..4."""
    if poly.bit_length() != 9:
        return False
    return all(ref_poly_mod(poly, d) != 0 for d in range(2, 32))


def open_streams(key_material: bytes, algorithm: Algorithm, dual_seed: bool):
    main = new_stream(Seed.from_bytes(key_material[:SEED_LEN]), algorithm)
    if not dual_seed:
        return main, None
    return main, new_stream(Seed.from_bytes(key_material[SEED_LEN:]), algorithm)


def recovered_key_material(shares: list[Share]) -> bytes:
    """Key material rebuilt byte by byte with the scalar interpolation."""
    m = shares[0].params.m
    chosen = sorted(shares, key=lambda s: s.share_index)[:m]
    xs = tuple(s.share_index + 1 for s in chosen)
    field = field_by_index(0)
    return bytes(
        interpolate_block(xs, bytes(s.key_share[i] for s in chosen), field)[0]
        for i in range(len(chosen[0].key_share))
    )


def _block_randomness(params: SchemeParams, main, aux) -> BlockRandomness:
    """The next block's words, read in order from the stream(s)."""
    n, m = params.n, params.m
    if aux is None:
        return BlockRandomness.from_words(main.read(params.words_per_block), m, n)
    return BlockRandomness.from_words(main.read(m) + aux.read(n + EXTRA_WORDS), m, n)


def reference_payloads(
    key_material: bytes, algorithm: Algorithm, params: SchemeParams, padded: bytes
) -> list[bytes]:
    """Share payloads computed block by block with the scalar operations."""
    main, aux = open_streams(key_material, algorithm, params.dual_seed)
    payloads = [bytearray() for _ in range(params.n)]
    for off in range(0, len(padded), params.m):
        mask, pw, fw = _block_randomness(params, main, aux)
        coeffs = mask_words(padded[off : off + params.m], mask)
        points = derive_eval_points(pw)
        field = select_field(fw, params.field_policy)
        ys = eval_block(coeffs, points, field)
        for i in range(params.n):
            payloads[i].append(ys[i])
    return [bytes(p) for p in payloads]


def reference_padded(shares: list[Share]) -> bytes:
    """Padded plaintext recovered block by block with the scalar operations."""
    params = shares[0].params
    chosen = sorted(shares, key=lambda s: s.share_index)[: params.m]
    key_material = recovered_key_material(shares)
    main, aux = open_streams(key_material, chosen[0].rrsg_algorithm, params.dual_seed)
    out = bytearray()
    for b in range(len(chosen[0].payload)):
        mask, pw, fw = _block_randomness(params, main, aux)
        points = derive_eval_points(pw)
        field = select_field(fw, params.field_policy)
        xs = tuple(points[s.share_index] for s in chosen)
        ys = bytes(s.payload[b] for s in chosen)
        coeffs = interpolate_block(xs, ys, field)
        out += mask_words(coeffs, mask)
    return bytes(out)


def single_seed_consistency_count(
    field: FieldSpec, y_obs: int, d0: int, d1: int
) -> int:
    """Count (r0, r1, x) assignments explaining one observed share word.

    With m=2 the observed word is y = (r0 ^ d0) ^ (r1 ^ d1) * x.  For any
    plaintext pair, each of the 256*255 choices of (r1, x) forces exactly
    one r0, so the count is the same for every (d0, d1).
    """
    table = mul_table(field)
    r = np.arange(256, dtype=np.uint8)
    x = np.arange(1, 256, dtype=np.intp)
    a0 = r ^ d0
    a1 = r ^ d1
    prod = table[np.ix_(a1, x)]
    y = a0[:, None, None] ^ prod[None, :, :]
    return int((y == y_obs).sum())


def dual_seed_consistency_count(y_obs: int, r0: int, r1: int, d0: int, d1: int) -> int:
    """Count (x, field) assignments explaining y with the masks known.

    y = a0 ^ a1 * x with a_i = r_i ^ d_i fixed.  When a1 != 0 and
    a0 != y, every field gives exactly one x, so the generic count is
    the number of fields.  The two degenerate classes (a1 = 0, or
    a0 = y) have different counts and are excluded by callers.
    """
    a0 = r0 ^ d0
    a1 = r1 ^ d1
    x = np.arange(1, 256, dtype=np.intp)
    count = 0
    for field in canonical_fields():
        count += int((a0 ^ mul_table(field)[a1, x] == y_obs).sum())
    return count


def dual_seed_counts(pairs: int) -> tuple[list[int], int]:
    """Observe one dual-seed share word, then count (x, field) explanations.

    With the masks (r0, r1) known, a pair (d0, d1) in general position is
    explained once per field: a1 = r1 ^ d1 inverts to a unique x.  The two
    degenerate classes d1 = r1 (constant polynomial) and d0 = r0 ^ y
    (forces a1 * x = 0, impossible for x != 0) have counts 255 * fields
    and 0, so sampling avoids them; the true plaintext is resampled on
    the same grounds by splitting again.
    """
    import secrets

    from sbshare.scheme import split

    rng = secrets.SystemRandom()
    while True:
        d0, d1 = rng.randrange(256), rng.randrange(256)
        params = SchemeParams(n=2, m=2, dual_seed=True)
        shares = split(bytes([d0, d1]), params)
        key_material = recovered_key_material(shares)
        main, _aux = open_streams(key_material, Algorithm.CHACHA20, True)
        r0, r1 = main.read(2)
        y_obs = shares[0].payload[0]
        if d1 != r1 and d0 != r0 ^ y_obs:
            break
    count_pairs = [(d0, d1)]
    while len(count_pairs) < pairs:
        c0, c1 = rng.randrange(256), rng.randrange(256)
        if c1 != r1 and c0 != r0 ^ y_obs and (c0, c1) not in count_pairs:
            count_pairs.append((c0, c1))
    counts = [
        dual_seed_consistency_count(y_obs, r0, r1, c0, c1) for c0, c1 in count_pairs
    ]
    return counts, field_count()
