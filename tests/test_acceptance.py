"""Acceptance gate: the ten product-level criteria, one test each.

Each test enforces its stated tolerance and, where one is given, its
runtime budget, and prints a single summary line (visible with -s).
Criterion 9's fuzz duration honors SBSHARE_FUZZ_SECONDS (default 600).
"""

import itertools
import os
import random
import secrets
import struct
import time
import zlib

import numpy as np

import helpers
from sbshare import _engine, gf
from sbshare.rrsg import KEY_LEN, NONCE_LEN, Algorithm, Seed, new_stream
from sbshare.scheme import Share, combine, pad, recover_range, split
from sbshare.shamir import FieldPolicy, SchemeParams
from sbshare.share_format import (
    BadMagicError,
    ChecksumError,
    FormatError,
    HeaderError,
    TruncatedError,
    VersionError,
    decode_share,
    encode_share,
)

TABLE_COUNTS = [3, 6, 9, 18, 30, 56, 99, 186, 335, 630, 1161, 2182, 4080]

CHACHA_ZERO_128 = bytes.fromhex(
    "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
    "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
    "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
    "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"
)


def report(criterion: int, detail: str, started: float) -> None:
    print(f"criterion {criterion:2d} PASS: {detail} ({time.perf_counter() - started:.2f}s)")


def test_criterion_01_irreducible_counts_and_enumeration():
    started = time.perf_counter()
    assert [gf.count_irreducible(d) for d in range(4, 17)] == TABLE_COUNTS
    fields = gf.canonical_fields()
    assert len(fields) == 30
    for spec in fields:
        assert helpers.ref_is_irreducible_octic(spec.reduction_poly)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"runtime budget exceeded: {elapsed:.2f}s"
    report(1, "counts match the published table; 30 verified octics", started)


def test_criterion_02_field_arithmetic_oracle_equivalence():
    # the library's route in field f: into field 0 through phi_f, one
    # gather from field 0's _MUL or _DIV, back through phi_f's inverse
    started = time.perf_counter()
    to0, from0 = _engine._TO0.reshape(-1, 256), _engine._FROM0.reshape(-1, 256)
    a = np.arange(256, dtype=np.uint16)
    grid_a, grid_b = np.meshgrid(a, a, indexing="ij")
    nz = a[1:]
    for index, spec in enumerate(gf.canonical_fields()):
        phi = to0[index].astype(np.intp)
        live = from0[index, _engine._MUL[phi[grid_a] << 8 | phi[grid_b]]]
        oracle = helpers.shift_reduce_mul(grid_a, grid_b, spec.reduction_poly)
        assert (live == oracle).all(), f"field {index} multiplication mismatch"
        inv = from0[index, _engine._DIV[phi[1] << 8 | phi[nz]]]
        assert (helpers.shift_reduce_mul(nz, inv, spec.reduction_poly) == 1).all(), (
            f"field {index} inverse mismatch"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.2f}s"
    report(2, "30 fields x 65536 pairs equal; all inverses verified", started)


def test_criterion_03_threshold_round_trip_matrix():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for m in range(1, n + 1):
            lengths = sorted({0, 1, m - 1, m, m + 1, 257, 4096})
            for algorithm in (Algorithm.CHACHA20, Algorithm.TEST_LCG):
                for policy in (FieldPolicy.RANDOM_PER_BLOCK, FieldPolicy.FIXED_CANONICAL):
                    for dual in (False, True):
                        params = SchemeParams(
                            n=n, m=m, field_policy=policy, dual_seed=dual
                        )
                        for length in lengths:
                            message = secrets.token_bytes(length)
                            shares = split(message, params, algorithm=algorithm)
                            for subset in itertools.combinations(shares, m):
                                assert combine(list(subset)) == message, (
                                    n, m, algorithm, policy, dual, length,
                                )
                                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.2f}s"
    report(3, f"{checked} subset recoveries exact", started)


def test_criterion_04_share_size_formula():
    started = time.perf_counter()
    rng = random.Random(415)
    for _ in range(50):
        n = rng.randint(1, 12)
        m = rng.randint(1, n)
        s = rng.randint(0, 4096)
        dual = rng.random() < 0.5
        params = SchemeParams(n=n, m=m, dual_seed=dual)
        message = rng.randbytes(s)
        shares = split(message, params)
        p = m - (s % m)
        blocks = (s + p) // m
        key_len = 88 if dual else 44
        for share in shares:
            assert len(encode_share(share)) == 24 + key_len + blocks, (n, m, s)
        aggregate = sum(len(share.payload) for share in shares)
        assert aggregate == n * (s + p) // m, (n, m, s)
    report(4, "50 random (n, m, s) sizes exact", started)


def test_criterion_05_single_seed_consistency_counts():
    started = time.perf_counter()
    message = secrets.token_bytes(2)
    params = SchemeParams(n=2, m=2, field_policy=FieldPolicy.FIXED_CANONICAL)
    shares = split(message, params)
    y_obs = shares[0].payload[0]
    field = gf.field_by_index(0)
    rng = random.Random(515)
    pairs = {(message[0], message[1])}
    while len(pairs) < 8:
        pairs.add((rng.randrange(256), rng.randrange(256)))
    counts = [
        helpers.single_seed_consistency_count(field, y_obs, d0, d1) for d0, d1 in pairs
    ]
    assert len(set(counts)) == 1, counts
    assert counts[0] == 256 * 255, counts
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"runtime budget exceeded: {elapsed:.2f}s"
    report(5, f"8 plaintext pairs, every count = {256 * 255}", started)


def test_criterion_06_dual_seed_consistency_counts():
    started = time.perf_counter()
    counts, expected = helpers.dual_seed_counts(pairs=8)
    assert len(set(counts)) == 1, counts
    assert counts[0] == expected, counts
    report(6, f"8 plaintext pairs, every count = {expected}", started)


def test_criterion_07_rrsg_contract():
    started = time.perf_counter()
    rng = random.Random(715)
    for algorithm in (Algorithm.CHACHA20, Algorithm.TEST_LCG):
        seed = Seed.from_bytes(rng.randbytes(44))
        assert (
            new_stream(seed, algorithm).read(1_000_000)
            == new_stream(seed, algorithm).read(1_000_000)
        ), f"{algorithm.name} not repeatable"
        reference = new_stream(seed, algorithm).read(210_000)
        for _ in range(100):
            offset = rng.randrange(200_000)
            count = rng.randrange(512)
            stream = new_stream(seed, algorithm)
            stream.seek(offset)
            assert stream.read(count) == reference[offset : offset + count]
        data = new_stream(seed, algorithm).read(100_000)
        stat = helpers.chi_square_256(data)
        assert stat < helpers.CHI2_THRESHOLD_255_P999, (algorithm.name, stat)
    zero = Seed(b"\x00" * KEY_LEN, b"\x00" * NONCE_LEN)
    assert new_stream(zero, Algorithm.CHACHA20).read(128) == CHACHA_ZERO_128
    report(7, "repeatability, 100 seeks, chi-square, zero-seed vector", started)


def test_criterion_08_recover_range_equivalence():
    started = time.perf_counter()
    rng = random.Random(815)
    for dual in (False, True, False):
        m, n = 3, 5
        length = 64 * m - rng.randint(1, m)
        message = rng.randbytes(length)
        params = SchemeParams(n=n, m=m, dual_seed=dual)
        shares = split(message, params)
        padded = pad(message, m)
        assert len(padded) // m == 64
        for _ in range(20):
            start = rng.randrange(64)
            count = rng.randrange(64 - start + 1)
            subset = rng.sample(shares, m)
            got = recover_range(subset, start, count)
            assert got == padded[start * m : (start + count) * m], (start, count)
    report(8, "3 messages x 20 ranges, slices exact", started)


def _criterion_09_designated_errors():
    share = Share(
        params=SchemeParams(n=5, m=3),
        share_index=1,
        rrsg_algorithm=Algorithm.CHACHA20,
        key_share=secrets.token_bytes(44),
        payload=secrets.token_bytes(9),
    )
    blob = encode_share(share)

    def patched(offset, value, fix_crc=True):
        data = bytearray(blob)
        data[offset : offset + len(value)] = value
        if fix_crc:
            data[20:24] = struct.pack(">I", zlib.crc32(bytes(data[:20])))
        return bytes(data)

    cases = [
        (b"", TruncatedError),
        (blob[:23], TruncatedError),
        (blob[:-1], TruncatedError),
        (patched(0, b"XXXX", fix_crc=False), BadMagicError),
        (patched(7, b"\xff", fix_crc=False), ChecksumError),
        (patched(4, b"\x09"), VersionError),
        (patched(5, b"\xf0"), HeaderError),
        (patched(6, bytes([2, 3])), HeaderError),
        (patched(8, b"\x05"), HeaderError),
        (patched(9, b"\x42"), HeaderError),
        (patched(12, struct.pack(">Q", 1 << 62)), TruncatedError),
        (blob + b"junk", FormatError),
    ]
    for data, expected in cases:
        try:
            decode_share(data)
        except expected:
            continue
        raise AssertionError(f"expected {expected.__name__} for {data[:16]!r}...")
    return blob


def test_criterion_09_format_robustness_and_fuzz():
    started = time.perf_counter()
    blob = _criterion_09_designated_errors()
    budget = float(os.environ.get("SBSHARE_FUZZ_SECONDS", "600"))
    seed = secrets.randbits(64)
    rng = random.Random(seed)
    iterations = 0
    deadline = time.perf_counter() + budget
    while time.perf_counter() < deadline:
        for _ in range(2000):
            choice = rng.randrange(4)
            if choice == 0:
                data = rng.randbytes(rng.randrange(300))
            elif choice == 1:
                mutated = bytearray(blob)
                for _ in range(rng.randint(1, 8)):
                    mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
                data = bytes(mutated)
            elif choice == 2:
                data = (blob + rng.randbytes(32))[: rng.randrange(len(blob) + 32)]
            else:
                head = rng.randbytes(20)
                data = head + struct.pack(">I", zlib.crc32(head)) + rng.randbytes(rng.randrange(80))
            try:
                share = decode_share(data)
            except FormatError:
                pass
            except Exception as exc:  # noqa: BLE001 - the fuzz contract
                raise AssertionError(
                    f"non-FormatError {type(exc).__name__} (fuzz seed {seed}): {exc}"
                ) from exc
            else:
                assert encode_share(share) == data, f"non-canonical decode (fuzz seed {seed})"
            iterations += 1
    report(9, f"designated errors + {iterations} fuzz inputs, no crash", started)


def test_criterion_10_throughput_smoke():
    message = secrets.token_bytes(1 << 20)
    params = SchemeParams(n=5, m=3)
    started = time.perf_counter()
    shares = split(message, params)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"1 MiB split took {elapsed:.2f}s"
    assert combine(shares[:3]) == message
    report(10, f"1 MiB split in {elapsed:.2f}s", started)
