"""Keystream generator tests: golden vectors, repeatability, seeking."""

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CHI2_THRESHOLD_255_P999, chi_square_256
from sbshare.rrsg import (
    KEY_LEN,
    NONCE_LEN,
    SEED_LEN,
    Algorithm,
    Seed,
    check_capacity,
    new_stream,
)

ZERO_SEED = Seed(b"\x00" * KEY_LEN, b"\x00" * NONCE_LEN)

# Published keystream for the all-zero key and nonce, blocks 0 and 1.
CHACHA_ZERO_BLOCK0 = bytes.fromhex(
    "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
    "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
)
CHACHA_ZERO_BLOCK1 = bytes.fromhex(
    "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
    "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"
)

seeds = st.binary(min_size=SEED_LEN, max_size=SEED_LEN).map(Seed.from_bytes)
algorithms_st = st.sampled_from([Algorithm.CHACHA20, Algorithm.TEST_LCG])


def chacha_oracle(seed: Seed, offset: int, count: int) -> bytes:
    """Independent keystream via the cryptography package.

    Its ChaCha20 takes a 16-byte nonce holding the little-endian block
    counter in the first 4 bytes.
    """
    block, skip = divmod(offset, 64)
    full_nonce = block.to_bytes(4, "little") + seed.nonce
    enc = Cipher(algorithms.ChaCha20(seed.key, full_nonce), mode=None).encryptor()
    return enc.update(b"\x00" * (skip + count))[skip:]


def lcg_oracle(seed: Seed, count: int) -> bytes:
    """The defining recurrence, evaluated directly."""
    s = int.from_bytes(seed.key[:8], "big")
    out = bytearray()
    for _ in range(count):
        s = (s * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        out.append((s >> 33) & 0xFF)
    return bytes(out)


class TestSeed:
    def test_lengths_enforced(self):
        with pytest.raises(ValueError):
            Seed(b"\x00" * 31, b"\x00" * NONCE_LEN)
        with pytest.raises(ValueError):
            Seed(b"\x00" * KEY_LEN, b"\x00" * 11)
        with pytest.raises(ValueError):
            Seed.from_bytes(b"\x00" * 43)

    def test_serialization_round_trip(self):
        seed = Seed.generate()
        assert Seed.from_bytes(seed.to_bytes()) == seed
        assert len(seed.to_bytes()) == SEED_LEN == 44

    def test_generate_draws_fresh_material(self):
        assert Seed.generate() != Seed.generate()


class TestChaCha20:
    def test_zero_seed_golden_blocks(self):
        stream = new_stream(ZERO_SEED, Algorithm.CHACHA20)
        assert stream.read(16) == CHACHA_ZERO_BLOCK0[:16]
        assert stream.read(112) == CHACHA_ZERO_BLOCK0[16:] + CHACHA_ZERO_BLOCK1

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=700))
    def test_matches_cryptography_package(self, seed, offset, count):
        stream = new_stream(seed, Algorithm.CHACHA20)
        stream.seek(offset)
        assert stream.read(count) == chacha_oracle(seed, offset, count)

    def test_huge_offset_spans_blocks(self):
        seed = Seed.generate()
        stream = new_stream(seed, Algorithm.CHACHA20)
        offset = 64 * 100000 - 3
        stream.seek(offset)
        assert stream.read(130) == chacha_oracle(seed, offset, 130)

    @pytest.mark.parametrize("offset", [0, 37, 64 * 16383 + 5])
    def test_long_read_spans_batch_seams(self, offset):
        # The keystream is computed 16384 blocks (1 MiB) at a time; these
        # reads cross one or two of those seams at different alignments.
        seed = Seed(bytes(range(KEY_LEN)), bytes(range(100, 100 + NONCE_LEN)))
        stream = new_stream(seed, Algorithm.CHACHA20)
        stream.seek(offset)
        count = 2**20 + 200
        assert stream.read(count) == chacha_oracle(seed, offset, count)
        assert stream.position == offset + count

    def test_counter_exhaustion(self):
        seed = Seed(b"\x11" * KEY_LEN, b"\x22" * NONCE_LEN)
        end = 64 * 2**32
        stream = new_stream(seed, Algorithm.CHACHA20)
        stream.seek(end - 10)
        # the last 10 bytes of block 0xFFFFFFFF are still in range
        assert stream.read(10) == chacha_oracle(seed, end - 10, 10)
        stream.seek(end - 10)
        with pytest.raises(ValueError, match="exhausted"):
            stream.read(11)
        assert stream.position == end - 10
        stream.seek(end)
        assert stream.read(0) == b""
        with pytest.raises(ValueError, match="exhausted"):
            stream.read(1)
        assert stream.position == end


class TestCapacity:
    """check_capacity: the up-front form of the counter exhaustion above."""

    @pytest.mark.parametrize("width", [1, 7, 260, 1 << 38])
    def test_chacha20_exactly_at_the_limit(self, width):
        nblocks = (1 << 38) // width
        check_capacity(Algorithm.CHACHA20, nblocks, (width,))
        with pytest.raises(ValueError, match="2\\^38"):
            check_capacity(Algorithm.CHACHA20, nblocks + 1, (width,))

    def test_every_stream_is_checked(self):
        # two seeds: main gives m words per block, aux n + 4
        nblocks = (1 << 38) // 8
        check_capacity(Algorithm.CHACHA20, nblocks, (3, 8))
        with pytest.raises(ValueError):
            check_capacity(Algorithm.CHACHA20, nblocks, (3, 9))
        with pytest.raises(ValueError):
            check_capacity(Algorithm.CHACHA20, nblocks, (9, 3))

    def test_limit_matches_the_stream(self):
        # the last word the check allows is the last word a stream reads
        seed = Seed(b"\x11" * KEY_LEN, b"\x22" * NONCE_LEN)
        width = 64
        nblocks = (1 << 38) // width
        check_capacity(Algorithm.CHACHA20, nblocks, (width,))
        stream = new_stream(seed, Algorithm.CHACHA20)
        stream.seek((nblocks - 1) * width)
        assert len(stream.read(width)) == width
        with pytest.raises(ValueError, match="exhausted"):
            stream.read(1)

    def test_test_lcg_never_ends(self):
        check_capacity(Algorithm.TEST_LCG, 1 << 60, (1 << 10, 1 << 10))


class TestLcg:
    def test_zero_seed_golden(self):
        stream = new_stream(ZERO_SEED, Algorithm.TEST_LCG)
        assert stream.read(16).hex() == "bf0811746d9bb8c7e09b4fd2063d341e"

    def test_low_byte_seed_golden(self):
        seed = Seed(bytes(range(1, 9)) + b"\x00" * 24, b"\x00" * NONCE_LEN)
        stream = new_stream(seed, Algorithm.TEST_LCG)
        assert stream.read(8).hex() == "59cafc58abdbce27"

    @settings(max_examples=25, deadline=None)
    @given(seeds, st.integers(min_value=0, max_value=9000), st.integers(min_value=0, max_value=300))
    def test_matches_recurrence(self, seed, offset, count):
        stream = new_stream(seed, Algorithm.TEST_LCG)
        stream.seek(offset)
        assert stream.read(count) == lcg_oracle(seed, offset + count)[offset:]

    @pytest.mark.parametrize("offset", [0, 4093, 9000])
    def test_long_read_spans_batch_seams(self, offset):
        # States are computed 4096 steps at a time; these reads cross
        # three of those seams at different alignments.
        seed = Seed(bytes(range(KEY_LEN)), bytes(NONCE_LEN))
        stream = new_stream(seed, Algorithm.TEST_LCG)
        stream.seek(offset)
        count = 3 * 4096 + 5
        assert stream.read(count) == lcg_oracle(seed, offset + count)[offset:]

    def test_only_first_eight_key_bytes_matter(self):
        # The recurrence is seeded from key[:8] alone by definition.
        a = new_stream(Seed(b"\x07" * KEY_LEN, b"\x00" * NONCE_LEN), Algorithm.TEST_LCG)
        b = new_stream(
            Seed(b"\x07" * 8 + b"\xff" * 24, b"\xee" * NONCE_LEN), Algorithm.TEST_LCG
        )
        assert a.read(256) == b.read(256)


class TestStreamContract:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            new_stream(ZERO_SEED, 0xFF)

    @given(seeds, algorithms_st)
    @settings(max_examples=20, deadline=None)
    def test_repeatable(self, seed, algorithm):
        a = new_stream(seed, algorithm)
        b = new_stream(seed, algorithm)
        assert a.read(1000) == b.read(1000)

    @given(
        seeds,
        algorithms_st,
        st.integers(min_value=0, max_value=20000),
        st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_seek_consistency(self, seed, algorithm, offset, count):
        fresh = new_stream(seed, algorithm)
        reference = fresh.read(offset + count)[offset:]
        stream = new_stream(seed, algorithm)
        stream.seek(offset)
        assert stream.read(count) == reference

    def test_seek_zero_is_noop(self):
        stream = new_stream(ZERO_SEED, Algorithm.CHACHA20)
        stream.seek(0)
        assert stream.read(16) == CHACHA_ZERO_BLOCK0[:16]

    def test_seek_backward_after_reading(self):
        for algorithm in Algorithm:
            stream = new_stream(ZERO_SEED, algorithm)
            first = stream.read(300)
            stream.seek(10)
            assert stream.read(40) == first[10:50]

    def test_negative_seek_rejected(self):
        stream = new_stream(ZERO_SEED, Algorithm.CHACHA20)
        with pytest.raises(ValueError):
            stream.seek(-1)

    def test_zero_read(self):
        for algorithm in Algorithm:
            stream = new_stream(ZERO_SEED, algorithm)
            stream.read(7)
            assert stream.read(0) == b""
            assert stream.position == 7

    def test_negative_read_rejected(self):
        for algorithm in Algorithm:
            stream = new_stream(ZERO_SEED, algorithm)
            stream.seek(5)
            with pytest.raises(ValueError):
                stream.read(-1)
            assert stream.position == 5

    def test_chained_reads_equal_one_read(self):
        for algorithm in Algorithm:
            stream = new_stream(ZERO_SEED, algorithm)
            chained = stream.read(100) + stream.read(5000) + stream.read(1)
            assert stream.position == 5101
            assert chained == new_stream(ZERO_SEED, algorithm).read(5101)

    def test_position_tracks_reads(self):
        stream = new_stream(ZERO_SEED, Algorithm.CHACHA20)
        assert stream.position == 0
        stream.read(13)
        assert stream.position == 13
        stream.seek(1000)
        assert stream.position == 1000
        stream.read(24)
        assert stream.position == 1024

    def test_one_byte_seed_change_diverges(self):
        # For the LCG only the first 8 key bytes feed the state, so the
        # flip must land there; the cipher uses the whole seed.
        base = bytearray(44)
        for algorithm, flip_at in ((Algorithm.CHACHA20, 40), (Algorithm.CHACHA20, 3), (Algorithm.TEST_LCG, 5)):
            other = bytearray(base)
            other[flip_at] ^= 0x01
            a = new_stream(Seed.from_bytes(bytes(base)), algorithm)
            b = new_stream(Seed.from_bytes(bytes(other)), algorithm)
            assert a.read(64) != b.read(64)


class TestUniformity:
    def test_chi_square_100k(self):
        seed = Seed(b"\x5a" * KEY_LEN, b"\xa5" * NONCE_LEN)
        for algorithm in Algorithm:
            data = new_stream(seed, algorithm).read(100_000)
            assert chi_square_256(data) < CHI2_THRESHOLD_255_P999
