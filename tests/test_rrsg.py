"""Keystream generator tests: golden vectors, repeatability, seeking."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CHI2_THRESHOLD_255_P999, chacha20_reference, chi_square_256
from sbshare import rrsg
from sbshare.rrsg import (
    KEY_LEN,
    NONCE_LEN,
    SEED_LEN,
    Algorithm,
    Seed,
    check_capacity,
    new_stream,
)
from sbshare.scheme import split
from sbshare.shamir import SchemeParams

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
        # the library and cryptography both run OpenSSL; the numpy
        # reference shares no code with either
        stream = new_stream(seed, Algorithm.CHACHA20)
        stream.seek(offset)
        words = stream.read(count)
        assert words == chacha_oracle(seed, offset, count)
        assert words == chacha20_reference(seed, offset, count)

    def test_huge_offset_spans_blocks(self):
        seed = Seed.generate()
        stream = new_stream(seed, Algorithm.CHACHA20)
        offset = 64 * 100000 - 3
        stream.seek(offset)
        assert stream.read(130) == chacha_oracle(seed, offset, 130)

    @pytest.mark.parametrize("offset", [0, 37, 64 * 16383 + 5])
    def test_long_read_spans_batch_seams(self, offset):
        # The keystream is fed to OpenSSL 16384 blocks (1 MiB) at a time;
        # these reads cross one or two of those seams at different alignments.
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


def oracle(algorithm, seed: Seed, offset: int, count: int) -> bytes:
    if algorithm == Algorithm.CHACHA20:
        return chacha_oracle(seed, offset, count)
    return lcg_oracle(seed, offset + count)[offset:]


class TestTwoSeeds:
    """One stream over two seeds: block b is seed 0's words of block b, then seed 1's."""

    SEEDS = [Seed(bytes(range(KEY_LEN)), b"\x01" * NONCE_LEN), Seed(b"\x5a" * KEY_LEN, b"\x02" * NONCE_LEN)]

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    @pytest.mark.parametrize("widths", [(16, 36), (3, 9), (1, 1), (100, 7)])
    @pytest.mark.parametrize("cap", [1, 3, rrsg._UPDATE_BLOCKS])
    def test_matches_the_per_block_join_of_the_seeds(self, monkeypatch, algorithm, widths, cap):
        # the oracle's layout, main.read(w0) + aux.read(w1) a block at a
        # time, at offsets off a block and off 64 words, over caps on the
        # 64-word blocks per OpenSSL update that put seams inside the
        # seeds' runs
        monkeypatch.setattr(rrsg, "_UPDATE_BLOCKS", cap)
        (w0, w1), nblocks = widths, 200
        main = oracle(algorithm, self.SEEDS[0], 0, nblocks * w0)
        aux = oracle(algorithm, self.SEEDS[1], 0, nblocks * w1)
        joined = b"".join(
            main[b * w0 : (b + 1) * w0] + aux[b * w1 : (b + 1) * w1] for b in range(nblocks)
        )
        width = w0 + w1
        stream = new_stream(self.SEEDS, algorithm, widths)
        assert stream.read(len(joined)) == joined
        reads = [(0, 0), (0, width), (5, 1), (width + 3, 2 * width), (64 * 3 + 1, 130), (7, 40 * width - 9)]
        for offset, count in reads:
            stream.seek(offset)
            assert stream.read(count) == joined[offset : offset + count]
            assert stream.position == offset + count

    def test_one_seed_is_its_own_stream_whatever_its_width(self):
        seed = self.SEEDS[0]
        for width in (1, 7, 64):
            stream = new_stream([seed], Algorithm.CHACHA20, (width,))
            stream.seek(5)
            assert stream.read(200) == chacha_oracle(seed, 5, 200)

    def test_long_read_crosses_the_batch_cap(self):
        # more than 16384 ChaCha20 blocks in one read, seed 0's run ending
        # past its first update seam
        widths = (48, 4)
        nblocks = 64 * 16384 // 48 + 100
        main = chacha_oracle(self.SEEDS[0], 0, nblocks * 48)
        aux = chacha_oracle(self.SEEDS[1], 0, nblocks * 4)
        stream = new_stream(self.SEEDS, Algorithm.CHACHA20, widths)
        joined = np.hstack(
            [np.frombuffer(main, np.uint8).reshape(nblocks, 48), np.frombuffer(aux, np.uint8).reshape(nblocks, 4)]
        )
        assert stream.read(nblocks * 52) == joined.tobytes()

    @pytest.mark.parametrize("widths", [(64, 128), (128, 64)])
    def test_either_seed_running_out_raises_and_keeps_the_position(self, widths):
        # the wider seed uses its last word at block 2^38 / max(widths) - 1
        last = (1 << 38) // max(widths) - 1
        width = sum(widths)
        stream = new_stream(self.SEEDS, Algorithm.CHACHA20, widths)
        stream.seek(last * width)
        words = stream.read(width)
        w0 = widths[0]
        assert words[:w0] == chacha_oracle(self.SEEDS[0], last * w0, w0)
        assert words[w0:] == chacha_oracle(self.SEEDS[1], last * widths[1], widths[1])
        for offset, count in [(last * width, width + 1), ((last + 1) * width, 1)]:
            stream.seek(offset)
            with pytest.raises(ValueError, match="exhausted"):
                stream.read(count)
            assert stream.position == offset

    def test_needs_one_positive_width_per_seed(self):
        for seeds, widths in [(self.SEEDS, (1,)), (self.SEEDS, (1, 2, 3)), (self.SEEDS, (0, 4)), ([], ())]:
            with pytest.raises(ValueError, match="need one positive width per seed"):
                new_stream(seeds, Algorithm.CHACHA20, widths)


class TestLibcrypto:
    """The keystream is OpenSSL's ChaCha20, and it never returns unmasked words."""

    SEED = Seed(bytes(range(KEY_LEN)), bytes(range(100, 100 + NONCE_LEN)))

    @pytest.mark.parametrize("name", ["EVP_CIPHER_CTX_new", "EVP_EncryptInit_ex", "EVP_EncryptUpdate"])
    def test_a_failed_call_raises(self, monkeypatch, name):
        def failed(*args):
            if name == "EVP_EncryptUpdate":
                args[2]._obj.value = args[4]  # every byte reported written
            return 0

        monkeypatch.setattr(rrsg, "_" + name, failed)
        stream = new_stream([self.SEED, self.SEED], Algorithm.CHACHA20, (3, 9))
        stream.seek(5)
        with pytest.raises(RuntimeError, match=name):
            stream.read(100)
        assert stream.position == 5
        with pytest.raises(RuntimeError, match=name):
            split(b"a secret", SchemeParams(n=5, m=3))

    def test_a_short_update_raises(self, monkeypatch):
        # success, but fewer bytes written than asked for
        def short(ctx, out, written, inp, length):
            written._obj.value = length - 1
            return 1

        monkeypatch.setattr(rrsg, "_EVP_EncryptUpdate", short)
        with pytest.raises(RuntimeError, match="EVP_EncryptUpdate"):
            new_stream(self.SEED, Algorithm.CHACHA20).read(64)

    def test_update_pieces_are_whole_blocks_under_the_cap(self, monkeypatch):
        # EVP_EncryptUpdate's length is a C int
        assert rrsg._UPDATE_BLOCKS * 64 <= 2**31 - 1
        monkeypatch.setattr(rrsg, "_UPDATE_BLOCKS", 3)
        lengths = []
        update = rrsg._EVP_EncryptUpdate

        def recorded(ctx, out, written, inp, length):
            lengths.append(length)
            return update(ctx, out, written, inp, length)

        monkeypatch.setattr(rrsg, "_EVP_EncryptUpdate", recorded)
        stream = new_stream(self.SEED, Algorithm.CHACHA20)
        stream.seek(70)
        assert stream.read(700) == chacha_oracle(self.SEED, 70, 700)
        # 6 words skipped in block 1, then 706 words from it
        assert lengths == [192, 192, 192, 130]

    def test_an_unusable_libcrypto_fails_the_import_check(self, monkeypatch):
        monkeypatch.setattr(rrsg, "_EVP_EncryptUpdate", lambda *args: 0)
        with pytest.raises(ImportError, match="unusable"):
            rrsg._check_libcrypto()

    def test_another_iv_layout_fails_the_import_check(self, monkeypatch):
        # the nonce first and the counter last, as some libraries lay out the IV
        init = rrsg._EVP_EncryptInit_ex

        def swapped(ctx, cipher, engine, key, iv):
            return init(ctx, cipher, engine, key, iv[4:] + iv[:4])

        monkeypatch.setattr(rrsg, "_EVP_EncryptInit_ex", swapped)
        with pytest.raises(ImportError, match="RFC 8439"):
            rrsg._check_libcrypto()

    @staticmethod
    def fresh_interpreter(child: str) -> str:
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_import_fails_on_a_failing_libcrypto(self):
        # the import-time check runs on import: here every EVP_EncryptUpdate fails
        child = (
            "import ctypes\n"
            "real = ctypes.CDLL\n"
            "class Failing:\n"
            "    def __init__(self, path):\n"
            "        self.lib = real(path)\n"
            "    def __getattr__(self, name):\n"
            "        if name == 'EVP_EncryptUpdate':\n"
            "            return lambda *args: 0\n"
            "        return getattr(self.lib, name)\n"
            "ctypes.CDLL = Failing\n"
            "try:\n"
            "    import sbshare\n"
            "except ImportError as exc:\n"
            "    print(exc)\n"
        )
        out = self.fresh_interpreter(child)
        assert "ChaCha20 is unusable" in out and "EVP_EncryptUpdate failed" in out, out

    def test_no_new_library_is_loaded(self):
        # a fresh interpreter: sbshare brings in neither cryptography nor
        # a libcrypto other than the one that _hashlib maps
        child = (
            "import json, os, sys\n"
            "def libcrypto():\n"
            "    if not os.path.exists('/proc/self/maps'):\n"
            "        return None\n"
            "    with open('/proc/self/maps') as f:\n"
            "        return sorted({line.split()[-1] for line in f if 'libcrypto' in line})\n"
            "import _hashlib\n"
            "before = libcrypto()\n"
            "import sbshare\n"
            "sbshare.split(bytes(32), sbshare.SchemeParams(n=5, m=3))\n"
            "print(json.dumps(['cryptography' in sys.modules, before, libcrypto()]))\n"
        )
        imported, before, after = json.loads(self.fresh_interpreter(child))
        assert not imported
        if before is not None:
            assert len(before) == 1 and after == before, (before, after)


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

    @pytest.mark.parametrize("state", [0, 1, 0x0123456789ABCDEF, (1 << 64) - 1])
    def test_jump_is_k_steps_of_the_recurrence(self, state):
        # a read's first state comes from _lcg_jump alone, in closed form
        s = state
        for k in range(5001):
            assert rrsg._lcg_jump(state, k) == s, k
            s = (s * 6364136223846793005 + 1442695040888963407) % (1 << 64)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=1 << 64),
        st.integers(min_value=0, max_value=1 << 64),
    )
    def test_jumps_compose(self, state, a, b):
        # seeks far past any read the recurrence tests can replay
        assert rrsg._lcg_jump(rrsg._lcg_jump(state, a), b) == rrsg._lcg_jump(state, a + b)

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
