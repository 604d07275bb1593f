"""The chunk walks at a few blocks per chunk, against the whole-message oracle.

Every split and recovery, in the library and in the CLI, runs one chunk
walk per direction over _engine.chunks, which cuts a run into chunks of
max(1, _CHUNK_WORDS // words_per_block) blocks.  Here _CHUNK_WORDS is
shrunk so a chunk holds CHUNK blocks, and messages of K * CHUNK - 1,
K * CHUNK and K * CHUNK + 1 blocks run through the library and the CLI,
as does one of K * CHUNK * m bytes, whose last chunk is its padding
block alone.
Every share payload, combine and range read must equal the scalar
reference pipelines of tests/helpers.py, which know nothing of chunks.
The library also runs over shares left in their files by open_share.
"""

import array
import secrets
import tracemalloc
from contextlib import ExitStack

import pytest

import helpers
from sbshare import _engine
from sbshare.cli import EXIT_OK, main
from sbshare.scheme import combine, pad, recover_range, split
from sbshare.shamir import FieldPolicy, SchemeParams
from sbshare.share_format import decode_share, encode_share, open_share

CHUNK = 4
K = 3
PARAMS = [
    SchemeParams(n=5, m=3),
    SchemeParams(n=5, m=3, dual_seed=True),
    SchemeParams(n=6, m=2, field_policy=FieldPolicy.FIXED_CANONICAL, dual_seed=True),
]


# (blocks once padded, whether the message fills all but its padding block)
SIZES = [pytest.param(b, False, id=str(b)) for b in (K * CHUNK - 1, K * CHUNK, K * CHUNK + 1)]
SIZES.append(pytest.param(K * CHUNK + 1, True, id=f"{K * CHUNK + 1}-padding-only"))


def message_of(nblocks, whole, m):
    """Random bytes that pad to nblocks blocks: whole ones, or m - 1 bytes in the last."""
    return secrets.token_bytes(nblocks * m - (m if whole else 1))


@pytest.fixture
def small_chunks(monkeypatch):
    def shrink(params):
        monkeypatch.setattr(_engine, "_CHUNK_WORDS", CHUNK * params.words_per_block)

    return shrink


def ranges(nblocks):
    """(start, count) windows that start, end and cross on the split's chunk seams.

    A range read's own chunks count from its first block.
    """
    seam = CHUNK * (K - 1)
    return [
        (0, nblocks),
        (CHUNK, CHUNK),  # starts and ends on seams
        (CHUNK, 1),  # starts on a seam
        (1, CHUNK - 1),  # ends on a seam
        (CHUNK - 1, 2),  # crosses one seam
        (CHUNK - 1, CHUNK + 2),  # crosses two
        (seam, nblocks - seam),  # the last chunk, from its seam
        (nblocks - 1, 1),
        (3, 0),
    ]


def in_files(stack, tmp_path, shares):
    """shares written to .sbs1 files and opened with open_share, payloads left in the files."""
    opened = []
    for share in shares:
        path = tmp_path / f"share.{share.share_index}.sbs1"
        path.write_bytes(encode_share(share))
        opened.append(open_share(stack.enter_context(open(path, "rb"))))
    return opened


def subset_of(shares, m):
    """m shares in shuffled order that are not the first m by index."""
    chosen = secrets.SystemRandom().sample(shares, m)
    while sorted(s.share_index for s in chosen) == list(range(m)):
        chosen = secrets.SystemRandom().sample(shares, m)
    return chosen


@pytest.mark.parametrize("params", PARAMS, ids=["single", "dual", "dual-fixed"])
@pytest.mark.parametrize("nblocks,whole", SIZES)
def test_library_matches_oracle(small_chunks, params, nblocks, whole):
    small_chunks(params)
    message = message_of(nblocks, whole, params.m)
    padded = pad(message, params.m)
    shares = split(message, params)
    assert shares[0].block_count == nblocks
    key_material = helpers.recovered_key_material(shares)
    expected = helpers.reference_payloads(key_material, params, padded)
    assert [s.payload for s in shares] == expected
    subset = subset_of(shares, params.m)
    assert helpers.reference_padded(subset) == padded
    assert combine(subset) == message
    m = params.m
    for start, count in ranges(nblocks):
        assert recover_range(subset, start, count) == padded[start * m : (start + count) * m]


@pytest.mark.parametrize("params", PARAMS, ids=["single", "dual", "dual-fixed"])
@pytest.mark.parametrize("nblocks,whole", SIZES)
def test_library_over_files_matches_oracle(small_chunks, tmp_path, params, nblocks, whole):
    small_chunks(params)
    m = params.m
    message = message_of(nblocks, whole, m)
    subset = subset_of(split(message, params), m)
    padded = helpers.reference_padded(subset)
    with ExitStack() as stack:
        opened = in_files(stack, tmp_path, subset)
        assert combine(opened) == message
        for start, count in ranges(nblocks):
            assert recover_range(opened, start, count) == padded[start * m : (start + count) * m]


@pytest.mark.parametrize("params", PARAMS, ids=["single", "dual", "dual-fixed"])
@pytest.mark.parametrize("nblocks,whole", SIZES)
def test_cli_matches_oracle(small_chunks, tmp_path, params, nblocks, whole):
    small_chunks(params)
    m = params.m
    source = tmp_path / "message.bin"
    message = message_of(nblocks, whole, m)
    source.write_bytes(message)
    flags = ["--dual-seed"] * params.dual_seed
    flags += ["--fixed-field"] * (params.field_policy == FieldPolicy.FIXED_CANONICAL)
    argv = ["split", str(source), "-n", str(params.n), "-m", str(m), "-o", str(tmp_path), *flags]
    assert main(argv) == EXIT_OK
    paths = [tmp_path / f"message.{i}.sbs1" for i in range(params.n)]
    shares = [decode_share(p.read_bytes()) for p in paths]
    assert all(s.params == params for s in shares)
    padded = pad(message, m)
    key_material = helpers.recovered_key_material(shares)
    expected = helpers.reference_payloads(key_material, params, padded)
    assert [s.payload for s in shares] == expected

    chosen = [str(paths[s.share_index]) for s in subset_of(shares, m)]
    out = tmp_path / "out.bin"
    assert main(["combine", *chosen, "-o", str(out)]) == EXIT_OK
    assert out.read_bytes() == message
    for start, count in ranges(nblocks):
        assert main(["combine", *chosen, "-o", str(out), "--range", f"{start}:{count}"]) == EXIT_OK
        assert out.read_bytes() == padded[start * m : (start + count) * m]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["message.bin", "out.bin"] + [p.name for p in paths]
    )


@pytest.mark.parametrize(
    "params",
    [*PARAMS, SchemeParams(n=32, m=16, dual_seed=True)],
    ids=["single", "dual", "dual-fixed", "wide-dual"],
)
@pytest.mark.parametrize("end", ["lowest", "highest"])
def test_recovery_from_the_lowest_or_highest_shares_matches_oracle(small_chunks, params, end):
    # recovery derives points only up to the highest share index it
    # reads: the m lowest-numbered shares need m points, the m highest all n
    small_chunks(params)
    m, nblocks = params.m, K * CHUNK + 1
    message = secrets.token_bytes(nblocks * m - 1)
    shares = split(message, params)
    subset = shares[:m] if end == "lowest" else shares[-m:]
    padded = helpers.reference_padded(subset)
    assert padded == pad(message, m)
    assert combine(subset[::-1]) == message
    for start, count in ranges(nblocks):
        assert recover_range(subset, start, count) == padded[start * m : (start + count) * m]


def test_chunk_size_follows_the_block_width(small_chunks, monkeypatch):
    # chunks are CHUNK blocks whatever the shape, and one block when a
    # block is wider than _CHUNK_WORDS
    for params in PARAMS:
        small_chunks(params)
        got = list(_engine.chunks(params, 0, 2 * CHUNK + 1))
        assert got == [(0, CHUNK), (CHUNK, CHUNK), (2 * CHUNK, 1)]
        assert list(_engine.chunks(params, 3, 0)) == []
    monkeypatch.setattr(_engine, "_CHUNK_WORDS", 1)
    assert list(_engine.chunks(PARAMS[0], 5, 3)) == [(5, 1), (6, 1), (7, 1)]


def test_every_op_calls_the_engine_once_per_chunk(small_chunks, monkeypatch, tmp_path):
    # library and CLI ops run the same walk of their direction, one engine
    # call a chunk: K * CHUNK + 1 blocks are K + 1 chunks
    params = PARAMS[0]
    small_chunks(params)
    calls = []
    for name in ("split_payloads", "recover_padded"):

        def counted(*args, name=name, fn=getattr(_engine, name)):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(_engine, name, counted)

    def ran(expected):
        assert calls == expected
        calls.clear()

    message = secrets.token_bytes((K * CHUNK + 1) * params.m - 1)
    shares = split(message, params)
    ran(["split_payloads"] * (K + 1))
    assert combine(shares[2:]) == message
    ran(["recover_padded"] * (K + 1))
    recover_range(shares[2:], 1, 2 * CHUNK + 1)  # chunks count from the range's first block
    ran(["recover_padded"] * 3)
    with ExitStack() as stack:  # the same walk over payloads left in their files
        opened = in_files(stack, tmp_path, shares[2:])
        assert combine(opened) == message
        ran(["recover_padded"] * (K + 1))
        recover_range(opened, 1, 2 * CHUNK + 1)
        ran(["recover_padded"] * 3)

    source = tmp_path / "message.bin"
    source.write_bytes(message)
    assert main(["split", str(source), "-n", "5", "-m", "3"]) == EXIT_OK
    ran(["split_payloads"] * (K + 1))
    chosen = [str(tmp_path / f"message.{i}.sbs1") for i in (0, 2, 4)]
    assert main(["combine", *chosen, "-o", str(tmp_path / "out.bin")]) == EXIT_OK
    ran(["recover_padded"] * (K + 1))
    assert (tmp_path / "out.bin").read_bytes() == message
    assert main(["combine", *chosen, "-o", str(tmp_path / "out.bin"), "--range", "1:1"]) == EXIT_OK
    ran(["recover_padded"])


def test_library_split_and_combine_peak_memory():
    # tracemalloc peaks as multiples of the message.  At n=5, m=3 and
    # 1 MiB, split holds the payloads, 5/3 of the message, and joins them
    # one share at a time; combine holds the plaintext chunks and their
    # join.  Each also holds one chunk's working set, about 0.65 MiB.
    # split reads a bytearray or memoryview in place as it does bytes,
    # copying only the padded last chunk.  At n=32, m=16 with two seeds
    # and 64 KiB, one chunk's working set is most of the peak: about
    # 14.5x for split and 11.8x for combine.  Masks that kept the whole
    # (B, m + n + 4) keystream read alive would take them to about 16.8x
    # and 14.1x.
    def peak_of(op, size):
        tracemalloc.start()
        try:
            return op(), tracemalloc.get_traced_memory()[1] / size
        finally:
            tracemalloc.stop()

    message = secrets.token_bytes(1 << 20)
    cases = [
        (SchemeParams(n=5, m=3), given, 3, 2.25)
        for given in (message, bytearray(message), memoryview(bytearray(message)))
    ]
    cases.append((SchemeParams(n=32, m=16, dual_seed=True), secrets.token_bytes(1 << 16), 16, 13))
    for params, given, split_bound, combine_bound in cases:
        size = memoryview(given).nbytes
        shares, split_peak = peak_of(lambda: split(given, params), size)
        recovered, combine_peak = peak_of(lambda: combine(shares[1 : params.m + 1]), size)
        assert recovered == given
        kind = (params.n, params.m, type(given).__name__)
        assert split_peak < split_bound and combine_peak < combine_bound, (kind, split_peak, combine_peak)


@pytest.mark.parametrize("n,m", [(5, 3), (4, 4)])
def test_split_of_a_buffer_of_wide_items_round_trips(small_chunks, n, m):
    # len() of a memoryview over 4-byte items counts items, not bytes;
    # split must take every byte, across several chunks.  At m=4 the
    # message fills whole blocks, so the last chunk is padding only.
    params = SchemeParams(n=n, m=m)
    small_chunks(params)
    words = array.array("I", range(7 * CHUNK * m + 1))
    shares = split(memoryview(words), params)
    assert combine(shares[:m]) == words.tobytes()
