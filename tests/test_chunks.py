"""The chunk loop at a few blocks per chunk, against the whole-message oracle.

_engine.transform_chunks walks every split and recovery in chunks of
max(1, _CHUNK_WORDS // words_per_block) blocks.  Here _CHUNK_WORDS is
shrunk so a chunk holds CHUNK blocks, and messages of k * CHUNK - 1,
k * CHUNK and k * CHUNK + 1 blocks run through the library and the CLI.
Every share payload, combine and range read must equal the scalar
reference pipelines of tests/helpers.py, which know nothing of chunks.
"""

import secrets

import pytest

import helpers
from sbshare import _engine
from sbshare.cli import EXIT_OK, main
from sbshare.rrsg import Algorithm
from sbshare.scheme import combine, pad, recover_range, split
from sbshare.shamir import FieldPolicy, SchemeParams
from sbshare.share_format import decode_share

CHUNK = 4
K = 3
PARAMS = [
    SchemeParams(n=5, m=3),
    SchemeParams(n=5, m=3, dual_seed=True),
    SchemeParams(n=6, m=2, field_policy=FieldPolicy.FIXED_CANONICAL, dual_seed=True),
]


@pytest.fixture
def small_chunks(monkeypatch):
    def shrink(params):
        monkeypatch.setattr(_engine, "_CHUNK_WORDS", CHUNK * params.words_per_block)

    return shrink


def ranges(nblocks):
    """(start, count) windows that start, end and cross on chunk seams."""
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


def subset_of(shares, m):
    """m shares in shuffled order that are not the first m by index."""
    chosen = secrets.SystemRandom().sample(shares, m)
    while sorted(s.share_index for s in chosen) == list(range(m)):
        chosen = secrets.SystemRandom().sample(shares, m)
    return chosen


@pytest.mark.parametrize("params", PARAMS, ids=["single", "dual", "dual-fixed"])
@pytest.mark.parametrize("nblocks", [K * CHUNK - 1, K * CHUNK, K * CHUNK + 1])
def test_library_matches_oracle(small_chunks, params, nblocks):
    small_chunks(params)
    message = secrets.token_bytes(nblocks * params.m - 1)
    padded = pad(message, params.m)
    shares = split(message, params)
    assert shares[0].block_count == nblocks
    key_material = helpers.recovered_key_material(shares)
    expected = helpers.reference_payloads(key_material, Algorithm.CHACHA20, params, padded)
    assert [s.payload for s in shares] == expected
    subset = subset_of(shares, params.m)
    assert helpers.reference_padded(subset) == padded
    assert combine(subset) == message
    m = params.m
    for start, count in ranges(nblocks):
        assert recover_range(subset, start, count) == padded[start * m : (start + count) * m]


@pytest.mark.parametrize("params", PARAMS, ids=["single", "dual", "dual-fixed"])
@pytest.mark.parametrize("nblocks", [K * CHUNK - 1, K * CHUNK, K * CHUNK + 1])
def test_cli_matches_oracle(small_chunks, tmp_path, params, nblocks):
    small_chunks(params)
    m = params.m
    source = tmp_path / "message.bin"
    message = secrets.token_bytes(nblocks * m - 1)
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
    expected = helpers.reference_payloads(key_material, Algorithm.CHACHA20, params, padded)
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


def test_chunk_size_follows_the_block_width(small_chunks, monkeypatch):
    # the loop's chunks are CHUNK blocks whatever the shape, and one block
    # when a block is wider than _CHUNK_WORDS
    for params in PARAMS:
        small_chunks(params)
        seen = []

        def read(start, count, m=params.m):
            seen.append((start, count))
            return bytes(count * m)

        streams = helpers.open_streams(bytes(88), Algorithm.TEST_LCG, params.dual_seed)
        for _ in _engine.transform_chunks(params, *streams, 0, 2 * CHUNK + 1, read):
            pass
        assert seen == [(0, CHUNK), (CHUNK, CHUNK), (2 * CHUNK, 1)]
    monkeypatch.setattr(_engine, "_CHUNK_WORDS", 1)
    streams = helpers.open_streams(bytes(44), Algorithm.TEST_LCG, False)
    blocks = list(_engine.transform_chunks(PARAMS[0], *streams, 5, 3, lambda s, c: bytes(3 * c)))
    assert [start for start, _ in blocks] == [5, 6, 7]
