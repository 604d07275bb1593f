"""Direct checks of the vectorized engine against the scalar block oracle."""

import dataclasses
import secrets

import numpy as np
import pytest

import helpers
from helpers import REF_FIELDS, derive_eval_points, eval_block, gf_inv, mul_table, select_field
from sbshare import _engine, rrsg, scheme
from sbshare.rrsg import SEED_LEN, Algorithm
from sbshare.scheme import combine, recover_range, split
from sbshare.shamir import FieldPolicy, SchemeParams


@pytest.mark.parametrize("m", [1, 2, 3, 16, 17, 128, 255])
@pytest.mark.parametrize("whole,offset", [(1, -1), (1, 0), (1, 1), (2, 1)])
def test_interpolate_inverts_eval_across_slices(m, whole, offset):
    # n = m, so both transforms slice at the same block count; the block
    # counts end just before, on and just past a seam, or run two full
    # slices and one block more
    step = max(1, _engine._SLICE_WORDS // m)
    nblocks = whole * step + offset
    rng = np.random.default_rng([m, whole, offset + 1])
    coeffs = rng.integers(0, 256, (nblocks, m), dtype=np.uint8)
    coeffs[rng.random((nblocks, m)) < 0.1] = 0
    points = _engine.derive_points(rng.integers(0, 256, (nblocks, m), dtype=np.uint8)).T
    f = rng.permutation(np.arange(nblocks) % len(REF_FIELDS))
    values = _engine.eval_blocks(coeffs.T, points.T, f).T
    assert (coeffs == 0).any() and (values == 0).any()
    assert len(np.unique(f)) == min(nblocks, len(REF_FIELDS))
    for b in {b for b in (0, step - 1, step, 2 * step - 1, 2 * step) if b < nblocks}:
        field = REF_FIELDS[f[b]]
        assert values[b].tobytes() == eval_block(coeffs[b].tobytes(), points[b].tolist(), field)
    assert np.array_equal(_engine.interpolate_blocks(points.T, values.T, f).T, coeffs)


@pytest.mark.parametrize("n,m", [(1, 1), (5, 3), (32, 16)])
@pytest.mark.parametrize("whole,offset", [(1, -1), (1, 1), (2, 1)])
def test_eval_of_transposed_coefficients_equals_contiguous(n, m, whole, offset):
    # coefficients may come in F order: split_key stacks the key over
    # rest.T, and np.vstack keeps their F order, as does any transposed
    # (B, m) block array; on both sides of the evaluation's slice seams
    nblocks = whole * max(1, _engine._SLICE_WORDS // n) + offset
    rng = np.random.default_rng([n, m, whole, offset + 1])
    view = rng.integers(0, 256, (nblocks, m), dtype=np.uint8).T
    assert m == 1 or not view.flags.c_contiguous
    points = _engine.derive_points(rng.integers(0, 256, (nblocks, n), dtype=np.uint8))
    f = rng.integers(0, len(REF_FIELDS), nblocks)
    got = _engine.eval_blocks(view, points, f)
    assert got.shape == (n, nblocks)
    assert np.array_equal(got, _engine.eval_blocks(np.ascontiguousarray(view), points, f))


@pytest.mark.parametrize("n,m", [(1, 1), (5, 3), (32, 16)])
def test_interpolate_leaves_read_only_inputs_unchanged(n, m):
    # read-only row views of m points and m values, as x[indices] gives
    # them, both rows of one buffer that holds n of each
    rng = np.random.default_rng([n, m, 7])
    coeffs = rng.integers(0, 256, (300, m), dtype=np.uint8)
    points = _engine.derive_points(rng.integers(0, 256, (300, n), dtype=np.uint8))
    f = rng.integers(0, len(REF_FIELDS), 300)
    raw = np.concatenate((points, _engine.eval_blocks(coeffs.T, points, f)), axis=0)
    buf = np.frombuffer(raw.tobytes(), dtype=np.uint8).reshape(raw.shape)
    xs, ys = buf[:m], buf[n : n + m]
    assert not (xs.flags.writeable or ys.flags.writeable)
    got = _engine.interpolate_blocks(xs, ys, f)
    assert np.array_equal(got.T, coeffs)
    assert buf.tobytes() == raw.tobytes()


def test_field_tables_through_isomorphisms_match_every_field():
    # field 0's tables, read through phi_f and its inverse, give field
    # f's products and quotients for every pair of words, a / 0 being 0
    to0, from0 = _engine._TO0.reshape(-1, 256), _engine._FROM0.reshape(-1, 256)
    assert len(to0) == len(REF_FIELDS)
    assert to0[0].tolist() == list(range(256))
    a, b = np.arange(256)[:, None], np.arange(256)
    for f, phi in enumerate(to0):
        assert sorted(phi.tolist()) == list(range(256)) and phi[1] == 1
        assert np.array_equal(phi[a ^ b], phi[a] ^ phi[b])
        assert from0[f, phi].tolist() == list(range(256))
        field = REF_FIELDS[f]
        table = mul_table(field)
        inverse = [0] + [gf_inv(field, y) for y in range(1, 256)]
        index = phi[a].astype(np.intp) << 8 | phi[b]
        assert np.array_equal(from0[f, _engine._MUL[index]], table)
        assert np.array_equal(from0[f, _engine._DIV[index]], table[:, inverse])
    # the walk every table is read off: 3 generates all 255 nonzero words,
    # and log 0 reads 0, as log 1 does, which key weights rely on
    log, exp = _engine._LOG, _engine._EXP
    assert len(set(exp.tolist())) == 255 and 0 not in exp
    assert exp[0] == 1 and np.array_equal(exp[1:], mul_table(REF_FIELDS[0])[exp[:-1], 3])
    assert all(exp[log[a]] == a for a in range(1, 256))
    assert log[0] == 0


def test_no_blocks():
    f = np.zeros(0, dtype=np.intp)
    coeffs, points = np.zeros((3, 0), np.uint8), np.zeros((5, 0), np.uint8)
    assert _engine.eval_blocks(coeffs, points, f).shape == (5, 0)
    assert _engine.interpolate_blocks(points[:3], coeffs, f).shape == (3, 0)
    assert _engine.derive_points(np.zeros((0, 5), np.uint8)).shape == (5, 0)
    for policy in FieldPolicy:
        assert _engine.field_indices(np.zeros((0, 4), np.uint8), policy).shape == (0,)


def _block_counts(ns, nblocks):
    """(n, nblocks) cases: nblocks at each of ns, and n^2 and n^2 + 1 on both sides of the size test."""
    cases = [pytest.param(n, nblocks, id=str(n)) for n in ns]
    for n in (1, 2, 5, 16, 32):
        cases += [pytest.param(n, b, id=f"{n}-{b}") for b in (n * n, n * n + 1)]
    return cases


@pytest.mark.parametrize("n,nblocks", _block_counts([1, 2, 128, 255], 66))
def test_derive_points_matches_oracle_row_by_row(n, nblocks):
    # rows of equal words put every point on one candidate: at n=255
    # the probe runs 254 steps and the rounds their most, n - 1
    rng = np.random.default_rng([n, nblocks])
    words = rng.integers(0, 256, (nblocks, n), np.uint8)
    words[:4] = np.array([0, 254, 255, 97], np.uint8)[: len(words), None]
    points = _engine.derive_points(words).T
    for row, got in zip(words, points):
        assert tuple(got.tolist()) == derive_eval_points(row.tobytes())


@pytest.mark.parametrize("n,nblocks", _block_counts([5, 32, 64, 255], 48))
@pytest.mark.parametrize("low,high", [(0, 4), (250, 256)])
def test_derive_points_long_probe_runs(n, nblocks, low, high):
    # words from a few adjacent values collide on nearly every point, so
    # probes run long, and from 250..255 they wrap 255 to 1
    words = np.random.default_rng([n, low, nblocks]).integers(low, high, (nblocks, n), np.uint8)
    points = _engine.derive_points(words).T
    for row, got in zip(words, points):
        assert tuple(got.tolist()) == derive_eval_points(row.tobytes())


@pytest.mark.parametrize("n,nblocks", [(5, 3000), (32, 4097), (2, 9), (32, 64), (255, 16)])
@pytest.mark.parametrize("low,high", [(0, 256), (0, 4), (250, 256)])
def test_both_ways_of_deriving_points_agree_on_any_run(n, nblocks, low, high):
    # each way on runs the other is chosen for: the rounds on chunks far
    # wider than n^2, the probe on a few blocks, both on read-only,
    # strided keystream views
    raw = np.random.default_rng([n, nblocks, low]).integers(low, high, (nblocks, n + 3), np.uint8)
    raw[0] = 255
    buf = np.frombuffer(raw.tobytes(), dtype=np.uint8).reshape(raw.shape)
    words = buf[:, 1 : n + 1]
    assert not words.flags.writeable and not words.flags.c_contiguous
    rounds = _engine._points_in_rounds(words)
    assert rounds.shape == (n, nblocks) and rounds.dtype == np.uint8
    assert np.array_equal(rounds, _engine._points_by_probing(words))
    assert np.array_equal(rounds, _engine.derive_points(words))
    assert buf.tobytes() == raw.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 16, 32])
@pytest.mark.parametrize("extra", [0, 1], ids=["n^2", "n^2+1"])
def test_the_first_k_words_give_the_first_k_points(n, extra):
    # recovery derives points only up to the highest share index it reads,
    # so each way, and derive_points' choice between them by the size of
    # its input, must give every prefix of the words that prefix of the
    # points; rows from 0..3 and 250..255 probe long and wrap 255 to 1
    nblocks = n * n + extra
    rng = np.random.default_rng([n, extra])
    words = rng.integers(0, 256, (nblocks, n), np.uint8)
    words[::3] = rng.integers(0, 4, words[::3].shape, np.uint8)
    words[1::3] = rng.integers(250, 256, words[1::3].shape, np.uint8)
    for way in (_engine._points_in_rounds, _engine._points_by_probing, _engine.derive_points):
        points = way(words)
        for k in range(1, n + 1):
            assert np.array_equal(way(words[:, :k]), points[:k]), (way.__name__, k)


@pytest.mark.parametrize("n,m", [(1, 1), (5, 3), (32, 16), (255, 128)])
def test_points_and_fields_from_one_keystream_buffer(n, m):
    # the words as one seed's keystream_blocks passes them: strided views
    # into one read-only (B, m + n + 4) buffer that also holds the masks
    raw = np.random.default_rng([n, m]).integers(0, 256, (64, m + n + 4), np.uint8)
    raw[:2] = 255  # every word of these rows wraps to candidate 1
    raw[2] = 0
    words = np.frombuffer(raw.tobytes(), dtype=np.uint8).reshape(raw.shape)
    point_words, field_words = words[:, m : m + n], words[:, m + n :]
    points = _engine.derive_points(point_words).T
    for row, got in zip(point_words, points):
        assert tuple(got.tolist()) == derive_eval_points(row.tobytes())
    for policy in FieldPolicy:
        got = [REF_FIELDS[i] for i in _engine.field_indices(field_words, policy)]
        assert got == [select_field(w.tobytes(), policy) for w in field_words]
    assert words.tobytes() == raw.tobytes()


@pytest.mark.parametrize("policy", list(FieldPolicy))
def test_field_indices_match_oracle(policy):
    rng = np.random.default_rng(int(policy))
    words = rng.integers(0, 256, (512, 4), np.uint8)
    words[0], words[1] = 0, 255
    got = [REF_FIELDS[i] for i in _engine.field_indices(words, policy)]
    assert got == [select_field(w.tobytes(), policy) for w in words]


# a block's field words start m + n bytes in: 0, 3, 2, 3 and 1 mod 4 here
ALIGNMENTS = [(5, 3), (4, 3), (4, 2), (2, 1), (3, 2)]


@pytest.mark.parametrize("n,m", ALIGNMENTS, ids=[f"{n}-{m}" for n, m in ALIGNMENTS])
@pytest.mark.parametrize("dual_seed", [False, True], ids=["single", "dual"])
@pytest.mark.parametrize("policy", list(FieldPolicy))
def test_field_indices_at_every_alignment(n, m, dual_seed, policy):
    # field_indices reads each block's four words in place as one
    # big-endian word; runs from blocks 0..3 of a width that is not a
    # multiple of 4 also move where in the read those words fall
    params = SchemeParams(n=n, m=m, field_policy=policy, dual_seed=dual_seed)
    key_material = secrets.token_bytes(SEED_LEN * len(_engine.stream_widths(params)))
    main, aux = helpers.open_streams(key_material, Algorithm.CHACHA20, dual_seed)
    blocks = [helpers._block_randomness(params, main, aux) for _ in range(40)]
    want = [select_field(b.field_words, policy) for b in blocks]
    stream = scheme._open_stream(params, key_material, 40)
    for start in range(4):
        _, _, f = _engine.keystream_blocks(params, stream, start, 40 - start)
        assert [REF_FIELDS[i] for i in f] == want[start:]


@pytest.mark.parametrize("policy", list(FieldPolicy))
def test_field_indices_of_words_not_side_by_side_are_right_or_refused(policy):
    # a block's words taken every other byte, backwards or down a
    # column-major array cannot be read as one big-endian word in place:
    # field_indices may raise on them, but must not give other fields
    raw = np.random.default_rng(int(policy)).integers(0, 256, (64, 8), np.uint8)
    raw[0] = 255
    for words in (raw[:, ::2], raw[:, 3::-1], np.asfortranarray(raw[:, 2:6])):
        want = [select_field(w.tobytes(), policy) for w in words]
        try:
            got = _engine.field_indices(words, policy)
        except ValueError:
            continue
        assert [REF_FIELDS[i] for i in got] == want


SHAPES = [
    SchemeParams(n=5, m=3),
    SchemeParams(n=5, m=3, dual_seed=True),
    SchemeParams(n=32, m=16, dual_seed=True),
    SchemeParams(n=6, m=2, field_policy=FieldPolicy.FIXED_CANONICAL, dual_seed=True),
]


@pytest.mark.parametrize("params", SHAPES, ids=["single", "dual", "wide-dual", "dual-fixed"])
@pytest.mark.parametrize("algorithm", list(Algorithm))
def test_keystream_blocks_match_each_seed_read_on_its_own(params, algorithm):
    # the op's one stream against helpers.open_streams, which reads each
    # seed's stream by itself: a block's masks, points and field are the
    # oracle's, for one seed or two, from any first block
    params = dataclasses.replace(params, algorithm=algorithm)
    key_material = secrets.token_bytes(SEED_LEN * len(_engine.stream_widths(params)))
    main, aux = helpers.open_streams(key_material, algorithm, params.dual_seed)
    blocks = [helpers._block_randomness(params, main, aux) for _ in range(12)]
    stream = scheme._open_stream(params, key_material, 12)
    for start, count in [(0, 12), (5, 7), (11, 1), (3, 0)]:
        mask, x, f = _engine.keystream_blocks(params, stream, start, count)
        want = blocks[start : start + count]
        assert mask.shape == (params.m, count) and mask.flags.c_contiguous
        assert mask.T.tobytes() == b"".join(b.mask_words for b in want)
        assert [tuple(col) for col in x.T.tolist()] == [derive_eval_points(b.point_words) for b in want]
        got = [REF_FIELDS[i] for i in f]
        assert got == [select_field(b.field_words, params.field_policy) for b in want]


@pytest.mark.parametrize("dual_seed", [False, True])
def test_each_small_op_runs_one_chacha20_batch(monkeypatch, dual_seed):
    # one stream per op: however many seeds, a small op is one keystream
    # read, one ChaCha20 run per seed under a cipher context of its own
    params = SchemeParams(n=32, m=16, dual_seed=dual_seed)
    calls = []
    words = rrsg._GENERATORS[Algorithm.CHACHA20]
    new_context = rrsg._EVP_CIPHER_CTX_new

    def counted(seed, start, count):
        calls.append("words")
        return words(seed, start, count)

    def counted_context():
        calls.append("context")
        return new_context()

    monkeypatch.setitem(rrsg._GENERATORS, Algorithm.CHACHA20, counted)
    monkeypatch.setattr(rrsg, "_EVP_CIPHER_CTX_new", counted_context)
    secret = secrets.token_bytes(32)
    shares = split(secret, params)
    per_op = ["words", "context"] * (2 if dual_seed else 1)
    assert calls == per_op
    assert combine(shares[3:19]) == secret
    assert recover_range(shares[:16], 1, 1) == secret[16:32]
    assert calls == per_op * 3
